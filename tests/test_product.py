import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import censored_kernel, random_connected_graph, transition_matrix
from walklab.errors import DisconnectedError, ParameterError, UnsupportedInputError
from walklab.graph import Graph, cartesian_product, complete, cycle, lollipop, path
from walklab.product import local_observation, theorem_main_bounds
from walklab.rng import substream
from walklab.spectral import build_kernel, exact_cover_times
from walklab.electrical import harmonic_number, resistance_matrix


# --- local observation ---


def test_full_subset_returns_graph_unchanged():
    g = cycle(5)
    obs = local_observation(g, range(5))
    assert obs.graph is g
    assert obs.boundary == ()
    assert set(obs.tags) == {"interior"}
    assert obs.conservation_gap() <= 1e-12


def test_path_observation_creates_boundary_loop():
    g = path(3)
    obs = local_observation(g, [0, 1])
    assert obs.boundary == (1,)
    assert obs.graph.edges == ((0, 1, 1.0), (1, 1, 0.5))
    assert obs.tags == ("interior", "exterior")
    assert obs.conductances == (1.0, 1.0)
    # loop counted once: observed weight at vertex 1 is 1 + 1 = degree 2
    assert obs.conservation_gap() <= 1e-12
    kernel = build_kernel(obs.graph)
    assert kernel.matrix[1, 1] == pytest.approx(0.5)
    assert kernel.matrix[1, 0] == pytest.approx(0.5)


def test_cycle_observation_splits_exterior_mass():
    # excursions from 0 or 2 through vertex 3 return to either side with
    # probability 1/4 each, so each virtual conductance is 1/2
    g = cycle(4)
    obs = local_observation(g, [0, 1, 2])
    assert obs.boundary == (0, 2)
    exterior = {
        (u, v): c
        for (u, v, _), tag, c in zip(obs.graph.edges, obs.tags, obs.conductances)
        if tag == "exterior"
    }
    assert exterior == {
        (0, 0): pytest.approx(0.5),
        (0, 2): pytest.approx(0.5),
        (2, 2): pytest.approx(0.5),
    }
    assert obs.conservation_gap() <= 1e-12


def test_triangle_observation_stacks_parallel_edges():
    g = cycle(3)
    obs = local_observation(g, [0, 1])
    kinds = [(u, v, tag) for (u, v, _), tag in zip(obs.graph.edges, obs.tags)]
    assert (0, 1, "interior") in kinds
    assert (0, 1, "exterior") in kinds
    assert (0, 0, "exterior") in kinds and (1, 1, "exterior") in kinds
    kernel = build_kernel(obs.graph)
    assert kernel.matrix[0, 1] == pytest.approx(0.75)
    assert kernel.matrix[0, 0] == pytest.approx(0.25)


def test_observation_kernel_matches_censored_chain():
    g = lollipop(9)
    subset = [0, 1, 2, 5, 6, 8]
    obs = local_observation(g, subset)
    expected = censored_kernel(g, subset)
    got = build_kernel(obs.graph).matrix
    assert np.abs(got - expected).max() <= 1e-8


def test_exterior_conductance_matches_walk_sum():
    # independent oracle: sum 1/(d(x1)...d(xk)) over exterior walks by
    # truncated dynamic programming on the exterior vertices
    g = cycle(4)
    subset = [0, 1, 2]
    obs = local_observation(g, subset)
    degrees = g.degrees
    exterior = [3]
    adj = {v: sorted(g._adjacency_sets[v]) for v in range(g.n)}

    def walk_sum(u, v, horizon=300):
        mass = np.zeros(len(exterior))
        for i, x in enumerate(exterior):
            if x in adj[u]:
                mass[i] = 1.0 / degrees[x]
        total = 0.0
        for _ in range(horizon):
            total += sum(mass[i] for i, x in enumerate(exterior) if v in adj[x])
            nxt = np.zeros_like(mass)
            for i, x in enumerate(exterior):
                for j, y in enumerate(exterior):
                    if y in adj[x]:
                        nxt[j] += mass[i] / degrees[y]
            mass = nxt
        return total

    lookup = {
        (u, v): c
        for (u, v, _), tag, c in zip(obs.graph.edges, obs.tags, obs.conductances)
        if tag == "exterior"
    }
    assert lookup[(0, 2)] == pytest.approx(walk_sum(0, 2), abs=1e-10)
    assert lookup[(0, 0)] == pytest.approx(walk_sum(0, 0), abs=1e-10)


def test_observed_transitions_match_kernel_empirically():
    g = cycle(4)
    subset = [0, 1, 2]
    obs = local_observation(g, subset)
    kernel = build_kernel(obs.graph).matrix
    pos_of = {old: new for new, old in enumerate(obs.subset)}

    p = transition_matrix(g)
    cumulative = np.cumsum(p, axis=1)
    rng = substream(99, 1)
    uniforms = rng.random(2 * 10**5)
    counts = np.zeros((3, 3))
    state = 0
    last_inside = 0
    for u in uniforms:
        state = int(np.searchsorted(cumulative[state], u))
        if state in pos_of:
            counts[last_inside, pos_of[state]] += 1
            last_inside = pos_of[state]
    rows = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(rows - kernel).max() <= 0.01


def test_observation_rejects_bad_inputs():
    with pytest.raises(UnsupportedInputError):
        local_observation(path(4).with_weights([2.0, 1.0, 1.0]), [0, 1])
    with pytest.raises(DisconnectedError):
        local_observation(Graph(4, [(0, 1), (2, 3)]), [0, 1])
    with pytest.raises(ParameterError):
        local_observation(path(4), [])
    with pytest.raises(ParameterError):
        local_observation(path(4), [0, 9])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_observation_invariants_on_random_graphs(seed, data):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n=rng.integers(3, 11), extra=int(rng.integers(0, 4)))
    size = data.draw(st.integers(min_value=1, max_value=g.n - 1))
    subset = sorted(rng.choice(g.n, size=size, replace=False).tolist())
    obs = local_observation(g, subset)
    assert obs.conservation_gap() <= 1e-9
    expected = censored_kernel(g, subset)
    got = build_kernel(obs.graph).matrix
    assert np.abs(got - expected).max() <= 1e-8


# --- product bounds ---


def test_cycle_product_lower_bound_doubles_cover():
    g = cycle(8)
    cov = 8 * 7 / 2
    report = theorem_main_bounds(g, g, cov_h=cov, bcov_h=cov, cov_g=cov)
    assert report.lower == pytest.approx(2 * cov)
    assert report.precondition_ok


def test_upper_expression_arithmetic():
    g = path(3)
    h = path(5)
    report = theorem_main_bounds(g, h, cov_h=16.0, bcov_h=20.0, cov_g=4.0)
    assert report.lower == pytest.approx(1.5 * 16.0)
    ell = math.log(3) * math.log(6)
    expected = 3 * 20.0 + (3 * 4 + 5 * 2) * 2 * 4 * 5 * ell * ell / (16.0 * 2)
    assert report.upper_value == pytest.approx(expected)
    assert report.upper_symbolic.endswith(" x K")
    assert repr(report.upper_value) in report.upper_symbolic


def test_upper_withheld_when_second_factor_too_small():
    report = theorem_main_bounds(path(10), path(3), cov_h=11.0, bcov_h=12.0)
    assert not report.precondition_ok
    assert report.upper_value is None
    assert report.upper_symbolic is None
    assert report.lower > 0


def test_lower_bound_respects_exact_product_cover():
    pairs = [(complete(2), complete(2)), (complete(2), path(4)), (path(3), cycle(4))]
    for g, h in pairs:
        cov_h = float(exact_cover_times(build_kernel(h)).max())
        cov_g = float(exact_cover_times(build_kernel(g)).max())
        report = theorem_main_bounds(g, h, cov_h=cov_h, bcov_h=cov_h, cov_g=cov_g)
        product = cartesian_product(g, h)
        exact = float(exact_cover_times(build_kernel(product)).max())
        assert report.lower <= exact + 1e-9


def test_bounds_reject_weighted_or_trivial_factors():
    with pytest.raises(UnsupportedInputError):
        theorem_main_bounds(path(3).with_weights([2.0, 1.0]), path(5), 1.0, 1.0)
    with pytest.raises(ParameterError):
        theorem_main_bounds(Graph(1, [], name="dot"), path(5), 1.0, 1.0)


# --- product resistances ---


def test_square_product_of_edges_is_a_four_cycle():
    square = cartesian_product(complete(2), complete(2))
    assert square.n == 4
    assert float(resistance_matrix(square).max()) == pytest.approx(1.0)


def test_grid_monitor_stays_below_harmonic_bound():
    for k in (3, 5):
        assert float(resistance_matrix(cartesian_product(path(k), path(k))).max()) < 8 * harmonic_number(k)
