import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.errors import DisconnectedError, SizeCapError, UnsupportedInputError
from walklab.electrical import (
    LOWER_MAX_SIZE,
    SUBSET_SEARCH_CAP,
    MerstResult,
    commute_matrix,
    grid_resistance_monitor,
    harmonic_number,
    matthews_lower,
    matthews_upper,
    merst_bound,
    resistance_matrix,
    spanning_tree_bound,
)
from walklab.graph import Graph, binary_tree, complete, cycle, grid2d, lollipop, path, star
from walklab.spectral import build_kernel, exact_cover_times, exact_hitting

from helpers import (
    edge_list,
    effective_resistance,
    flow_energy,
    per_subset_matthews_lower,
    random_connected_graph,
    unit_current_flow,
)


# --- effective resistance ---


def test_path_resistance_is_distance():
    r = resistance_matrix(path(6))
    for i in range(6):
        for j in range(6):
            assert r[i, j] == pytest.approx(abs(i - j), abs=1e-10)


def test_cycle_resistance_parallel_arcs():
    n = 7
    r = resistance_matrix(cycle(n))
    for i in range(n):
        for j in range(n):
            arc = min(abs(i - j), n - abs(i - j))
            assert r[i, j] == pytest.approx(arc * (n - arc) / n, abs=1e-10)


def test_complete_graph_resistance():
    for n in (3, 5, 8):
        assert resistance_matrix(complete(n))[0, 1] == pytest.approx(2.0 / n, abs=1e-12)


def test_parallel_edges_halve_resistance():
    g = Graph(2, [(0, 1, 1.0), (0, 1, 1.0)])
    assert resistance_matrix(g)[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_loops_are_electrically_invisible():
    plain = path(4)
    loopy = Graph(4, edge_list(plain) + [(2, 2, 5.0)])
    np.testing.assert_allclose(resistance_matrix(loopy), resistance_matrix(plain), rtol=0, atol=1e-12)


@pytest.mark.parametrize("edges", [[], [(0, 0, 2.0)]], ids=["bare", "loop"])
def test_single_vertex_has_zero_resistance_and_merst_bound(edges):
    g = Graph(1, edges)
    assert resistance_matrix(g).tolist() == [[0.0]]
    assert merst_bound(g) == MerstResult(0.0, 0.0, ())


def test_resistance_matrix_matches_pair_solver():
    rng = np.random.default_rng(13)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), extra=5, weighted=True, loops=True, parallel=True)
        r = resistance_matrix(g)
        assert np.abs(r - r.T).max() <= 1e-12
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert r[u, v] == pytest.approx(
                    effective_resistance(g, u, v), rel=1e-8, abs=1e-10
                )


def test_resistance_requires_connectivity():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        resistance_matrix(g)


# --- commute identity ---


def test_commute_identity_on_random_weighted_multigraphs():
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(2, 14)), extra=6, weighted=True, loops=True, parallel=True)
        h = exact_hitting(build_kernel(g))
        com = commute_matrix(g)
        np.testing.assert_allclose(com, h + h.T, rtol=1e-6, atol=1e-9)


def test_commute_time_single_pair():
    g = path(5)
    h = exact_hitting(build_kernel(g))
    assert commute_matrix(g)[0, 4] == pytest.approx(h[0, 4] + h[4, 0], rel=1e-10)


# --- flows (Thomson's principle) ---


def test_unit_current_flow_achieves_resistance():
    rng = np.random.default_rng(29)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(2, 10)), extra=4, weighted=True)
        u, v = 0, g.n - 1
        flow = unit_current_flow(g, u, v)
        gap = flow_energy(g, flow, u, v) - resistance_matrix(g)[u, v]
        assert abs(gap) <= 1e-9


def test_thomson_gap_positive_for_detour_flow():
    g = cycle(4)
    u, v = 0, 1
    # push everything the long way round: 0 -> 3 -> 2 -> 1
    flow = np.zeros((4, 4))
    for a, b in ((0, 3), (3, 2), (2, 1)):
        flow[a, b] = 1.0
        flow[b, a] = -1.0
    energy = flow_energy(g, flow, u, v)
    assert energy == pytest.approx(3.0, abs=1e-12)
    assert energy - resistance_matrix(g)[u, v] == pytest.approx(3.0 - 0.75, abs=1e-9)


def test_flow_validation_names_the_violated_law():
    g = path(3)
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # not antisymmetric
    with pytest.raises(ValueError, match="antisymmetry"):
        flow_energy(g, bad, 0, 2)

    leak = np.zeros((3, 3))
    leak[0, 1], leak[1, 0] = 1.0, -1.0
    leak[1, 2], leak[2, 1] = 0.5, -0.5  # vertex 1 swallows half
    with pytest.raises(ValueError, match="conservation violated at vertex 1"):
        flow_energy(g, leak, 0, 2)

    weak = np.zeros((3, 3))
    weak[0, 1], weak[1, 0] = 0.5, -0.5
    weak[1, 2], weak[2, 1] = 0.5, -0.5
    with pytest.raises(ValueError, match="source strength"):
        flow_energy(g, weak, 0, 2)

    offedge = np.zeros((3, 3))
    offedge[0, 2], offedge[2, 0] = 1.0, -1.0  # (0, 2) is not an edge of P_3
    with pytest.raises(ValueError, match="support"):
        flow_energy(g, offedge, 0, 2)


# --- bounds ---


def test_spanning_tree_bound_values():
    g = lollipop(9)
    sharp, loose = spanning_tree_bound(g)
    assert sharp == 2 * 18 * 16
    assert loose == 4 * 18 * 9
    with pytest.raises(UnsupportedInputError):
        spanning_tree_bound(Graph(2, [(0, 1, 2.0)]))


def test_merst_on_path_keeps_path_edges():
    g = path(5)
    res = merst_bound(g)
    assert res.tree_weight == pytest.approx(4.0, abs=1e-10)
    assert res.bound == pytest.approx(g.volume * 4.0, abs=1e-9)
    assert sorted(res.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_merst_on_complete_graph():
    n = 6
    res = merst_bound(complete(n))
    # every pair has resistance 2/n; any tree has n-1 of them
    assert res.tree_weight == pytest.approx((n - 1) * 2.0 / n, rel=1e-10)
    assert res.bound == pytest.approx(n * (n - 1) * (n - 1) * 2.0 / n, rel=1e-10)


def test_merst_bound_dominates_exact_cover():
    for g in (path(7), cycle(9), complete(6), star(8), binary_tree(7), lollipop(9)):
        cov = float(exact_cover_times(build_kernel(g)).max())
        assert merst_bound(g).bound >= cov - 1e-9


def test_matthews_upper_complete_graph():
    n = 8
    assert matthews_upper(complete(n)) == pytest.approx(
        (n - 1) * harmonic_number(n), rel=1e-12
    )


def test_matthews_lower_complete_graph_is_tight():
    n = 8
    got = matthews_lower(complete(n))
    exact = float(exact_cover_times(build_kernel(complete(n))).max())
    assert got == pytest.approx((n - 1) * harmonic_number(n - 1), rel=1e-12)
    assert got == pytest.approx(exact, rel=1e-12)


def test_matthews_lower_on_a_path_is_its_two_ends():
    g = path(10)
    h = exact_hitting(build_kernel(g))
    # ends of the path: min pair hitting is 81 both ways, and no larger set
    # scores more
    got = matthews_lower(g, hitting=h)
    assert got == pytest.approx(81.0 * harmonic_number(1), rel=1e-12)


def test_matthews_lower_search_cap():
    with pytest.raises(SizeCapError):
        matthews_lower(path(17))


def test_matthews_lower_full_search_at_the_cap():
    g = path(SUBSET_SEARCH_CAP)
    h = exact_hitting(build_kernel(g))
    got = matthews_lower(g, hitting=h)
    assert got == per_subset_matthews_lower(h, LOWER_MAX_SIZE)
    # the two ends win: (n - 1)^2 each way, times h(1) = 1
    assert got == pytest.approx((SUBSET_SEARCH_CAP - 1) ** 2, rel=1e-12)


def test_matthews_lower_at_sixteen_vertices_matches_the_oracle():
    rng = np.random.default_rng(16)
    g = random_connected_graph(rng, 16, extra=10, weighted=True, loops=True, parallel=True)
    h = exact_hitting(build_kernel(g))
    assert matthews_lower(g, hitting=h) == per_subset_matthews_lower(h, LOWER_MAX_SIZE)


def test_matthews_lower_memory_stays_small_at_the_cap():
    # one (C(16, k), k, k) gather of hitting blocks per size peaked at 14.8 MiB
    g = path(SUBSET_SEARCH_CAP)
    h = exact_hitting(build_kernel(g))
    gc.disable()
    tracemalloc.start()
    try:
        matthews_lower(g, hitting=h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 4 * 2**20


def test_sandwich_on_small_families():
    for g in (path(6), cycle(8), complete(7), star(9), binary_tree(7), lollipop(9)):
        kernel = build_kernel(g)
        cov = float(exact_cover_times(kernel).max())
        h = exact_hitting(kernel)
        lower = matthews_lower(g, hitting=h)
        upper = matthews_upper(g, hitting=h)
        assert lower <= cov + 1e-9
        assert cov <= upper + 1e-9
        assert cov <= merst_bound(g).bound + 1e-9
        assert cov <= spanning_tree_bound(g)[1] + 1e-9


# --- monitors ---


def test_grid_resistance_monitor_small_sizes():
    for k in (2, 3, 5, 8):
        largest = grid_resistance_monitor(k)
        assert largest == float(resistance_matrix(grid2d(k, k)).max())
        assert largest < 8 * harmonic_number(k)
    with pytest.raises(SizeCapError):
        grid_resistance_monitor(41)


def test_rayleigh_monitor_on_cycle():
    # Rayleigh monotonicity: deleting an edge lowers no resistance, and
    # raises the one across it from 5/6 to 5
    g = cycle(6)
    before = resistance_matrix(g)
    for idx, (u, v, _) in enumerate(edge_list(g)):
        after = resistance_matrix(Graph(g.n, [e for j, e in enumerate(edge_list(g)) if j != idx]))
        assert (after >= before - 1e-9).all(), idx
        assert after[u, v] == pytest.approx(5.0) and before[u, v] == pytest.approx(5 / 6)


def test_rayleigh_monitor_reports_absent_for_separated_pairs():
    # deleting the middle edge of P_4 leaves 0 and 3 with no finite
    # resistance, so the dense route refuses the graph; inside each part
    # no resistance falls
    g = path(4)
    before = resistance_matrix(g)
    cut = Graph(4, [e for j, e in enumerate(edge_list(g)) if j != 1])
    with pytest.raises(DisconnectedError):
        resistance_matrix(cut)
    for a, b in ([0, 1], [2, 3]):
        # the part's own graph, its vertices a, b relabelled 0, 1
        part = Graph(2, [(u - a, v - a, w) for u, v, w in edge_list(cut) if {u, v} <= {a, b}])
        after = resistance_matrix(part)
        assert after[0, 1] == pytest.approx(1.0)
        assert after[0, 1] >= before[a, b] - 1e-9


# --- metric property ---


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_resistance_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 10)), extra=int(rng.integers(0, 8)), weighted=True, loops=True, parallel=True)
    r = resistance_matrix(g)
    n = g.n
    assert np.abs(np.diag(r)).max() <= 1e-12
    assert (r >= -1e-12).all()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert r[a, c] <= r[a, b] + r[b, c] + 1e-9


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_property_commute_identity(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 12)), extra=5, weighted=True, loops=True, parallel=True)
    h = exact_hitting(build_kernel(g))
    np.testing.assert_allclose(
        commute_matrix(g), h + h.T, rtol=1e-6, atol=1e-8
    )


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_property_matthews_lower_matches_per_subset_oracle(seed, lazy):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 10)), extra=int(rng.integers(0, 8)), weighted=True, loops=True, parallel=True)
    h = exact_hitting(build_kernel(g, lazy=lazy))
    got = matthews_lower(g, hitting=h)
    assert got == per_subset_matthews_lower(h, LOWER_MAX_SIZE)
