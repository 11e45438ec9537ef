import dataclasses
import gc
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import conductance
from walklab import rng as walklab_rng
from walklab.cli import EXPERIMENTS, main
from walklab.conductance import (
    ConductanceResult,
    conductance_exact,
    conductance_sweep,
    jerrum_sinclair_check,
)
from walklab.errors import ParameterError, SizeCapError
from walklab.graph import Graph, complete, cycle, family, grid2d, lollipop, path, star, torus2d
from walklab.spectral import TransitionKernel, build_kernel, kernel_eigenvalues

from helpers import doubling_conductance, linear_mixing_oracle, mixing_distance, random_connected_graph


def brute_conductance(kernel):
    """Independent subset scan, no shared code with the library tables."""
    n = kernel.n
    q = kernel.stationary[:, None] * kernel.matrix
    best = np.inf
    for size in range(1, n):
        for members in itertools.combinations(range(n), size):
            inside = set(members)
            mass = float(kernel.stationary[list(members)].sum())
            if mass > 0.5 + 1e-12:
                continue
            cut = sum(
                q[x, y] for x in members for y in range(n) if y not in inside
            )
            best = min(best, cut / mass)
    return best


def test_complete_four_conductance():
    res = conductance_exact(build_kernel(complete(4)))
    assert res.phi == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert len(res.subset) == 2  # a balanced split is the argmin


def test_even_cycle_conductance():
    for n in (6, 8, 12):
        res = conductance_exact(build_kernel(cycle(n)))
        assert res.phi == pytest.approx(2.0 / n, abs=1e-12)
        assert res.pi_mass == pytest.approx(0.5, abs=1e-12)


def test_edge_conductance():
    res = conductance_exact(build_kernel(path(2)))
    assert res.phi == pytest.approx(1.0, abs=1e-15)


def test_lazy_kernel_halves_conductance():
    g = lollipop(9)
    plain = conductance_exact(build_kernel(g)).phi
    lazy = conductance_exact(build_kernel(g, lazy=True)).phi
    assert lazy == pytest.approx(plain / 2.0, rel=1e-12)


def test_argmin_subset_reproduces_phi():
    g = random_connected_graph(np.random.default_rng(3), 9, extra=6, weighted=True, loops=True)
    k = build_kernel(g)
    res = conductance_exact(k)
    q = k.stationary[:, None] * k.matrix
    inside = list(res.subset)
    outside = [v for v in range(k.n) if v not in res.subset]
    cut = float(q[np.ix_(inside, outside)].sum())
    mass = float(k.stationary[inside].sum())
    assert mass <= 0.5 + 1e-12
    assert cut / mass == pytest.approx(res.phi, rel=1e-12)
    assert res.pi_mass == pytest.approx(mass, rel=1e-12)
    assert res.cut_flow == pytest.approx(cut, rel=1e-9, abs=1e-12)


def test_exact_matches_brute_force_oracle():
    rng = np.random.default_rng(41)
    for _ in range(8):
        g = random_connected_graph(
            rng, int(rng.integers(2, 10)), extra=int(rng.integers(0, 7)),
            weighted=bool(rng.integers(0, 2)), loops=True, parallel=True,
        )
        lazy = bool(rng.integers(0, 2))
        k = build_kernel(g, lazy=lazy)
        assert conductance_exact(k).phi == pytest.approx(
            brute_conductance(k), rel=1e-10
        )


def _as_tuple(res):
    return res.phi, res.subset, res.pi_mass, res.cut_flow


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_property_blocks_match_the_doubling_tables(seed, bits):
    # with blocks of 2^bits subsets every graph past `bits` vertices walks
    # the high-bit patterns depth first, so each block step is exercised
    rng = np.random.default_rng(seed)
    g = random_connected_graph(
        rng, int(rng.integers(2, 11)), extra=int(rng.integers(0, 8)),
        weighted=True, loops=True, parallel=True,
    )
    k = build_kernel(g, lazy=bool(rng.integers(0, 2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conductance, "BLOCK_BITS", bits)
        assert _as_tuple(conductance_exact(k)) == doubling_conductance(k)


# cycle:8 and an 8-cycle visiting 0, 1, 3, 4, 2, 5, 6, 7: every arc of four
# vertices ties at 2/8 with its complement. In the second, the smallest tied
# mask {0, 1, 3, 4} lacks vertex 2, so with 2-bit blocks the depth-first walk
# scores the tied {1, 2, 3, 4} first; only the mask comparison picks right.
TIED_CYCLES = {
    "cycle:8": (cycle(8), (0, 1, 2, 3)),
    "cycle:8 relabelled": (
        Graph(8, [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5), (5, 6), (6, 7), (7, 0)]),
        (0, 1, 3, 4),
    ),
}


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
@pytest.mark.parametrize("case", sorted(TIED_CYCLES))
def test_tied_minimisers_go_to_the_smallest_mask(monkeypatch, case, bits, lazy):
    g, first = TIED_CYCLES[case]
    monkeypatch.setattr(conductance, "BLOCK_BITS", bits)
    k = build_kernel(g, lazy=lazy)
    res = conductance_exact(k)
    assert _as_tuple(res) == doubling_conductance(k)
    assert res.subset == first


def test_exact_memory_stays_within_blocks():
    # whole 2^20-entry tables peaked at 29 MB on this graph; what the call
    # allocates in Python must also be freed on return, not left in a
    # reference cycle for the collector (the kernel's tables are C's, which
    # tracemalloc does not see; test_kernel_enumeration_frees_its_tables
    # checks those)
    k = build_kernel(grid2d(4, 5))
    gc.disable()
    tracemalloc.start()
    try:
        conductance_exact(k)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 8 * 2**20
    assert held <= 2**18


@pytest.mark.parametrize("method", [conductance_exact, conductance_sweep])
def test_no_light_subset_raises(method):
    # each vertex carries 0.5 + 4e-11, within the kernel's 1e-10 tolerance on
    # the total but above 1/2 + HALF_TOL, so no side of any cut qualifies
    kernel = TransitionKernel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5 + 4e-11] * 2))
    with pytest.raises(ParameterError, match="stationary mass at most 1/2"):
        method(kernel)


def test_size_cap():
    with pytest.raises(SizeCapError):
        conductance_exact(build_kernel(cycle(23)))


def test_sweep_upper_bounds_exact():
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 14)), extra=5, weighted=True)
        k = build_kernel(g)
        exact = conductance_exact(k)
        sweep = conductance_sweep(k)
        assert sweep.phi >= exact.phi - 1e-12
        assert sweep.method == "sweep"
        # the sweep's reported subset must reproduce its own ratio
        q = k.stationary[:, None] * k.matrix
        inside = list(sweep.subset)
        outside = [v for v in range(k.n) if v not in sweep.subset]
        ratio = float(q[np.ix_(inside, outside)].sum()) / float(
            k.stationary[inside].sum()
        )
        assert ratio == pytest.approx(sweep.phi, rel=1e-10)


def test_sweep_finds_the_cycle_cut():
    # on an even cycle the spectral order is an arc, so the sweep is exact
    k = build_kernel(cycle(8))
    assert conductance_sweep(k).phi == pytest.approx(
        conductance_exact(k).phi, rel=1e-10
    )


def test_result_json_round_trip():
    res = conductance_exact(build_kernel(complete(4)))
    data = json.loads(json.dumps(dataclasses.asdict(res), allow_nan=False))
    assert data["phi"] == pytest.approx(2.0 / 3.0)
    assert data["method"] == "exact"
    assert sorted(data["subset"]) == list(res.subset)


# both margins are judged by conductance-survey's declared rule, the one
# statement of the sandwich's threshold
SANDWICH = EXPERIMENTS["conductance-survey"]["checks"]["spectral-sandwich-margins"]
assert SANDWICH[1] == ">="


def test_jerrum_sinclair_edge_chain_margins():
    # 2-state algebra: the lazy kernel is constant 1/2, so its spectrum is
    # {1, 0}; the upper inequality 1 - lambda_2 <= 2 phi is exactly tight.
    rep = jerrum_sinclair_check(path(2))
    assert rep["phi_lazy"] == pytest.approx(0.5, abs=1e-12)
    assert rep["gap_lazy"] == pytest.approx(1.0, abs=1e-12)
    assert rep["lower_margin"] == pytest.approx(7.0 / 8.0, abs=1e-12)
    assert rep["upper_margin"] == pytest.approx(0.0, abs=1e-12)
    assert rep["lower_margin"] >= SANDWICH[2] and rep["upper_margin"] >= SANDWICH[2]


def test_jerrum_sinclair_complete_four():
    rep = jerrum_sinclair_check(complete(4))
    assert rep["phi_lazy"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep["lower_margin"] >= 0 and rep["upper_margin"] >= 0


@pytest.mark.parametrize(
    "g",
    [path(6), cycle(9), complete(7), star(8), lollipop(9), grid2d(3, 4), torus2d(3, 4)],
    ids=lambda g: g.name,
)
def test_jerrum_sinclair_on_families(g):
    rep = jerrum_sinclair_check(g)
    assert rep["lower_margin"] >= SANDWICH[2] and rep["upper_margin"] >= SANDWICH[2], rep


def conductance_mixing_bound(kernel, threshold):
    """Least t with sqrt(pi_max / pi_min) (1 - Phi^2 / 2)^t below the threshold.

    On a lazy kernel that expression bounds the distance from stationarity
    after t steps, so the exact mixing time can never exceed this t.
    """
    phi = conductance_exact(kernel).phi
    prefactor = math.sqrt(float(kernel.stationary.max() / kernel.stationary.min()))
    return max(1, math.ceil(math.log(threshold / prefactor) / math.log(1.0 - phi * phi / 2.0)))


def test_mixing_bound_dominates_exact():
    for g in (path(5), cycle(8), complete(6), star(7), lollipop(9)):
        k = build_kernel(g, lazy=True)
        threshold = float(g.n) ** -3
        assert linear_mixing_oracle(k, threshold) <= conductance_mixing_bound(k, threshold), g.name


def test_mixing_bound_uses_lazy_kernel():
    # the simple walk on an even cycle is periodic and never mixes: its
    # distance from stationarity stays at 1/6 on both parities; its lazy
    # walk mixes within the bound
    plain = build_kernel(cycle(6))
    for t in (4096, 4097):
        assert mixing_distance(plain, t) == pytest.approx(1 / 6)
    k = build_kernel(cycle(6), lazy=True)
    assert linear_mixing_oracle(k, 1e-2) <= conductance_mixing_bound(k, 1e-2)


def test_weighted_comparison_on_small_regular_graphs():
    # a degree weighting can lower Phi by at most a max-degree factor; on
    # these 3- and 4-regular graphs the min-deg walk is the simple walk
    for g in (complete(4), torus2d(3, 3)):
        uniform = conductance_exact(build_kernel(g)).phi
        weighted = conductance_exact(build_kernel(g, scheme="mindeg")).phi
        assert weighted >= uniform / int(g.degrees.max()) - 1e-9
        assert weighted == pytest.approx(uniform, rel=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_property_exact_vs_brute(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 9)), extra=int(rng.integers(0, 6)), weighted=True, loops=True, parallel=True)
    k = build_kernel(g, lazy=bool(rng.integers(0, 2)))
    assert conductance_exact(k).phi == pytest.approx(brute_conductance(k), rel=1e-10)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_property_gap_sandwich(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 9)), extra=4, weighted=True, loops=True)
    k = build_kernel(g, lazy=True)
    phi = conductance_exact(k).phi
    gap = float(1.0 - kernel_eigenvalues(k)[1])
    assert gap >= phi * phi / 2.0 - 1e-9
    assert gap <= 2.0 * phi + 1e-9


# --- the compiled enumeration: walklab_conductance against whole numpy
# tables built by doubling (helpers.doubling_conductance) ---


def _doubling_result(kernel) -> ConductanceResult:
    """helpers.doubling_conductance as the ConductanceResult conductance_exact returns."""
    return ConductanceResult(*doubling_conductance(kernel), method="exact")


@st.composite
def transition_kernels(draw, max_n):
    """Plain or lazy kernels on 2..max_n vertices: a weighted multigraph with
    loops (a random tree, then extra edges, weights over twelve decades),
    or a simple unit-weight graph under the mindeg weighting."""
    n = draw(st.integers(2, max_n))
    ends = st.integers(0, n - 1)
    if draw(st.booleans()):
        weight = st.sampled_from([1.0, 0.5, 3.0]) | st.floats(1e-6, 1e6)
        edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
        edges += draw(st.lists(st.tuples(ends, ends, weight), max_size=2 * n))
        g, scheme = Graph(n, edges), "uniform"
    else:
        pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs |= {(min(u, v), max(u, v)) for u, v in draw(st.lists(st.tuples(ends, ends), max_size=2 * n)) if u != v}
        g, scheme = Graph(n, sorted(pairs)), "mindeg"
    return build_kernel(g, scheme=scheme, lazy=draw(st.booleans()))


@pytest.mark.parametrize("bits", range(1, 13))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_kernel_enumeration_is_the_numpy_enumeration(bits, data):
    # every block size, against whole numpy tables of up to 2^16 entries
    k = data.draw(transition_kernels(max_n=16))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conductance, "BLOCK_BITS", bits)
        assert conductance_exact(k) == _doubling_result(k)


@given(transition_kernels(max_n=16))
@settings(max_examples=40, deadline=None)
def test_kernel_enumeration_is_the_doubling_oracle(k):
    assert _as_tuple(conductance_exact(k)) == doubling_conductance(k)


def _bridged_cliques():
    """Two 5-cliques joined by one edge of subnormal weight 1e-310."""
    halves = [(u + h, v + h) for h in (0, 5) for u, v in itertools.combinations(range(5), 2)]
    return Graph(10, [*halves, (4, 5, 1e-310)], name="bridged")


# Ties and rounding edges. cycle:20, complete:20, star:22 (at the size cap)
# and torus2d:4,5 tie each minimiser with its images under the graph's
# symmetries. On the two relabelled cycles below, a tied subset of smaller
# mask comes after the first one found, with a cut above fl(phi * mass):
# the division may be skipped only past a bound above phi (lazy kernel for
# the looped one, plain for the other). The bridged graphs' best cut rounds
# to 0; on the two weighted pairs (lazy kernel) the mass minus the internal
# flow is -5.6e-17, which the cut clamps to 0.
EDGE_CASES = {name: family(name) for name in ("cycle:20", "complete:20", "star:22", "torus2d:4,5")} | {
    "bridged": _bridged_cliques(),
    "looped 7-cycle": Graph(
        7,
        [(1, 2), (2, 5), (5, 0), (0, 3), (3, 4), (4, 6), (6, 1)] + [(v, v, 1.3) for v in range(7)],
    ),
    "alternating 10-cycle": Graph(
        10,
        [(8, 9, 3.0), (9, 4, 0.1), (4, 2, 3.0), (2, 6, 0.1), (6, 3, 3.0), (3, 0, 0.1), (0, 5, 3.0), (5, 7, 0.1), (7, 1, 3.0), (1, 8, 0.1)],
    ),
    "weighted pairs": Graph(
        4,
        [
            (0, 1, 1.070896764777062), (1, 1, 3.580510500056771), (0, 1, 3.804250758356938),
            (0, 0, 0.3770048879174419), (1, 1, 2.1439281979969187), (0, 1, 0.8177490094647637),
            (2, 3, 0.36248550133262103), (2, 3, 1.530547935359838), (3, 3, 3.7931357837850643),
            (2, 3, 2.058494299028863), (2, 3, 2.273042768179456), (3, 3, 2.4638542953842277),
            (0, 2, 1e-200),
        ],
    ),
}


@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_kernel_enumeration_keeps_ties_and_rounding_edges(name, lazy):
    # the whole doubling tables up to n = 20 (8 MiB a table); at star:22
    # every block size must give the result of the default one
    k = build_kernel(EDGE_CASES[name], lazy=lazy)
    reference = _doubling_result(k) if k.n <= 20 else conductance_exact(k)
    for bits in range(1, 13):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conductance, "BLOCK_BITS", bits)
            assert conductance_exact(k) == reference, bits


def test_exact_calls_the_kernel_with_the_block_bits(monkeypatch):
    kernel, calls = walklab_rng._KERNEL, []

    class Counted:
        def walklab_conductance(self, *args):
            calls.append(args[:2])  # n and the low bits
            return kernel.walklab_conductance(*args)

    monkeypatch.setattr(walklab_rng, "_KERNEL", Counted())
    monkeypatch.setattr(conductance, "BLOCK_BITS", 5)
    k = build_kernel(cycle(8))
    assert conductance_exact(k) == _doubling_result(k)
    assert calls == [(8, 5)]


def test_a_kernel_without_memory_raises_memory_error(monkeypatch):
    class Starved:
        def walklab_conductance(self, *args):
            return -1

    monkeypatch.setattr(walklab_rng, "_KERNEL", Starved())
    with pytest.raises(MemoryError, match="conductance tables"):
        conductance_exact(build_kernel(cycle(8)))


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident size from /proc")
def test_kernel_enumeration_frees_its_tables():
    # each n = 16 call allocates 1 MiB of tables; 64 leaked calls would
    # hold 64 MiB
    def resident():
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    k = build_kernel(cycle(16))
    conductance_exact(k)
    before = resident()
    for _ in range(64):
        conductance_exact(k)
    assert resident() - before < 16 * 2**20


@pytest.mark.parametrize("seed", ["0", "5"])
def test_survey_body_is_the_same_with_the_kernel_on_and_off(tmp_path, monkeypatch, seed):
    # the default survey's 50 exact conductances by the kernel, then by
    # whole doubling tables in its place
    bodies = []
    for exact in (conductance_exact, _doubling_result):
        monkeypatch.setattr(conductance, "conductance_exact", exact)
        base = tmp_path / f"survey-{len(bodies)}"
        result = CliRunner().invoke(main, ["run", "conductance-survey", "--seed", seed, "--out", str(base)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        bodies.append(base.with_suffix(".csv").read_text().split("\n", 1)[1])
    assert bodies[0] == bodies[1]
