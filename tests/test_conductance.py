import dataclasses
import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import conductance
from walklab.conductance import (
    conductance_exact,
    conductance_sweep,
    jerrum_sinclair_check,
)
from walklab.errors import SizeCapError
from walklab.graph import Graph, complete, cycle, grid2d, lollipop, path, star, torus2d
from walklab.spectral import build_kernel, kernel_eigenvalues

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
    # whole 2^20-entry tables peaked at 29 MB on this graph; the blocks must
    # also be freed on return, not left in a reference cycle for the collector
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


def test_jerrum_sinclair_edge_chain_margins():
    # 2-state algebra: the lazy kernel is constant 1/2, so its spectrum is
    # {1, 0}; the upper inequality 1 - lambda_2 <= 2 phi is exactly tight.
    rep = jerrum_sinclair_check(path(2))
    assert rep["phi_lazy"] == pytest.approx(0.5, abs=1e-12)
    assert rep["gap_lazy"] == pytest.approx(1.0, abs=1e-12)
    assert rep["lower_margin"] == pytest.approx(7.0 / 8.0, abs=1e-12)
    assert rep["upper_margin"] == pytest.approx(0.0, abs=1e-12)
    assert rep["passed"]


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
    assert rep["passed"], rep


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
