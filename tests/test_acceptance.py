"""Acceptance gate: every advertised guarantee at its stated tolerance.

One test per criterion, named so the verbose pytest line doubles as the
pass/fail line. Each test also prints a one-line verdict with the observed
extremes; pytest shows it whenever the criterion fails.

Everything here is deterministic: Monte Carlo criteria fix their seeds, so
a green run stays green. The single sampling-noise concession is criterion
4's retry ladder (two retries with shifted seeds), which is part of its
stated policy.
"""

from __future__ import annotations

import math
import time

import numpy as np

from helpers import censored_kernel, random_connected_graph
from walklab.cli import _connected_simple_sample, _nice_band_sequence, _standard_small_graphs
from walklab.conductance import conductance_exact, conductance_sweep, jerrum_sinclair_check
from walklab.configmodel import (
    _simple_flags,
    predicted_cover,
    predicted_p_simple,
    regular_sequence,
    sample_simple,
)
from walklab.electrical import (
    commute_matrix,
    grid_resistance_monitor,
    harmonic_number,
    matthews_lower,
    matthews_upper,
    merst_bound,
    spanning_tree_bound,
)
from walklab.graph import (
    binary_tree,
    cartesian_product,
    complete,
    cycle,
    grid2d,
    lollipop,
    path,
    star,
    torus2d,
)
from walklab.product import local_observation, theorem_main_bounds
from walklab.rng import substream
from walklab.spectral import (
    build_kernel,
    exact_cover_time,
    exact_cover_times,
    exact_hitting,
    mindeg_invariant_report,
)
from walklab.walks import WalkConfig, simulate, speedup


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_closed_forms():
    started = time.perf_counter()
    worst = 0.0

    def gap(obs: float, exp: float) -> float:
        return abs(obs - exp) / abs(exp)

    for n in range(2, 11):
        kern = build_kernel(complete(n))
        worst = max(worst, gap(float(exact_hitting(kern)[0, 1]), n - 1))
        worst = max(
            worst,
            gap(float(exact_cover_times(kern).max()), (n - 1) * harmonic_number(n - 1)),
        )
        kern = build_kernel(path(n))
        hit = exact_hitting(kern)
        for i in range(n):
            for j in range(i + 1, n):
                worst = max(worst, gap(float(hit[i, j]), j * j - i * i))
        span = n - 1
        covers = exact_cover_times(kern)
        for k in range(n):
            worst = max(worst, gap(float(covers[k]), k * (span - k) + span * span))
        expected = 5 * span * span / 4 if span % 2 == 0 else (5 * span * span - 1) / 4
        worst = max(worst, gap(float(covers.max()), expected))
        if n >= 3:
            kern = build_kernel(cycle(n))
            hit = exact_hitting(kern)
            for r in range(1, n):
                worst = max(worst, gap(float(hit[0, r]), r * (n - r)))
            worst = max(worst, gap(float(exact_cover_times(kern).max()), n * (n - 1) / 2))

    duration = time.perf_counter() - started
    ok = worst <= 1e-9 and duration < 10.0
    assert _verdict(
        1, "closed-forms", ok, f"max rel err {worst:.2e}, {duration:.2f}s of 10s"
    )


def test_criterion_02_commute_identity():
    started = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = substream(1002, 1 + i)
        n = int(rng.integers(2, 41))
        extra = int(rng.integers(0, n + 1))
        g = random_connected_graph(rng, n, extra=extra, weighted=True, loops=True, parallel=True)
        hit = exact_hitting(build_kernel(g))
        elec = commute_matrix(g)
        off = ~np.eye(g.n, dtype=bool)
        worst = max(worst, float(np.max(np.abs((hit + hit.T) - elec)[off] / elec[off])))
    duration = time.perf_counter() - started
    ok = worst <= 1e-6 and duration < 60.0
    assert _verdict(
        2, "commute-identity", ok, f"200 graphs, max rel gap {worst:.2e}, {duration:.1f}s of 60s"
    )


def test_criterion_03_bound_sandwich():
    violations = 0
    graphs = _standard_small_graphs()
    for g in graphs:
        kern = build_kernel(g)
        hitting = exact_hitting(kern)
        exact = float(exact_cover_times(kern).max())
        lower = matthews_lower(g, hitting=hitting)
        upper = min(
            matthews_upper(g, hitting=hitting),
            merst_bound(g).bound,
            spanning_tree_bound(g)[0],
        )
        slack = 1e-9 * max(1.0, exact)
        if not (lower <= exact + slack and exact <= upper + slack):
            violations += 1
    ok = violations == 0
    assert _verdict(
        3, "bound-sandwich", ok, f"{len(graphs)} graphs with n <= 13, {violations} violations"
    )


def _calibration_fraction(seed: int) -> tuple[int, int]:
    graphs = [
        path(6), path(10), cycle(7), cycle(10), complete(6), complete(10),
        star(8), star(10), binary_tree(7), binary_tree(10), lollipop(7),
        lollipop(10), grid2d(2, 4), grid2d(3, 3), torus2d(3, 3),
    ]
    for i in range(5):
        rng = substream(4040, 1 + i)
        n = int(rng.integers(4, 11))
        graphs.append(random_connected_graph(rng, n, extra=int(rng.integers(0, n))))
    hits = 0
    for idx, g in enumerate(graphs):
        kern = build_kernel(g)
        if idx % 2 == 0:
            exact = float(exact_cover_time(kern, 0))
            cfg = WalkConfig(stop="cover", start=0)
        else:
            exact = float(exact_hitting(kern)[0, g.n - 1])
            cfg = WalkConfig(stop="hit", start=0, target=g.n - 1)
        est = simulate(g, cfg, 10_000, seed + idx)
        hits += abs(est.mean - exact) <= 4.0 * est.stderr
    return hits, len(graphs)


def test_criterion_04_mc_calibration():
    # stated flake policy: two retries with shifted seeds
    attempts = []
    for retry, seed in enumerate((40, 41, 42)):
        hits, total = _calibration_fraction(seed)
        attempts.append(f"seed {seed}: {hits}/{total}")
        if hits / total >= 0.95:
            assert _verdict(
                4, "mc-calibration", True,
                f"{hits}/{total} within 4 stderr on retry {retry} ({'; '.join(attempts)})",
            )
            return
    assert _verdict(4, "mc-calibration", False, "; ".join(attempts))


def test_criterion_05_grid_resistance():
    started = time.perf_counter()
    failures = [k for k in range(2, 21) if not grid_resistance_monitor(k) < 8 * harmonic_number(k)]
    duration = time.perf_counter() - started
    ok = not failures and duration < 120.0
    assert _verdict(
        5, "grid-resistance", ok, f"k in 2..20, failures {failures}, {duration:.1f}s of 120s"
    )


def test_criterion_06_jerrum_sinclair():
    worst = math.inf
    for i in range(500):
        rng = substream(606, 1 + i)
        n = int(rng.integers(2, 9))
        g = random_connected_graph(
            rng, n, extra=int(rng.integers(0, n + 1)),
            weighted=bool(rng.random() < 0.3), loops=True, parallel=True,
        )
        rep = jerrum_sinclair_check(g)
        worst = min(worst, rep["lower_margin"], rep["upper_margin"])
    named = [
        complete(22), cycle(22), path(22), star(22), binary_tree(22),
        lollipop(22), grid2d(4, 5), torus2d(4, 5),
    ]
    for g in named:
        rep = jerrum_sinclair_check(g)
        worst = min(worst, rep["lower_margin"], rep["upper_margin"])
    ok = worst >= -1e-9
    assert _verdict(
        6, "jerrum-sinclair", ok,
        f"500 random n<=8 plus {len(named)} named n<=22, min margin {worst:.2e}",
    )


def test_criterion_07_local_observation():
    worst_kernel = 0.0
    worst_mass = 0.0
    for i in range(100):
        rng = substream(707, 1 + i)
        n = int(rng.integers(3, 31))
        g = random_connected_graph(
            rng, n, extra=int(rng.integers(0, n + 1)), parallel=bool(rng.random() < 0.3)
        )
        k = int(rng.integers(1, n + 1))
        subset = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        obs = local_observation(g, subset)
        worst_mass = max(worst_mass, obs.conservation_gap())
        lowered = build_kernel(obs.graph).matrix
        censored = censored_kernel(g, subset)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(lowered - censored))))
    ok = worst_kernel <= 1e-8 and worst_mass <= 1e-9
    assert _verdict(
        7, "local-observation", ok,
        f"100 pairs n<=30, kernel gap {worst_kernel:.2e}, mass gap {worst_mass:.2e}",
    )


def test_criterion_08_p_simple():
    worst = 0.0
    cells = []
    for k, (r, n) in enumerate([(3, 50), (3, 100), (4, 50), (4, 100)]):
        seq = regular_sequence(n, r)
        # attempts 0..9999 of the stream, each flagged simple as
        # sample_configuration(seq, seed, index=i).is_simple would tell
        blocks = _simple_flags(seq, 808 + 1000 * k, 10_000, stop=False)
        simple = sum(int(flags.sum()) for _, flags in blocks)
        emp = simple / 10_000
        gap = abs(emp - predicted_p_simple(seq))
        worst = max(worst, gap)
        cells.append(f"{r}-regular n={n}: {gap:.4f}")
    ok = worst <= 0.03
    assert _verdict(8, "p-simple", ok, "; ".join(cells))


def test_criterion_09_nice_expanders():
    min_phi = math.inf
    for i in range(50):
        # the claim's population is nice sequences, so draws that miss the
        # niceness screen (a band draw can top the average-degree cap) are
        # redrawn, never asserted on
        seq = _nice_band_sequence(20, 3, 6, 909 + i)
        graph, _ = _connected_simple_sample(seq, 909 + i)
        min_phi = min(min_phi, conductance_exact(build_kernel(graph)).phi)
    # larger size: the sweep value is surveyed, never asserted
    big = sample_simple(regular_sequence(100, 3), 910)
    sweep_phi = conductance_sweep(build_kernel(big.graph)).phi
    ok = min_phi > 0.01
    assert _verdict(
        9, "nice-expanders", ok,
        f"50 graphs n=20 degrees 3..6, min phi {min_phi:.4f}; "
        f"n=100 sweep {sweep_phi:.4f} (reported only)",
    )


def test_criterion_10_degseq_cover_ladder():
    ratios = []
    for j, n in enumerate((500, 1000, 2000)):
        seq = regular_sequence(n, 3)
        graph, _ = _connected_simple_sample(seq, 1 + 101 * j)
        est = simulate(graph, WalkConfig(stop="cover"), 200, 1 + 101 * j)
        assert est.censored == 0
        ratios.append(est.mean / predicted_cover(seq))
    in_band = all(0.8 <= r <= 1.2 for r in ratios)
    drift = abs(ratios[-1] - 1.0) - abs(ratios[0] - 1.0)
    ok = in_band and drift <= 0.02
    assert _verdict(
        10, "degseq-cover-ladder", ok,
        f"ratios {[round(r, 4) for r in ratios]} vs 2 n ln n, drift {drift:+.4f} (slack 0.02)",
    )


def test_criterion_11_mindeg_scheme():
    worst_hit_excess = -math.inf
    weight_ok = True
    for i in range(100):
        rng = substream(1111, 1 + i)
        n = int(rng.integers(2, 61))
        g = random_connected_graph(rng, n, extra=int(rng.integers(0, n + 1)))
        rep = mindeg_invariant_report(g, seed=1111)
        weight_ok = weight_ok and rep["checks"]["total_weight"]["passed"]
        excess = rep["checks"]["max_hitting"]["observed"] - 6 * n * n
        worst_hit_excess = max(worst_hit_excess, excess)
        assert rep["checks"]["max_hitting"]["passed"]
    for g in _standard_small_graphs():
        rep = mindeg_invariant_report(g, seed=1111, path_pairs=10)
        weight_ok = weight_ok and rep["checks"]["total_weight"]["passed"]
    boost = speedup(lollipop(90), trials=150, seed=1111)
    ok = weight_ok and worst_hit_excess <= 0 and boost["z_score"] > 3.0
    assert _verdict(
        11, "mindeg-scheme", ok,
        f"100 random n<=60 max-hitting excess {worst_hit_excess:.1f} (<=0), "
        f"weights in [n, 2n]: {weight_ok}, lollipop(90) speedup "
        f"{boost['ratio']:.1f}x at z={boost['z_score']:.1f}",
    )


def test_criterion_12_torus_cover_monitor():
    ratios = {}
    for n in (20, 35, 50):
        g = torus2d(n, n)
        est = simulate(g, WalkConfig(stop="cover"), 30, 12)
        ratios[n] = est.mean / (g.n * math.log(g.n) ** 2 / math.pi)
    ok = all(0.5 <= r <= 1.6 for r in ratios.values())
    pretty = {n: round(r, 3) for n, r in ratios.items()}
    assert _verdict(
        12, "torus-cover-monitor", ok, f"mc cover over N ln^2 N / pi: {pretty}"
    )


def test_criterion_13_product_lower_below_mc():
    # the cycle factor exceeds the exact-cover cap, so its cover time comes
    # from the closed form validated by criterion 1
    h = cycle(16)
    cov_h = 16 * 15 / 2.0
    bcov_h = simulate(h, WalkConfig(stop="blanket-cover"), 200, 1301).mean
    details = []
    ok = True
    for g in (cycle(4), path(4)):
        cov_g = float(exact_cover_times(build_kernel(g)).max())
        bounds = theorem_main_bounds(g, h, cov_h=cov_h, bcov_h=bcov_h, cov_g=cov_g)
        prod = cartesian_product(g, h)
        est = simulate(prod, WalkConfig(stop="cover"), 200, 1302)
        ok = ok and bounds.lower <= est.mean + 4.0 * est.stderr
        details.append(
            f"{g.name}: lower {bounds.lower:.0f} vs mc {est.mean:.0f}+-{est.stderr:.0f}"
        )
    assert _verdict(13, "product-lower-below-mc", ok, "; ".join(details))
