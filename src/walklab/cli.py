"""Command-line laboratory: canned experiments with reproducible outputs.

Every experiment resolves its inputs into a spec dictionary, computes CSV
rows plus a list of named checks, and writes two artifacts: `<out>.csv`,
whose body is a pure function of the spec so re-runs are byte-identical,
and `<out>.json` with the same spec, the check verdicts, and the runtime.
Wall-clock information appears only in the JSON summary.

Exit codes: 0 every check passed, 1 at least one check failed, 2 bad
invocation or input (a size cap too), 3 numeric failure.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import click
import numpy as np

from .conductance import conductance_sweep, jerrum_sinclair_check
from .configmodel import (
    _pairing_blocks,
    _simple_rows,
    check_nice,
    predicted_cover,
    predicted_p_simple,
    random_band_sequence,
    read_degree_file,
    regular_sequence,
    sample_simple,
)
from .electrical import (
    GRID_CAP,
    commute_matrix,
    grid_resistance_monitor,
    harmonic_number,
    matthews_lower,
    matthews_upper,
    merst_bound,
    spanning_tree_bound,
)
from .errors import InputError, NumericError, ParameterError, RejectionFailure, SizeCapError
from .graph import (
    Graph,
    binary_tree,
    cartesian_product,
    complete,
    cycle,
    family,
    grid2d,
    lollipop,
    path,
    random_connected_graph,
    star,
    torus2d,
)
from .product import theorem_main_bounds
from .rng import substream
from .spectral import COVER_CAP, build_kernel, exact_cover_times, exact_hitting
from .walks import WalkConfig, _st_answers, simulate, speedup
from .weighting import SCHEMES

__all__ = ["main"]

# degseq-cover's largest n, ten times the largest measured: a mixed 3/5
# sequence at n = 100 000 sampled in 5.4 s and built 28.8 MB of walk tables
_DEGSEQ_CAP = 10**6


# --- output plumbing ---


def _cell(v) -> str:
    """One CSV cell; floats via repr(float(.)) so bodies are byte-stable."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _csv_body(spec: dict, header: list[str], rows: list[list]) -> str:
    lines = ["# spec " + json.dumps(spec, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _check(name: str, passed: bool, observed, expected: str, tolerance=None) -> dict:
    if isinstance(observed, (np.floating, np.integer, np.bool_)):
        observed = observed.item()
    if isinstance(observed, float) and not math.isfinite(observed):
        observed = _cell(observed)  # strict JSON has no NaN or infinity
    return {
        "name": name,
        "passed": bool(passed),
        "observed": observed,
        "expected": expected,
        "tolerance": tolerance,
    }


def _parse_sizes(text: str | None, field: str) -> range | list[int] | None:
    """Accept '8', '2..10' (inclusive, as a range), or '500,1000,2000', never ','."""
    if text is None:
        return None
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            return range(lo, hi + 1)
        if "," in text:
            sizes = [int(p) for p in text.split(",") if p.strip()]
            if not sizes:
                raise ValueError
            return sizes
        return [int(text)]
    except ValueError as exc:
        raise ParameterError(
            f"{field}: expected an int, 'a..b', or a comma list, got {text!r}"
        ) from exc


def _ladder(ns: range | list[int], low: int, cap: int, what: str) -> list[int]:
    """The sizes as a list, once every one lies in low..cap.

    A range is checked at its ends, so a long a..b is refused before it is
    expanded.
    """
    least, most = (ns[0], ns[-1]) if isinstance(ns, range) else (min(ns), max(ns))
    if least < low:
        raise ParameterError(f"--n: {what} needs sizes >= {low}, got {least}")
    if most > cap:
        raise SizeCapError(f"--n: {what} capped at n={cap}, got {most}")
    return list(ns)


def _resolve_graph(spec: dict, default: str | None = None) -> Graph:
    fam, path_arg = spec.get("family"), spec.get("graph_file")
    if fam and path_arg:
        raise ParameterError("give at most one of --family and --graph-file")
    if path_arg:
        p = Path(path_arg)
        if not p.is_file():
            raise ParameterError(f"--graph-file: no such file {path_arg!r}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ParameterError(f"--graph-file: {path_arg!r} is not UTF-8 text") from None
        g = Graph.from_text(text, name=p.stem)
    elif fam:
        g = family(fam)
    elif default is not None:
        g = family(default)
    else:
        raise ParameterError("this experiment needs --family or --graph-file")
    spec["graph"] = g.name
    return g


def _sub_seed(seed: int, offset: int) -> int:
    """The seed `offset` past --seed, refused by naming both if it passes 2^64 - 1.

    Runners derive their streams' seeds by adding fixed offsets to --seed,
    so a --seed near the top of the range can be refused midway; the rng's
    own message would name the sum, a seed the user never gave.
    """
    if seed + offset >= 2**64:
        raise ParameterError(
            f"--seed {seed} plus sub-seed offset {offset} passes 2^64 - 1; "
            "choose a smaller --seed"
        )
    return seed + offset


def _connected_simple_sample(seq, seed: int, offset: int = 0) -> tuple[Graph, int]:
    """Simple sample resampled until connected; index of the try that won."""
    for attempt in range(64):
        sam = sample_simple(seq, _sub_seed(seed, offset + 7919 * attempt))
        if sam.graph.is_connected:
            return sam.graph, attempt
    raise RejectionFailure(
        f"no connected simple graph for {seq.n} vertices in 64 resampling rounds"
    )


def _nice_band_sequence(n: int, low: int, high: int, seed: int, offset: int = 0):
    """Band-degree sequence resampled until it clears the niceness screen.

    A band draw can land just over the average-degree cap, and those
    sequences are outside the expander claim's population, so they are
    redrawn rather than asserted on.
    """
    for attempt in range(64):
        seq = random_band_sequence(n, low, high, _sub_seed(seed, offset + 33 * attempt))
        if check_nice(seq).nice:
            return seq
    raise RejectionFailure(
        f"no nice band sequence on {n} vertices in 64 resampling rounds"
    )


# --- experiments ---


def _run_closed_forms(spec: dict):
    ns = spec["n"] = _ladder(spec["n"] or range(2, 11), 2, COVER_CAP, "exact cover time")
    rows: list[list] = []
    worst: dict[str, float] = {"complete": 0.0, "path": 0.0, "cycle": 0.0}

    def add(fam: str, n: int, qty: str, obs: float, exp: float) -> None:
        rel = abs(obs - exp) / abs(exp)
        worst[fam] = max(worst[fam], rel)
        rows.append([fam, n, qty, obs, exp, rel])

    for n in ns:
        kern = build_kernel(complete(n))
        add("complete", n, "hit:0->1", float(exact_hitting(kern)[0, 1]), float(n - 1))
        add(
            "complete",
            n,
            "cover",
            float(exact_cover_times(kern).max()),
            (n - 1) * harmonic_number(n - 1),
        )

        kern = build_kernel(path(n))
        hit = exact_hitting(kern)
        for i in range(n):
            for j in range(i + 1, n):
                add("path", n, f"hit:{i}->{j}", float(hit[i, j]), float(j * j - i * i))
        span = n - 1
        covers = exact_cover_times(kern)
        for k in range(n):
            add(
                "path",
                n,
                f"cover-from:{k}",
                float(covers[k]),
                float(k * (span - k) + span * span),
            )
        exp_worst = 5 * span * span / 4 if span % 2 == 0 else (5 * span * span - 1) / 4
        add("path", n, "cover-worst", float(covers.max()), float(exp_worst))

        if n >= 3:
            kern = build_kernel(cycle(n))
            hit = exact_hitting(kern)
            for r in range(1, n):
                add("cycle", n, f"hit:0->{r}", float(hit[0, r]), float(r * (n - r)))
            add(
                "cycle",
                n,
                "cover",
                float(exact_cover_times(kern).max()),
                n * (n - 1) / 2.0,
            )

    checks = [
        _check(
            f"{fam}-closed-forms",
            worst[fam] <= 1e-9,
            worst[fam],
            "max relative error <= 1e-9",
            1e-9,
        )
        for fam in ("complete", "path", "cycle")
    ]
    header = ["family", "n", "quantity", "observed", "expected", "rel_err"]
    return header, rows, checks


def _standard_small_graphs() -> list[Graph]:
    gs = [path(n) for n in range(2, 14)]
    gs += [cycle(n) for n in range(3, 14)]
    gs += [complete(n) for n in range(2, 14)]
    gs += [star(n) for n in range(3, 14)]
    gs += [binary_tree(n) for n in (3, 5, 7, 10, 13)]
    gs += [lollipop(n) for n in range(4, 14)]
    gs += [grid2d(2, 2), grid2d(2, 3), grid2d(3, 3), grid2d(2, 5), grid2d(3, 4), grid2d(2, 6)]
    gs += [torus2d(3, 3), torus2d(3, 4)]
    return gs


def _run_bounds_sandwich(spec: dict):
    rows: list[list] = []
    low_bad = up_bad = 0
    for g in _standard_small_graphs():
        kern = build_kernel(g)
        hitting = exact_hitting(kern)
        exact = float(exact_cover_times(kern).max())
        lower = matthews_lower(g, hitting=hitting)
        uppers = {
            "matthews": matthews_upper(g, hitting=hitting),
            "merst": merst_bound(g).bound,
            "spanning": spanning_tree_bound(g)[0],
        }
        min_upper = min(uppers.values())
        slack = 1e-9 * max(1.0, exact)
        ok_low = lower <= exact + slack
        ok_up = exact <= min_upper + slack
        low_bad += not ok_low
        up_bad += not ok_up
        rows.append(
            [
                g.name,
                g.n,
                g.m,
                exact,
                lower,
                uppers["matthews"],
                uppers["merst"],
                uppers["spanning"],
                min_upper,
                ok_low,
                ok_up,
            ]
        )
    checks = [
        _check(
            "lower-bound-violations",
            low_bad == 0,
            low_bad,
            "matthews lower <= exact worst-start cover on every graph",
        ),
        _check(
            "upper-bound-violations",
            up_bad == 0,
            up_bad,
            "exact <= min(matthews, resistance-tree, spanning-tree) on every graph",
        ),
        _check("graphs-covered", len(rows) >= 60, len(rows), "all built-ins with n <= 13"),
    ]
    header = [
        "graph",
        "n",
        "m",
        "exact_cover",
        "lower",
        "matthews_upper",
        "merst_upper",
        "spanning_upper",
        "min_upper",
        "ok_lower",
        "ok_upper",
    ]
    return header, rows, checks


def _run_commute_identity(spec: dict):
    count = spec["trials"]
    rows: list[list] = []
    worst = 0.0
    for i in range(count):
        rng = substream(spec["seed"], 1 + i)
        n = int(rng.integers(2, 41))
        extra = int(rng.integers(0, n + 1))
        g = random_connected_graph(
            rng, n, extra=extra, weighted=True, loops=True, parallel=True
        )
        hit = exact_hitting(build_kernel(g))
        elec = commute_matrix(g)
        off = ~np.eye(g.n, dtype=bool)
        gap = float(np.max(np.abs((hit + hit.T) - elec)[off] / elec[off]))
        worst = max(worst, gap)
        rows.append([i, n, g.m, gap, gap <= 1e-6])
    checks = [
        _check(
            "commute-identity",
            worst <= 1e-6,
            worst,
            "walk commute time == volume * effective resistance, per pair",
            1e-6,
        )
    ]
    return ["index", "n", "m", "max_rel_gap", "ok"], rows, checks


def _run_grid_resistance(spec: dict):
    ks = spec["n"] = _ladder(spec["n"] or range(2, 21), 2, GRID_CAP, "grid monitor")
    rows = []
    all_ok = True
    for k in ks:
        rep = grid_resistance_monitor(k)
        all_ok = all_ok and rep["passed"]
        rows.append([rep["k"], rep["n"], rep["max_resistance"], rep["bound"], rep["passed"]])
    checks = [
        _check(
            "grid-resistance-bound",
            all_ok,
            len(ks),
            "max pairwise resistance on the k x k grid stays below 8 h(k)",
        )
    ]
    return ["k", "n", "max_resistance", "bound", "ok"], rows, checks


def _parse_product(text: str) -> tuple[Graph, Graph]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(
            "--product: expected two family specs joined by a comma, "
            "e.g. cycle:4,cycle:16"
        )
    return family(parts[0].strip()), family(parts[1].strip())


def _run_product_theorem(spec: dict, workers: int):
    g, h = _parse_product(spec["product"] or "cycle:4,cycle:16")
    spec["product"] = f"{g.name},{h.name}"
    trials, seed = spec["trials"], spec["seed"]

    if h.n <= COVER_CAP:
        cov_h = float(exact_cover_times(build_kernel(h)).max())
        cov_h_stderr, cov_h_method = 0.0, "exact"
    else:
        est = simulate(h, WalkConfig(stop="cover"), trials, seed, workers=workers)
        cov_h, cov_h_stderr, cov_h_method = est.mean, est.stderr, "mc"
    best = simulate(
        h, WalkConfig(stop="blanket-cover"), trials, _sub_seed(seed, 1), workers=workers
    )
    bcov_h = best.mean
    if g.n <= COVER_CAP:
        cov_g = float(exact_cover_times(build_kernel(g)).max())
    else:
        cov_g = simulate(
            g, WalkConfig(stop="cover"), trials, _sub_seed(seed, 2), workers=workers
        ).mean

    bounds = theorem_main_bounds(g, h, cov_h=cov_h, bcov_h=bcov_h, cov_g=cov_g)
    prod = cartesian_product(g, h)
    mc = simulate(prod, WalkConfig(stop="cover"), trials, _sub_seed(seed, 3), workers=workers)

    rows = [
        ["first-factor", g.name],
        ["second-factor", h.name],
        ["product-vertices", prod.n],
        ["cov-h", cov_h],
        ["cov-h-stderr", cov_h_stderr],
        ["cov-h-method", cov_h_method],
        ["bcov-h", bcov_h],
        ["bcov-h-stderr", best.stderr],
        ["cov-g", cov_g],
        ["lower", bounds.lower],
        ["upper-value", bounds.upper_value],
        ["upper-symbolic", bounds.upper_symbolic],
        ["precondition-ok", bounds.precondition_ok],
        ["mc-cover-mean", mc.mean],
        ["mc-cover-stderr", mc.stderr],
        ["mc-trials", trials],
        ["mc-censored", mc.censored],
    ]
    margin = mc.mean + 4.0 * mc.stderr - bounds.lower
    checks = [
        _check(
            "lower-below-mc-cover",
            margin >= 0.0,
            margin,
            "factor lower bound <= MC product cover + 4 stderr",
        ),
        _check(
            "upper-reported-only",
            True,
            bounds.precondition_ok,
            "upper bracket carries an unknown universal constant; reported, not asserted",
        ),
    ]
    return ["metric", "value"], rows, checks


def _run_degseq_cover(spec: dict, workers: int):
    dspec = spec["degseq"] or "regular:3"
    spec["degseq"] = dspec
    trials, seed = spec["trials"], spec["seed"]
    if dspec.startswith("regular:"):
        try:
            r = int(dspec.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"--degseq: bad regular spec {dspec!r}") from exc
        ns = _ladder(spec["n"] or [500, 1000, 2000], r + 1, _DEGSEQ_CAP, "degseq-cover")
        odd = [n for n in ns if n * r % 2]
        if odd:
            raise ParameterError(f"--n: {r}-regular on {odd[0]} vertices has odd degree sum")
        seqs = (regular_sequence(n, r) for n in ns)  # each built when its rung runs
    else:
        if spec["n"] is not None:
            raise ParameterError("--n does not apply with a degree file in --degseq; the file fixes n")
        p = Path(dspec)
        if not p.is_file():
            raise ParameterError(
                f"--degseq: expected 'regular:r' or a degree file, got {dspec!r}"
            )
        seq = read_degree_file(p)
        if seq.n > _DEGSEQ_CAP:
            raise SizeCapError(f"--degseq: degseq-cover capped at n={_DEGSEQ_CAP}, got {seq.n}")
        ns = [seq.n]
        seqs = [seq]
    spec["n"] = ns

    rows: list[list] = []
    ratios: list[float] = []
    checks: list[dict] = []
    for j, (n, seq) in enumerate(zip(ns, seqs)):
        graph, resamples = _connected_simple_sample(seq, seed, 101 * j)
        predicted = predicted_cover(seq)
        est = simulate(
            graph,
            WalkConfig(stop="cover", scheme=spec["scheme"], lazy=spec["lazy"]),
            trials,
            _sub_seed(seed, 101 * j),
            workers=workers,
        )
        ratio = est.mean / predicted
        ratios.append(ratio)
        rows.append(
            [n, seq.theta, trials, est.mean, est.stderr, est.censored, predicted, ratio, resamples]
        )
        checks.append(
            _check(
                f"cover-ratio-n{n}",
                0.8 <= ratio <= 1.2,
                ratio,
                "mean cover / predicted in [0.8, 1.2]",
            )
        )
    if len(ratios) >= 2:
        drift = abs(ratios[-1] - 1.0) - abs(ratios[0] - 1.0)
        checks.append(
            _check(
                "ratio-moves-toward-one",
                drift <= 0.02,
                drift,
                "endpoint ratio at the largest n is no farther from 1 (slack 0.02)",
                0.02,
            )
        )
    header = [
        "n",
        "avg_degree",
        "trials",
        "mean_cover",
        "stderr",
        "censored",
        "predicted",
        "ratio",
        "resamples",
    ]
    return header, rows, checks


def _run_conductance_survey(spec: dict):
    count = spec["trials"]
    seed = spec["seed"]
    rows: list[list] = []
    min_phi = math.inf
    min_margin = math.inf
    sweep_ok = True
    for i in range(count):
        seq = _nice_band_sequence(20, 3, 6, seed, 1000 + i)
        graph, _ = _connected_simple_sample(seq, seed, i)
        js = jerrum_sinclair_check(graph)
        sweep = conductance_sweep(build_kernel(graph))
        min_phi = min(min_phi, js["phi"])
        min_margin = min(min_margin, js["lower_margin"], js["upper_margin"])
        sweep_ok = sweep_ok and sweep.phi >= js["phi"] - 1e-12
        rows.append(
            [
                i,
                graph.n,
                graph.m,
                "exact",
                js["phi"],
                sweep.phi,
                js["lower_margin"],
                js["upper_margin"],
            ]
        )
    # larger sizes use the sweep value alone; surveyed, never asserted
    for j, big in enumerate((100, 200)):
        seq = regular_sequence(big, 3)
        graph, _ = _connected_simple_sample(seq, seed, 500 + j)
        sweep = conductance_sweep(build_kernel(graph))
        rows.append([count + j, graph.n, graph.m, "sweep-only", None, sweep.phi, None, None])
    checks = [
        _check(
            "phi-above-1-over-100",
            min_phi > 0.01,
            min_phi,
            "exact conductance > 1/100 on every sampled graph",
            0.01,
        ),
        _check(
            "spectral-sandwich-margins",
            min_margin >= -1e-9,
            min_margin,
            "phi^2/2 <= lazy gap <= 2 phi with margin >= -1e-9",
            -1e-9,
        ),
        _check(
            "sweep-dominates-exact",
            sweep_ok,
            sweep_ok,
            "sweep conductance is an upper bound for the exact minimum",
        ),
    ]
    header = ["index", "n", "m", "method", "phi_exact", "phi_sweep", "lower_margin", "upper_margin"]
    return header, rows, checks


def _run_p_simple(spec: dict):
    attempts = spec["trials"]
    seed = spec["seed"]
    rows: list[list] = []
    worst = 0.0
    for k, (r, n) in enumerate([(3, 50), (3, 100), (4, 50), (4, 100)]):
        seq = regular_sequence(n, r)
        cell_seed = _sub_seed(seed, 1000 * k)
        blocks = _pairing_blocks(seq, cell_seed, attempts, attempts)
        simple = sum(int(_simple_rows(block, n).sum()) for _, block in blocks)
        emp = simple / attempts
        pred = predicted_p_simple(seq)
        gap = abs(emp - pred)
        worst = max(worst, gap)
        rows.append([r, n, attempts, emp, pred, gap, gap <= 0.03])
    checks = [
        _check(
            "simple-probability",
            worst <= 0.03,
            worst,
            "empirical simple fraction within 0.03 of exp(-nu/2 - nu^2/4)",
            0.03,
        )
    ]
    header = ["r", "n", "attempts", "empirical", "predicted", "abs_gap", "ok"]
    return header, rows, checks


def _run_scheme_speedup(spec: dict):
    g = _resolve_graph(spec, default="lollipop:90")
    rep = speedup(g, spec["trials"], spec["seed"])
    order = [
        "graph",
        "trials",
        "seed",
        "start",
        "uniform_mean",
        "uniform_stderr",
        "mindeg_mean",
        "mindeg_stderr",
        "ratio",
        "stderr",
        "z_score",
    ]
    rows = [[key, rep[key]] for key in order]
    checks = [
        _check(
            "three-sigma-speedup",
            rep["ratio"] > 1.0 and rep["z_score"] > 3.0,
            rep["z_score"],
            "min-degree weighting covers faster than uniform, z > 3",
            3.0,
        )
    ]
    return ["metric", "value"], rows, checks


def _run_st_connect(spec: dict):
    g = _resolve_graph(spec, default="path:32")
    runs, seed = spec["trials"], spec["seed"]
    s, t = 0, g.n - 1
    reachable = bool(g.bfs_distances(s)[t] >= 0)
    rows: list[list] = []
    hits = 0
    for i, res in enumerate(_st_answers(g, s, t, seed, 0, runs)):
        hits += res["connected"]
        rows.append([i, res["connected"], res["steps"], res["budget"]])
    frac = hits / runs
    if reachable:
        checks = [
            _check(
                "success-fraction",
                frac >= 0.45,
                frac,
                "declares a connected pair connected at least 45% of the time",
                0.45,
            )
        ]
    else:
        checks = [
            _check(
                "no-false-positives",
                frac == 0.0,
                frac,
                "never declares a separated pair connected",
            )
        ]
    return ["run", "connected", "steps", "budget"], rows, checks


# --- registry ---

EXPERIMENTS: dict[str, dict] = {
    "closed-forms": {
        "runner": _run_closed_forms,
        "params": frozenset({"n"}),
        "trials": None,
        "claim": "Exact hitting and cover times on complete graphs, paths, and "
        "cycles match their closed-form expressions: hitting n-1 and cover "
        "(n-1)h(n-1) on the complete graph, hitting j^2-i^2 and cover "
        "k(L-k)+L^2 from vertex k on the path, hitting r(n-r) and cover "
        "n(n-1)/2 on the cycle.",
        "inputs": f"--n size ladder within 2..{COVER_CAP} (default 2..10); --seed for bookkeeping only.",
        "rule": "every value matches its formula to 1e-9 relative error.",
    },
    "bounds-sandwich": {
        "runner": _run_bounds_sandwich,
        "params": frozenset(),
        "trials": None,
        "claim": "On every built-in graph with at most 13 vertices, the exact "
        "worst-start cover time sits between the best subset lower bound and "
        "the smallest of three upper bounds: max-hitting times harmonic, the "
        "resistance-tree refinement, and the spanning-tree bound.",
        "inputs": "none beyond --seed; the graph set is fixed.",
        "rule": "zero violations on either side.",
    },
    "commute-identity": {
        "runner": _run_commute_identity,
        "params": frozenset({"trials"}),
        "trials": 200,
        "claim": "Round-trip commute time between two vertices equals the graph "
        "volume times the effective resistance between them, on random "
        "weighted multigraphs with loops and parallel edges.",
        "inputs": "--trials graphs (default 200), sizes up to 40; --seed.",
        "rule": "per-pair relative gap at most 1e-6 on every graph.",
    },
    "grid-resistance": {
        "runner": _run_grid_resistance,
        "params": frozenset({"n"}),
        "trials": None,
        "claim": "On the k-by-k grid the largest pairwise effective resistance "
        "stays below eight times the k-th harmonic number.",
        "inputs": "--n ladder of k values (default 2..20); --seed unused.",
        "rule": "the strict inequality holds at every k.",
    },
    "product-theorem": {
        "runner": _run_product_theorem,
        "params": frozenset({"product", "trials", "workers"}),
        "trials": 300,
        "claim": "Cover-time bounds for a Cartesian product, computed from "
        "factor statistics alone, bracket a Monte Carlo estimate of the "
        "product's cover time. The upper bracket holds up to an unknown "
        "universal constant and is reported, never asserted.",
        "inputs": "--product two families (default cycle:4,cycle:16); --trials "
        "(default 300); --seed; --workers.",
        "rule": "lower bound <= MC mean + 4 stderr.",
    },
    "degseq-cover": {
        "runner": _run_degseq_cover,
        "params": frozenset({"degseq", "n", "trials", "scheme", "lazy", "workers"}),
        "trials": 200,
        "claim": "Cover times of random graphs with a prescribed degree "
        "sequence track the predicted (d-1)/(d-2) * (theta/d) * n ln n "
        "growth, where d is the effective minimum degree and theta the "
        "average degree; for random 3-regular graphs this is 2 n ln n.",
        "inputs": "--degseq regular:r or a degree file (default regular:3); "
        "--n ladder within r+1..1000000 (default 500,1000,2000), refused with "
        "a degree file, which fixes n; --trials per size (default 200); --workers.",
        "rule": "mean cover / predicted lands in [0.8, 1.2] at every size and "
        "the largest size is no farther from 1 than the smallest.",
    },
    "conductance-survey": {
        "runner": _run_conductance_survey,
        "params": frozenset({"trials"}),
        "trials": 50,
        "claim": "Random simple graphs on 20 vertices with degrees between 3 "
        "and 6 are expanders: the exact conductance exceeds 1/100 and the "
        "lazy spectral gap sits between phi^2/2 and 2 phi. Larger sizes are "
        "surveyed with the cheaper sweep value only.",
        "inputs": "--trials sampled graphs (default 50); --seed.",
        "rule": "every exact conductance > 0.01 and both sandwich margins "
        ">= -1e-9; sweep rows are informational.",
    },
    "p-simple": {
        "runner": _run_p_simple,
        "params": frozenset({"trials"}),
        "trials": 10000,
        "claim": "The fraction of degree-stub pairings that produce a simple "
        "graph matches exp(-nu/2 - nu^2/4), where nu is the sum of d(d-1) "
        "over vertices divided by the edge count.",
        "inputs": "fixed grid of 3- and 4-regular sequences at n in {50, 100}; "
        "--trials attempts per cell (default 10000); --seed.",
        "rule": "empirical fraction within 0.03 of the prediction in every cell.",
    },
    "scheme-speedup": {
        "runner": _run_scheme_speedup,
        "params": frozenset({"family", "graph_file", "trials"}),
        "trials": 150,
        "claim": "Weighting every edge by the inverse smaller endpoint degree "
        "speeds up covering graphs with degree imbalance; on a regular graph "
        "the scheme changes nothing and the ratio is exactly 1.",
        "inputs": "--family or --graph-file (default lollipop:90); --trials "
        "cover trials per scheme (default 150); --seed.",
        "rule": "estimated speedup ratio exceeds 1 by more than three "
        "standard errors.",
    },
    "st-connect-demo": {
        "runner": _run_st_connect,
        "params": frozenset({"family", "graph_file", "trials"}),
        "trials": 200,
        "claim": "A random walk of 8 n m steps, or of twice the weighted "
        "spanning-tree cover bound when that is larger, decides s-t "
        "connectivity with one-sided error: a yes answer is always correct, "
        "and on a connected pair the walk finds the target at least half "
        "the time.",
        "inputs": "--family or --graph-file (default path:32); endpoints are "
        "vertex 0 and the last vertex; --trials runs (default 200); --seed.",
        "rule": "success fraction >= 0.45 on a connected pair; exactly 0 on "
        "a separated one.",
    },
}


def _reject_unused_flags(ctx: click.Context, experiment: str, accepted: frozenset) -> None:
    # a flag the experiment never reads could not change any result, so
    # accepting it would put a dead value in the embedded spec; refuse instead.
    # Every experiment takes the four parameters left out here.
    given = {
        name
        for name in ctx.params.keys() - {"experiment", "seed", "out", "fmt"}
        if ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE
    }
    extras = sorted(given - accepted)
    if extras:
        flags = [f"--{name.replace('_', '-')}" for name in sorted(accepted)]
        takes = ", ".join(flags) or "no experiment flags"
        raise ParameterError(
            f"--{extras[0].replace('_', '-')} does not apply to {experiment}; it takes {takes}"
        )


# --- commands ---


@click.group()
def main() -> None:
    """Random-walk laboratory: exact formulas, bounds, and experiments."""


@main.command(name="run")
@click.argument("experiment")
@click.option("--seed", required=True, type=int, help="Master seed; every result is a function of it.")
@click.option("--family", default=None, help="Graph family, e.g. cycle:12 or grid2d:4,5.")
@click.option("--graph-file", default=None, help="Path to an edge-list graph file.")
@click.option("--product", default=None, help="Two families joined by a comma, e.g. cycle:4,cycle:16.")
@click.option("--degseq", default=None, help="Degree input: regular:r or a path to a degree file.")
@click.option("--scheme", type=click.Choice(SCHEMES), default="uniform", help="Edge weighting applied before walking.")
@click.option("--lazy", is_flag=True, default=False, help="Walk the lazy kernel (hold with probability 1/2).")
@click.option("--trials", type=int, default=None, help="Trials, attempts, or graph count; experiment-specific.")
@click.option("--n", default=None, help="Size or ladder: 8, 2..10, or 500,1000,2000.")
@click.option("--out", default=None, help="Output base path; writes <out>.csv and <out>.json.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "both"]), default="both", help="Which artifacts to write.")
@click.option("--workers", type=int, default=1, help="Worker processes for Monte Carlo chunks.")
@click.pass_context
def run_command(
    ctx: click.Context,
    experiment: str,
    seed: int,
    out: str | None,
    fmt: str,
    workers: int,
    **flags,
) -> None:
    """Run one experiment; write CSV rows and a JSON summary."""
    started = time.perf_counter()
    try:
        if experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ParameterError(f"unknown experiment {experiment!r}; known: {known}")
        entry = EXPERIMENTS[experiment]
        _reject_unused_flags(ctx, experiment, entry["params"])
        if flags["trials"] is None:
            flags["trials"] = entry["trials"]
        if flags["trials"] is not None and flags["trials"] < 1:
            raise ParameterError("--trials must be positive")
        if workers < 1:
            raise ParameterError("--workers must be positive")
        # checked here, not at the first stream: an experiment that draws
        # none would otherwise accept the seed and write it into its spec
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
        base = out or f"walklab-{experiment}"
        # checked here, not at the write: a run can take minutes, and its
        # result would be lost to a typo in the destination
        folder = Path(base).parent
        if not folder.is_dir():
            raise ParameterError(f"--out needs an existing directory; {folder} is not one")
        if not os.access(folder, os.W_OK | os.X_OK):
            raise ParameterError(f"--out directory {folder} is not writable")
        # the spec records exactly the parameters that can influence a
        # computed value; destination, format, and worker count cannot
        # (estimates are worker-invariant by construction), so they stay out
        # and re-runs to a different path are still byte-identical
        spec = {"experiment": experiment, "seed": seed, **flags}
        spec["n"] = _parse_sizes(spec["n"], "--n")
        if "workers" in entry["params"]:
            header, rows, checks = entry["runner"](spec, workers)
        else:
            header, rows, checks = entry["runner"](spec)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        raise SystemExit(2)
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        raise SystemExit(3)

    runtime = time.perf_counter() - started
    summary = {"spec": spec, "checks": checks, "runtime_seconds": runtime}
    artifacts = []
    if fmt in ("csv", "both"):
        artifacts.append((Path(f"{base}.csv"), _csv_body(spec, header, rows)))
    if fmt in ("json", "both"):
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
        artifacts.append((Path(f"{base}.json"), text + "\n"))
    for path, text in artifacts:
        try:
            path.write_text(text)
        except OSError as exc:
            # the directory passed its check, but the file itself can still
            # be refused: a directory of that name, a full disk
            click.echo(f"input error: cannot write {path}: {exc.strerror or exc}", err=True)
            raise SystemExit(2)
        click.echo(f"wrote {path}")

    for ch in checks:
        status = "PASS" if ch["passed"] else "FAIL"
        line = f"{status} {ch['name']}: observed={_cell(ch['observed'])} expected: {ch['expected']}"
        if ch["tolerance"] is not None:
            line += f" (tolerance {ch['tolerance']})"
        click.echo(line)
    passed = sum(ch["passed"] for ch in checks)
    click.echo(f"{experiment}: {passed}/{len(checks)} checks passed")
    raise SystemExit(0 if passed == len(checks) else 1)


@main.command(name="describe")
@click.argument("experiment", required=False)
def describe_command(experiment: str | None) -> None:
    """Explain an experiment: its claim, inputs, and pass rule."""
    if experiment is None:
        for name in sorted(EXPERIMENTS):
            first = EXPERIMENTS[name]["claim"].split(". ")[0].rstrip(".")
            click.echo(f"{name}: {first}.")
        return
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        click.echo(f"input error: unknown experiment {experiment!r}; known: {known}", err=True)
        raise SystemExit(2)
    entry = EXPERIMENTS[experiment]
    click.echo(experiment)
    click.echo(f"  claim: {entry['claim']}")
    click.echo(f"  inputs: {entry['inputs']}")
    click.echo(f"  pass rule: {entry['rule']}")


if __name__ == "__main__":
    main()
