"""Command-line laboratory: canned experiments with reproducible outputs.

Every experiment resolves its inputs into a spec dictionary, computes CSV
rows plus the observed value of each check its registry entry declares,
and writes two artifacts: `<out>.csv`, whose body is a pure function of
the spec so re-runs are byte-identical, and `<out>.json` with the same
spec, the check verdicts, and the runtime. One judge turns each declared
check and its observed value into a verdict.
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
    _VERTEX_CAP,
    Graph,
    binary_tree,
    cartesian_product,
    complete,
    cycle,
    family,
    family_size,
    grid2d,
    lollipop,
    path,
    random_connected_graph,
    star,
    text_header,
    torus2d,
)
from .product import theorem_main_bounds
from .rng import substream
from .spectral import COVER_CAP, build_kernel, exact_cover_times, exact_hitting
from .walks import WalkConfig, _st_answers, _st_plain_budget, simulate, speedup
from .weighting import SCHEMES

__all__ = ["main"]


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


# each comparison takes (observed, threshold); a band's threshold is (low, high)
_COMPARISONS = {
    "<=": lambda x, t: x <= t,
    ">=": lambda x, t: x >= t,
    ">": lambda x, t: x > t,
    "<": lambda x, t: x < t,
    "==": lambda x, t: x == t,
    "in": lambda x, t: t[0] <= x <= t[1],
    "reported": lambda x, t: True,
}


def _rule(statistic: str, comparison: str, threshold) -> str:
    """A declared check as the text its record's `expected` and `describe` show."""
    if comparison == "reported":
        return f"{statistic}; reported, not asserted"
    if comparison == "in":
        return f"{statistic} in [{threshold[0]}, {threshold[1]}]"
    return f"{statistic} {comparison} {threshold}"


def _judge(declared: dict, observed: dict) -> list[dict]:
    """One record per declared check the run observed, in declared order.

    A name holding `*` is judged once per (suffix, value) pair the runner
    gives, the suffix taking the `*`'s place.
    """
    records = []
    for name, (statistic, comparison, threshold) in declared.items():
        if name not in observed:
            continue
        pairs = observed[name] if "*" in name else [("", observed[name])]
        for suffix, value in pairs:
            if isinstance(value, (np.floating, np.integer, np.bool_)):
                value = value.item()
            passed = _COMPARISONS[comparison](value, threshold)
            if isinstance(value, float) and not math.isfinite(value):
                value = _cell(value)  # strict JSON has no NaN or infinity
            records.append(
                {
                    "name": name.replace("*", str(suffix)),
                    "passed": bool(passed),
                    "observed": value,
                    "expected": _rule(statistic, comparison, threshold),
                    "tolerance": threshold,
                }
            )
    return records


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


def _resolve_graph(spec: dict, default: str, screen=None) -> Graph:
    """The --family or --graph-file graph, else the default.

    screen(name, n, m) sees the graph's size first: a family's closed form,
    or a graph file's header line, read before the rest of the file.
    """
    fam, path_arg = spec.get("family"), spec.get("graph_file")
    if fam is not None and path_arg is not None:
        raise ParameterError("give at most one of --family and --graph-file")
    if path_arg is not None:
        p = Path(path_arg)
        if not p.is_file():
            raise ParameterError(f"--graph-file: no such file {path_arg!r}")
        try:
            if screen is not None:
                with p.open(encoding="utf-8") as handle:
                    screen(p.stem, *text_header(handle))
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ParameterError(f"--graph-file: {path_arg!r} is not UTF-8 text") from None
        except OSError as exc:
            raise ParameterError(f"--graph-file: cannot read {path_arg!r}: {exc.strerror or exc}") from None
        g = Graph.from_text(text, name=p.stem)
    else:
        fam = default if fam is None else fam
        if screen is not None:
            screen(*family_size(fam))
        g = family(fam)
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
    ns = spec["n"] = _ladder(spec["n"], 2, COVER_CAP, "exact cover time")
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

    header = ["family", "n", "quantity", "observed", "expected", "rel_err"]
    return header, rows, {"*-closed-forms": list(worst.items())}


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
    checks = EXPERIMENTS["bounds-sandwich"]["checks"]
    low_slack, up_slack = checks["lower-bound-excess"][2], checks["upper-bound-excess"][2]
    rows: list[list] = []
    low_worst = up_worst = -math.inf
    for g in _standard_small_graphs():
        kern = build_kernel(g)
        hitting = exact_hitting(kern)
        exact = float(exact_cover_times(kern).max())
        lower = matthews_lower(g, hitting=hitting)
        uppers = [matthews_upper(g, hitting=hitting), merst_bound(g).bound, spanning_tree_bound(g)[0]]
        low_excess = (lower - exact) / max(1.0, exact)
        up_excess = (exact - min(uppers)) / max(1.0, exact)
        low_worst, up_worst = max(low_worst, low_excess), max(up_worst, up_excess)
        rows.append(
            [g.name, g.n, g.m, exact, lower, *uppers, min(uppers), low_excess <= low_slack, up_excess <= up_slack]
        )
    observed = {
        "lower-bound-excess": low_worst,
        "upper-bound-excess": up_worst,
        "graphs-covered": len(rows),
    }
    header = [
        "graph", "n", "m", "exact_cover", "lower", "matthews_upper", "merst_upper", "spanning_upper",
        "min_upper", "ok_lower", "ok_upper",
    ]
    return header, rows, observed


def _run_commute_identity(spec: dict):
    count = spec["trials"]
    tolerance = EXPERIMENTS["commute-identity"]["checks"]["commute-identity"][2]
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
        rows.append([i, n, g.m, gap, gap <= tolerance])
    return ["index", "n", "m", "max_rel_gap", "ok"], rows, {"commute-identity": worst}


def _run_grid_resistance(spec: dict):
    ks = spec["n"] = _ladder(spec["n"], 2, GRID_CAP, "grid monitor")
    factor = EXPERIMENTS["grid-resistance"]["checks"]["grid-resistance-bound"][2]
    rows = []
    worst = 0.0
    for k in ks:
        largest, h = grid_resistance_monitor(k), harmonic_number(k)
        worst = max(worst, largest / h)
        rows.append([k, k * k, largest, factor * h, largest < factor * h])
    return ["k", "n", "max_resistance", "bound", "ok"], rows, {"grid-resistance-bound": worst}


def _parse_product(text: str) -> tuple[Graph, Graph]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(
            "--product: expected two family specs joined by a comma, "
            "e.g. cycle:4,cycle:16"
        )
    return family(parts[0].strip()), family(parts[1].strip())


def _run_product_theorem(spec: dict, workers: int):
    g, h = _parse_product(spec["product"])
    spec["product"] = f"{g.name},{h.name}"
    for f in (g, h):  # refused here, before the other factor walks
        if f.n < 2:
            raise ParameterError(f"--product: factor {f.name} needs at least two vertices")
    trials, seed = spec["trials"], spec["seed"]
    prod = cartesian_product(g, h)  # refused above the graph caps before any factor walks

    def cover(f: Graph, offset: int) -> tuple[float, float, str]:
        if f.n <= COVER_CAP:
            return float(exact_cover_times(build_kernel(f)).max()), 0.0, "exact"
        est = simulate(f, WalkConfig(stop="cover"), trials, _sub_seed(seed, offset), workers=workers)
        return est.mean, est.stderr, "mc"

    cov_h, cov_h_stderr, cov_h_method = cover(h, 0)
    best = simulate(
        h, WalkConfig(stop="blanket-cover"), trials, _sub_seed(seed, 1), workers=workers
    )
    bcov_h = best.mean
    cov_g = cover(g, 2)[0]

    bounds = theorem_main_bounds(g, h, cov_h=cov_h, bcov_h=bcov_h, cov_g=cov_g)
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
    observed = {
        "lower-below-mc-cover": mc.mean + 4.0 * mc.stderr - bounds.lower,
        "upper-reported-only": bounds.precondition_ok,
    }
    return ["metric", "value"], rows, observed


def _run_degseq_cover(spec: dict, workers: int):
    dspec = spec["degseq"]
    trials, seed = spec["trials"], spec["seed"]
    if dspec.startswith("regular:"):
        try:
            r = int(dspec.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"--degseq: bad regular spec {dspec!r}") from exc
        ns = _ladder(spec["n"] or [500, 1000, 2000], r + 1, _VERTEX_CAP, "degseq-cover")
        odd = [n for n in ns if n * r % 2]
        if odd:
            raise ParameterError(f"--n: {r}-regular on {odd[0]} vertices has odd degree sum")
        seqs = (regular_sequence(n, r) for n in ns)  # each built when its rung runs
    else:
        p = Path(dspec)
        if not p.is_file():
            raise ParameterError(
                f"--degseq: expected 'regular:r' or a degree file, got {dspec!r}"
            )
        if spec["n"] is not None:
            raise ParameterError("--n does not apply with a degree file in --degseq; the file fixes n")
        seq = read_degree_file(p)
        if seq.n > _VERTEX_CAP:
            raise SizeCapError(f"--degseq: degseq-cover capped at n={_VERTEX_CAP}, got {seq.n}")
        ns = [seq.n]
        seqs = [seq]
    spec["n"] = ns

    rows: list[list] = []
    ratios: list[float] = []
    for j, (n, seq) in enumerate(zip(ns, seqs)):
        graph, resamples = _connected_simple_sample(seq, seed, 101 * j)
        predicted = predicted_cover(seq)
        config = WalkConfig(stop="cover", scheme=spec["scheme"])
        est = simulate(graph, config, trials, _sub_seed(seed, 101 * j), workers=workers)
        ratio = est.mean / predicted
        ratios.append(ratio)
        rows.append(
            [n, seq.theta, trials, est.mean, est.stderr, est.censored, predicted, ratio, resamples]
        )
    observed: dict = {"cover-ratio-n*": list(zip(ns, ratios))}
    if len(ratios) >= 2:
        observed["ratio-moves-toward-one"] = abs(ratios[-1] - 1.0) - abs(ratios[0] - 1.0)
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
    return header, rows, observed


def _run_conductance_survey(spec: dict):
    count = spec["trials"]
    seed = spec["seed"]
    rows: list[list] = []
    min_phi = math.inf
    min_margin = math.inf
    sweep_excess = -math.inf
    for i in range(count):
        seq = _nice_band_sequence(20, 3, 6, seed, 1000 + i)
        graph, _ = _connected_simple_sample(seq, seed, i)
        js = jerrum_sinclair_check(graph)
        sweep = conductance_sweep(build_kernel(graph))
        min_phi = min(min_phi, js["phi"])
        min_margin = min(min_margin, js["lower_margin"], js["upper_margin"])
        sweep_excess = max(sweep_excess, js["phi"] - sweep.phi)
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
    observed = {
        "phi-above-1-over-100": min_phi,
        "spectral-sandwich-margins": min_margin,
        "sweep-dominates-exact": sweep_excess,
    }
    header = ["index", "n", "m", "method", "phi_exact", "phi_sweep", "lower_margin", "upper_margin"]
    return header, rows, observed


def _run_p_simple(spec: dict):
    attempts = spec["trials"]
    seed = spec["seed"]
    tolerance = EXPERIMENTS["p-simple"]["checks"]["simple-probability"][2]
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
        rows.append([r, n, attempts, emp, pred, gap, gap <= tolerance])
    header = ["r", "n", "attempts", "empirical", "predicted", "abs_gap", "ok"]
    return header, rows, {"simple-probability": worst}


def _run_scheme_speedup(spec: dict, workers: int):
    g = _resolve_graph(spec, default="lollipop:90")
    rep = speedup(g, spec["trials"], spec["seed"], workers=workers)
    rows = [[key, value] for key, value in rep.items()]
    return ["metric", "value"], rows, {"three-sigma-speedup": rep["z_score"]}


def _run_st_connect(spec: dict):
    g = _resolve_graph(spec, default="path:32", screen=_st_plain_budget)
    runs, seed = spec["trials"], spec["seed"]
    s, t = 0, g.n - 1
    reachable = bool(g.bfs_distances(s)[t] >= 0)
    rows: list[list] = []
    hits = 0
    for i, res in enumerate(_st_answers(g, s, t, seed, 0, runs)):
        hits += res["connected"]
        rows.append([i, res["connected"], res["steps"], res["budget"]])
    check = "success-fraction" if reachable else "no-false-positives"
    return ["run", "connected", "steps", "budget"], rows, {check: hits / runs}


# --- registry ---

# `flags` maps each flag an experiment takes to its default, and `checks`
# maps each check's name to (statistic, comparison, threshold): the one
# statement of what the experiment asserts, which `_judge` applies to the
# runner's observed values and `describe` prints.
EXPERIMENTS: dict[str, dict] = {
    "closed-forms": {
        "runner": _run_closed_forms,
        "flags": {"n": "2..10"},
        "claim": "Exact hitting and cover times on complete graphs, paths, and "
        "cycles match their closed-form expressions: hitting n-1 and cover "
        "(n-1)h(n-1) on the complete graph, hitting j^2-i^2 and cover "
        "k(L-k)+L^2 from vertex k on the path, hitting r(n-r) and cover "
        "n(n-1)/2 on the cycle.",
        "inputs": f"--n size ladder within 2..{COVER_CAP}; --seed for bookkeeping only.",
        "checks": {"*-closed-forms": ("max relative error", "<=", 1e-9)},
    },
    "bounds-sandwich": {
        "runner": _run_bounds_sandwich,
        "flags": {},
        "claim": "On every built-in graph with at most 13 vertices, the exact "
        "worst-start cover time sits between the best subset lower bound and "
        "the smallest of three upper bounds: max-hitting times harmonic, the "
        "resistance-tree refinement, and the spanning-tree bound.",
        "inputs": "none beyond --seed; the graph set is fixed.",
        "checks": {
            "lower-bound-excess": ("max (matthews lower - exact worst-start cover) / max(1, exact)", "<=", 1e-9),
            "upper-bound-excess": ("max (exact - min(matthews, resistance-tree, spanning-tree)) / max(1, exact)", "<=", 1e-9),
            "graphs-covered": ("graphs surveyed, the built-ins with at most 13 vertices", ">=", 60),
        },
    },
    "commute-identity": {
        "runner": _run_commute_identity,
        "flags": {"trials": 200},
        "claim": "Round-trip commute time between two vertices equals the graph "
        "volume times the effective resistance between them, on random "
        "weighted multigraphs with loops and parallel edges.",
        "inputs": "--trials graphs, sizes up to 40; --seed.",
        "checks": {"commute-identity": ("max per-pair relative gap, commute time to volume * resistance", "<=", 1e-6)},
    },
    "grid-resistance": {
        "runner": _run_grid_resistance,
        "flags": {"n": "2..20"},
        "claim": "On the k-by-k grid the largest pairwise effective resistance "
        "stays below eight times the k-th harmonic number.",
        "inputs": "--n ladder of k values; --seed unused.",
        "checks": {"grid-resistance-bound": ("max over k of the largest pairwise resistance on the k x k grid / h(k)", "<", 8)},
    },
    "product-theorem": {
        "runner": _run_product_theorem,
        "flags": {"product": "cycle:4,cycle:16", "trials": 300, "workers": 1},
        "claim": "Cover-time bounds for a Cartesian product, computed from "
        "factor statistics alone, bracket a Monte Carlo estimate of the "
        "product's cover time. The upper bracket holds up to an unknown "
        "universal constant and is reported, never asserted.",
        "inputs": "--product two families; --trials; --seed; --workers.",
        "checks": {
            "lower-below-mc-cover": ("MC product cover + 4 stderr - factor lower bound", ">=", 0.0),
            "upper-reported-only": ("precondition of the upper bracket, whose constant is unknown", "reported", None),
        },
    },
    "degseq-cover": {
        "runner": _run_degseq_cover,
        # the --n ladder's default is the runner's: a degree file fixes n
        "flags": {"degseq": "regular:3", "n": None, "trials": 200, "scheme": "uniform", "workers": 1},
        "claim": "Cover times of random graphs with a prescribed degree "
        "sequence track the predicted (d-1)/(d-2) * (theta/d) * n ln n "
        "growth, where d is the effective minimum degree and theta the "
        "average degree; for random 3-regular graphs this is 2 n ln n.",
        "inputs": "--degseq regular:r or a degree file; --n ladder within "
        "r+1..1000000 (default 500,1000,2000), refused with a degree file, "
        "which fixes n; --trials per size; --workers.",
        "checks": {
            "cover-ratio-n*": ("mean cover / predicted", "in", (0.8, 1.2)),
            "ratio-moves-toward-one": ("|ratio - 1| at the largest n minus at the smallest", "<=", 0.02),
        },
    },
    "conductance-survey": {
        "runner": _run_conductance_survey,
        "flags": {"trials": 50},
        "claim": "Random simple graphs on 20 vertices with degrees between 3 "
        "and 6 are expanders: the exact conductance exceeds 1/100 and the "
        "lazy spectral gap sits between phi^2/2 and 2 phi. Larger sizes are "
        "surveyed with the cheaper sweep value only.",
        "inputs": "--trials sampled graphs; --seed.",
        "checks": {
            "phi-above-1-over-100": ("min exact conductance over the sampled graphs", ">", 0.01),
            "spectral-sandwich-margins": ("min margin of phi^2/2 <= lazy gap <= 2 phi on any graph", ">=", -1e-9),
            "sweep-dominates-exact": ("max exact phi - sweep phi", "<=", 1e-12),
        },
    },
    "p-simple": {
        "runner": _run_p_simple,
        "flags": {"trials": 10000},
        "claim": "The fraction of degree-stub pairings that produce a simple "
        "graph matches exp(-nu/2 - nu^2/4), where nu is the sum of d(d-1) "
        "over vertices divided by the edge count.",
        "inputs": "fixed grid of 3- and 4-regular sequences at n in {50, 100}; "
        "--trials attempts per cell; --seed.",
        "checks": {"simple-probability": ("max |simple fraction - exp(-nu/2 - nu^2/4)| over cells", "<=", 0.03)},
    },
    "scheme-speedup": {
        "runner": _run_scheme_speedup,
        # the default graph is the runner's: --family and --graph-file exclude each other
        "flags": {"family": None, "graph_file": None, "trials": 150, "workers": 1},
        "claim": "Weighting every edge by the inverse smaller endpoint degree "
        "speeds up covering graphs with degree imbalance; on a regular graph "
        "the scheme changes nothing and the ratio is exactly 1.",
        "inputs": "--family or --graph-file (default lollipop:90); --trials "
        "cover trials per scheme; --seed; --workers.",
        "checks": {"three-sigma-speedup": ("z-score (ratio - 1) / stderr, ratio uniform / mindeg cover", ">", 3.0)},
    },
    "st-connect-demo": {
        "runner": _run_st_connect,
        "flags": {"family": None, "graph_file": None, "trials": 200},
        "claim": "A random walk of 8 n m steps, or of twice the weighted "
        "spanning-tree cover bound when that is larger, decides s-t "
        "connectivity with one-sided error: a yes answer is always correct, "
        "and on a connected pair the walk finds the target at least half "
        "the time.",
        "inputs": "--family or --graph-file (default path:32); endpoints are "
        "vertex 0 and the last vertex; --trials runs; --seed.",
        # a run judges the one of these that its pair's connectivity selects
        "checks": {
            "success-fraction": ("fraction of runs declaring a connected pair connected", ">=", 0.45),
            "no-false-positives": ("fraction of runs declaring a separated pair connected", "==", 0.0),
        },
    },
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _reject_unused_flags(experiment: str, given: dict, takes: dict) -> None:
    # a flag the experiment never reads could not change any result, so
    # accepting it would put a dead value in the embedded spec; refuse instead.
    # `given` holds every flag but --seed, --out and --format, None unless given.
    extras = sorted(name for name, value in given.items() if value is not None and name not in takes)
    if extras:
        listed = ", ".join(_flag(name) for name in sorted(takes)) or "no experiment flags"
        raise ParameterError(f"{_flag(extras[0])} does not apply to {experiment}; it takes {listed}")


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
@click.option("--scheme", type=click.Choice(SCHEMES), default=None, help="Edge weighting applied before walking.")
@click.option("--trials", type=int, default=None, help="Trials, attempts, or graph count; experiment-specific.")
@click.option("--n", default=None, help="Size or ladder: 8, 2..10, or 500,1000,2000.")
@click.option("--out", default=None, help="Output base path; writes <out>.csv and <out>.json.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "both"]), default="both", help="Which artifacts to write.")
@click.option("--workers", type=int, default=None, help="Worker processes for Monte Carlo chunks.")
def run_command(experiment: str, seed: int, out: str | None, fmt: str, **flags) -> None:
    """Run one experiment; write CSV rows and a JSON summary."""
    started = time.perf_counter()
    try:
        if experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ParameterError(f"unknown experiment {experiment!r}; known: {known}")
        entry = EXPERIMENTS[experiment]
        _reject_unused_flags(experiment, flags, entry["flags"])
        # the spec records exactly the flags the experiment takes, each at
        # its given or default value, and so every parameter that can
        # influence a computed value; destination, format, and worker count
        # cannot (estimates are worker-invariant by construction), so they
        # stay out and re-runs to a different path are still byte-identical
        spec = {"experiment": experiment, "seed": seed}
        for name, default in entry["flags"].items():
            spec[name] = default if flags[name] is None else flags[name]
        if spec.get("trials", 1) < 1:
            raise ParameterError("--trials must be positive")
        workers = spec.pop("workers", 1)
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
        if "n" in spec:
            spec["n"] = _parse_sizes(spec["n"], "--n")
        if "workers" in entry["flags"]:
            header, rows, observed = entry["runner"](spec, workers)
        else:
            header, rows, observed = entry["runner"](spec)
        checks = _judge(entry["checks"], observed)
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
        click.echo(f"{status} {ch['name']}: observed={_cell(ch['observed'])} expected: {ch['expected']}")
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
    defaults = "; ".join(f"{_flag(name)} {value}" for name, value in entry["flags"].items() if value is not None)
    click.echo(f"  inputs: {entry['inputs']}" + (f" Defaults: {defaults}." if defaults else ""))
    click.echo("  pass rule:")
    for name, (statistic, comparison, threshold) in entry["checks"].items():
        click.echo(f"    {name}: {_rule(statistic, comparison, threshold)}")


if __name__ == "__main__":
    main()
