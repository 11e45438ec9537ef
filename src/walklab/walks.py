"""Monte Carlo walk engine with reproducible per-trial streams.

Determinism contract: trial i of a run with seed s draws from the
counter-based stream (s, 1 + i) and from nothing else, and `simulate`
reduces the per-trial step counts once, in trial order, with exact
integer sums. So any scheduling of trials over workers gives
bit-identical estimates.

Trials are cheap to start: a chunk of trials shares one Philox, reset
before trial i to key (s, 1 + i) at counter 0 with nothing buffered, which
is exactly the start of `substream(s, 1 + i)`. A walk draws its uniforms
in blocks of 64, 128, 256, ... up to BUFFER = 4096, then 4096 at a time,
so a 30-step walk draws 64 values, not 4096. Philox doubles do not depend
on how they are blocked, so every step reads the uniform it would read
from one long draw.

Every walk runs in one loop, `_walk`, driven by per-vertex visit quotas:
it stops at the first step where each vertex has been visited as often as
its quota asks (1 everywhere for cover, 1 at the target for hit,
ceil(reference * pi_v) for blanket-cover), or is censored at its step
budget. Blanket with delta > 0 adds the check counts[v] > delta * pi_v * t
on top of the cover quota. Visit frequencies are the same loop with no
quota, run for a fixed number of steps. `_plan` alone decides which
graphs a run takes: any graph in hit mode, a connected one in the modes
that put a quota on every vertex, and never an isolated start.

Next-step sampling uses an alias table at vertices of degree above 8 and
a cumulative-table bisection below that; one uniform drives either method.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .electrical import _kruskal, matthews_upper
from .errors import DisconnectedError, ParameterError, SizeCapError, UnsupportedInputError
from .graph import Graph
from .rng import _restart, substream
from .spectral import COVER_CAP, build_kernel, exact_cover_times, exact_hitting
from .weighting import apply_scheme

__all__ = [
    "WalkConfig",
    "EstimateRecord",
    "simulate",
    "trial_value",
    "st_connectivity",
    "empirical_visit_frequencies",
    "blanket_cover_reference",
    "estimates_csv",
]

STOP_MODES = ("cover", "hit", "blanket", "blanket-cover")
ALIAS_DEGREE = 8
CHUNK = 256
BUFFER = 4096


@dataclass(frozen=True)
class WalkConfig:
    """What one trial does and when it stops.

    stop:       "cover", "hit", "blanket", or "blanket-cover"
    start:      starting vertex
    target:     required for "hit"
    delta:      blanket parameter in [0, 1); 0 degenerates to cover
    reference:  cover-time reference for "blanket-cover"; computed from the
                graph when omitted (exact up to COVER_CAP vertices, the
                max-hitting cover bound above)
    budget:     hard step cap; trials that reach it are censored
    scheme:     edge weighting applied before walking
    lazy:       walk the lazy kernel (hold with probability 1/2)
    """

    stop: str = "cover"
    start: int = 0
    target: int | None = None
    delta: float = 0.0
    reference: float | None = None
    budget: int = 10**9
    scheme: str = "uniform"
    lazy: bool = False

    def quantity(self) -> str:
        if self.stop == "hit":
            return f"hit:{self.target}"
        if self.stop == "blanket":
            return f"blanket:{self.delta:g}"
        return self.stop


@dataclass(frozen=True)
class EstimateRecord:
    quantity: str
    graph_id: str
    scheme: str
    start: int
    trials: int
    seed: int
    mean: float
    var: float
    stderr: float
    censored: int


# --- sampling tables ---


def _vertex_tables(g: Graph, scheme: str, lazy: bool):
    """Per-vertex samplers and the stationary distribution of the weighted walk.

    A sampler is ("scan", nbrs, cumulative) or ("alias", nbrs, prob, alias);
    an isolated vertex has None, since no edge leads to it. pi is a list,
    and laziness does not change it; it needs g to have an edge.
    """
    h = apply_scheme(g, scheme)
    tables = []
    for v in range(h.n):
        pairs: dict[int, float] = {}
        for other, w in h.incidence[v]:
            pairs[other] = pairs.get(other, 0.0) + w
        if not pairs:
            tables.append(None)
            continue
        nbrs = sorted(pairs)
        weights = [pairs[x] for x in nbrs]
        total = sum(weights)
        probs = [w / total for w in weights]
        if lazy:
            probs = [0.5 * p for p in probs]
            if v in pairs:
                probs[nbrs.index(v)] += 0.5
            else:
                nbrs.append(v)
                probs.append(0.5)
        if len(nbrs) > ALIAS_DEGREE:
            prob, alias = _build_alias(probs)
            tables.append(("alias", nbrs, prob, alias))
        else:
            cum = []
            acc = 0.0
            for p in probs:
                acc += p
                cum.append(acc)
            cum[-1] = 1.0
            tables.append(("scan", nbrs, cum))
    return tables, (h.weighted_degrees / h.volume).tolist()


def _build_alias(probs: list[float]) -> tuple[list[float], list[int]]:
    n = len(probs)
    prob = [0.0] * n
    alias = [0] * n
    scaled = [p * n for p in probs]
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large + small:
        prob[i] = 1.0
    return prob, alias


# --- the walk ---


def _walk(tables, pos, rng, budget, counts, need, remaining, delta_pi=None) -> int | None:
    """Walk from pos until no vertex is below its visit quota; the only stepper.

    counts (the start position already counted) is updated in place;
    remaining is the number of vertices v with counts[v] < need[v]. With
    delta_pi the walk also needs counts[v] > delta_pi[v] * t at every v.
    Returns the stopping step, or None once budget steps pass without it.

    Step t reads the t-th uniform of rng. The uniforms come in blocks of
    64, then twice as many each time up to BUFFER, then BUFFER each: a
    short walk pays for few draws, a long one for few calls.
    Philox doubles drawn in blocks of any sizes equal one draw of their
    total, so the schedule never changes which uniform a step reads.
    """
    if remaining == 0:
        return 0
    blanket = delta_pi is not None
    buf: list[float] = []
    bi = 0
    block = 64
    t = 0
    while t < budget:
        if bi == len(buf):
            buf = rng.random(block).tolist()
            bi = 0
            block = min(2 * block, BUFFER)
        u = buf[bi]
        bi += 1
        table = tables[pos]
        if table[0] == "alias":
            _, nbrs, prob, alias = table
            x = u * len(nbrs)
            k = int(x)
            if k >= len(nbrs):  # u == 1.0 guard
                k = len(nbrs) - 1
            pos = nbrs[k] if (x - k) < prob[k] else nbrs[alias[k]]
        else:
            pos = table[1][bisect_left(table[2], u)]
        t += 1
        c = counts[pos] + 1
        counts[pos] = c
        if c == need[pos]:
            remaining -= 1
        if remaining == 0 and (
            not blanket or all(m > d * t for m, d in zip(counts, delta_pi))
        ):
            return t
    return None


def blanket_cover_reference(g: Graph, scheme: str = "uniform", lazy: bool = False) -> float:
    """Cover-time reference: exact when feasible, max-hitting bound otherwise."""
    kernel = build_kernel(g, scheme=scheme, lazy=lazy)
    if g.n <= COVER_CAP:
        return float(exact_cover_times(kernel).max())
    return matthews_upper(g, hitting=exact_hitting(kernel))


def _plan(g: Graph, config: WalkConfig) -> tuple:
    """Check config against g; build what every trial of the run shares.

    Outside hit mode a disconnected graph raises DisconnectedError; an
    isolated start raises UnsupportedInputError before pi divides by the
    volume. Returns picklable (tables, start, budget, counts, need,
    remaining, delta_pi): samplers, visit counts at time zero, quotas, how
    many are unmet at time zero, and the blanket thresholds delta * pi_v.
    """
    if config.stop not in STOP_MODES:
        raise ParameterError(f"unknown stop mode {config.stop!r}")
    if not 0 <= config.start < g.n:
        raise ParameterError(f"start {config.start} out of range")
    if config.stop == "hit" and (config.target is None or not 0 <= config.target < g.n):
        raise ParameterError("hit mode needs a target vertex in range")
    if config.stop == "blanket" and not 0.0 <= config.delta < 1.0:
        raise ParameterError("blanket delta must lie in [0, 1)")
    if config.budget < 1:
        raise ParameterError("budget must be positive")
    if config.stop != "hit" and not g.is_connected:
        raise DisconnectedError(f"{g.name} is disconnected; {config.stop} visits every vertex")
    if not g.incidence[config.start]:
        raise UnsupportedInputError(f"start {config.start} of {g.name} is isolated")
    tables, pi = _vertex_tables(g, config.scheme, config.lazy)
    delta_pi = None
    if config.stop == "hit":
        need = [0] * g.n
        need[config.target] = 1
    elif config.stop == "blanket-cover":
        reference = config.reference
        if reference is None:
            reference = blanket_cover_reference(g, config.scheme, config.lazy)
        need = [max(0, math.ceil(reference * p - 1e-12)) for p in pi]
    else:
        # cover; blanket needs every vertex visited before its check can pass
        need = [1] * g.n
        if config.stop == "blanket" and config.delta > 0.0:
            delta_pi = [config.delta * p for p in pi]
    counts = [0] * g.n
    counts[config.start] = 1
    remaining = sum(c < q for c, q in zip(counts, need))
    return tables, config.start, config.budget, counts, need, remaining, delta_pi


def _trial_values(args) -> list[int | None]:
    """Stopping steps (None when censored) of trials lo..hi-1, in index order.

    One Philox serves the chunk: before trial i it is reset to the start
    of stream (seed, 1 + i), so each trial draws what substream(seed, 1 + i)
    would, whatever the trial before it left in the generator.
    """
    (tables, start, budget, counts, need, remaining, delta_pi), seed, lo, hi = args
    rng = substream(seed, 1 + lo)
    bits = rng.bit_generator
    values = []
    for i in range(lo, hi):
        _restart(bits, seed, 1 + i)
        values.append(_walk(tables, start, rng, budget, counts.copy(), need, remaining, delta_pi))
    return values


def trial_value(g: Graph, config: WalkConfig, seed: int, trial_index: int) -> tuple[float | None, bool]:
    """Value of one specific trial; what simulate() aggregates.

    Returns (stopping step, censored flag). Depends on (seed, trial_index)
    only, never on other trials; negative indices are refused because
    stream (seed, 0) is reserved for setup-level choices. Graphs and starts
    are accepted as in `_plan`.
    """
    if trial_index < 0:
        raise ParameterError(f"trial index must be non-negative, got {trial_index}")
    [value] = _trial_values((_plan(g, config), seed, trial_index, trial_index + 1))
    return (None, True) if value is None else (float(value), False)


def simulate(
    g: Graph, config: WalkConfig, trials: int, seed: int, workers: int = 1
) -> EstimateRecord:
    """Run independent trials and return the aggregated estimate.

    Each trial yields its stopping step or, at the budget, a censored
    mark. The uncensored steps are reduced once, in trial order, from the
    exact integer sums S1 and S2 of k values: mean = S1 / k and sample
    variance (k S2 - S1^2) / (k (k - 1)), each rounded once. The result is
    therefore a function of (graph, config, trials, seed) alone; workers
    only change which process computes which slice of trials. Censored
    trials are counted but excluded from the moments. Disconnected graphs
    are refused before any walk starts, in hit mode too, and so is an
    isolated start; the pool never gets more processes than there are
    chunks of CHUNK trials or CPUs.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not g.is_connected:
        raise DisconnectedError(f"{g.name} is disconnected")
    plan = _plan(g, config)
    chunks = [(plan, seed, lo, min(lo + CHUNK, trials)) for lo in range(0, trials, CHUNK)]
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_trial_values, chunks))
    else:
        parts = [_trial_values(c) for c in chunks]
    values = [v for part in parts for v in part if v is not None]
    k = len(values)
    s1 = sum(values)
    s2 = sum(v * v for v in values)
    if k == 0:
        mean, var, stderr = float("nan"), float("nan"), float("nan")
    elif k == 1:
        mean, var, stderr = float(s1), 0.0, float("nan")
    else:
        mean = s1 / k
        var = (k * s2 - s1 * s1) / (k * (k - 1))
        stderr = math.sqrt(var / k)
    return EstimateRecord(
        quantity=config.quantity(),
        graph_id=g.name,
        scheme=config.scheme,
        start=config.start,
        trials=trials,
        seed=seed,
        mean=mean,
        var=var,
        stderr=stderr,
        censored=trials - k,
    )


# --- applications ---


def st_connectivity(g: Graph, s: int, t: int, seed: int, index: int = 0) -> dict:
    """One-sided randomized s-t connectivity probe.

    Walks from s for a budget of max(8 n m, 2 vol(C) sum_{e in T} 1/w_e)
    steps and reports whether t was reached. C is s's component and T the
    spanning tree of C that minimises sum 1/w_e, with parallel edges merged
    and loops skipped. Commute time is vol(C) R (Chandra et al.) and
    R(u, v) <= 1/w(u, v) across an edge, so a walk along T bounds C's cover
    time by vol(C) sum 1/w_e (Aleliunas et al.). A "yes" is always correct;
    on a connected pair the "no" probability is at most 1/2 because the
    budget is at least twice that bound. On unit weights the tree term is
    4 m_C (n_C - 1) < 8 n m, so the budget is 8 n m. A budget above
    WalkConfig().budget raises SizeCapError before any walk. `index`
    selects an independent repetition under the same seed: it is hit-mode
    trial `index` of `trial_value`. Any graph is accepted; an isolated s is
    answered like s == t, without walking: connected only if s == t.
    """
    [answer] = _st_answers(g, s, t, seed, index, index + 1)
    return answer


def _st_answers(g: Graph, s: int, t: int, seed: int, lo: int, hi: int) -> list[dict]:
    """st_connectivity(g, s, t, seed, i) for repetitions lo..hi-1, from one plan."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ParameterError("endpoints out of range")
    if lo < 0:
        raise ParameterError(f"repetition index must be non-negative, got {lo}")
    budget = _st_budget(g, s)
    if s != t and g.incidence[s]:
        plan = _plan(g, WalkConfig(stop="hit", start=s, target=t, budget=budget))
        steps = _trial_values((plan, seed, lo, hi))  # None when censored
    else:
        steps = [0 if s == t else None] * (hi - lo)
    return [{"connected": x is not None, "steps": x, "budget": budget} for x in steps]


def _st_budget(g: Graph, s: int) -> int:
    """The probe's step budget from s (see st_connectivity), refused above the cap."""
    inside = g.bfs_distances(s) >= 0
    merged: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        if u != v and inside[u]:
            key = (min(u, v), max(u, v))
            merged[key] = merged.get(key, 0.0) + w
    tree, _ = _kruskal(g.n, [(1.0 / w, u, v) for (u, v), w in merged.items()])
    plain = 8 * g.n * g.m
    weighted = 2.0 * float(g.weighted_degrees[inside].sum()) * tree
    need, cap = max(plain, weighted), WalkConfig().budget
    if need > cap:
        raise SizeCapError(f"s-t probe needs {need:.4g} steps on {g.name}, above the cap {cap}")
    return max(plain, math.ceil(weighted))


def empirical_visit_frequencies(
    g: Graph, steps: int, seed: int, scheme: str = "uniform", lazy: bool = False, start: int = 0
) -> np.ndarray:
    """Visit frequencies N_v(T) / (T + 1) of one long walk.

    The counts include the position at time zero, so they always sum to
    steps + 1 before normalization. Any graph but no isolated start.
    """
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    if not 0 <= start < g.n:
        raise ParameterError(f"start {start} out of range")
    if not g.incidence[start]:
        raise UnsupportedInputError(f"start {start} of {g.name} is isolated")
    tables, _ = _vertex_tables(g, scheme, lazy)
    counts = [0] * g.n
    counts[start] = 1
    # no quota: a zero quota is never met after a visit, so all steps run
    _walk(tables, start, substream(seed, 1), steps, counts, [0] * g.n, g.n)
    return np.array(counts) / float(steps + 1)


def estimates_csv(records: list[EstimateRecord]) -> str:
    lines = ["quantity,graph_id,scheme,start,trials,seed,mean,stderr,censored"]
    for r in records:
        lines.append(
            f"{r.quantity},{r.graph_id},{r.scheme},{r.start},{r.trials},"
            f"{r.seed},{repr(r.mean)},{repr(r.stderr)},{r.censored}"
        )
    return "\n".join(lines) + "\n"
