"""Monte Carlo walk engine with reproducible per-trial streams.

Determinism contract: trial i of a run with seed s draws from the
counter-based stream (s, 1 + i) and from nothing else, and `simulate`
reduces the per-trial step counts once, in trial order, with exact
integer sums. So any scheduling of trials over workers gives
bit-identical estimates.

Trials are cheap to start: a chunk of trials shares one Philox, reset
before trial i to key (s, 1 + i) at counter 0 with nothing buffered, which
is exactly the start of `substream(s, 1 + i)`. A walk draws raw 64-bit
Philox words, in blocks of 64, 128, 256, ... up to BUFFER = 4096, then 4096
at a time, never past its budget, so a 30-step walk draws 64 words, not
4096. Philox is counter-based: each word depends only on the key and its
counter, so blocks of any sizes read the words of one long draw, and step
t reads word t. Its uniform is the double rng.random makes of that word w,
u = (w >> 11) 2^-53.

Every walk runs in one loop, `_walk`, driven by per-vertex visit quotas:
it stops at the first step where each vertex has been visited as often as
its quota asks (1 everywhere for cover, 1 at the target for hit,
ceil(reference * pi_v) for blanket-cover), or is censored at its step
budget. The loop counts quotas down: left[v] is the number of visits v
still owes, and at a vertex where left is 0 the quota work is one read.
`_plan` alone decides which graphs a run takes: any graph in hit mode, a
connected one in the modes that put a quota on every vertex, and never an
isolated start; budgets above WalkConfig().budget are refused.

A step from v with uniform u goes to nbrs[v][bisect_left(cum[v], u)],
over two flat per-vertex lists: to nbrs[v][i] for u in
(cum[v][i - 1], cum[v][i]]. At every vertex these are its distinct
neighbours, ascending, with the lazy hold last, and the running sums of
their probabilities, the last sum set to 1.0; so the walk picks exactly as
bisection over the cumulative weights, at every degree.

The walk seldom bisects. Each vertex also has a bucket row of R entries,
R = 2^b chosen from the plan's tables: rows[v][int(u R)] is the index
bisect_left(cum[v], u) for every u in that bucket, or None where a
breakpoint of cum[v] splits the bucket, and only then does the step
bisect, on u rebuilt from w. int(u R) is an exact floor, and the row is
built from exact comparisons, so the lookup picks what the bisection picks
for every double u. The walk reads the key off the word: u R is
(w >> 11) 2^(b - 53) exactly, so int(u R) = w >> (64 - b), the top b bits
of w. Rows hold indices, not vertices, so vertices with equal cum lists
share one row: a plan holds a row per distinct list (one on a regular
graph walked uniformly), not per vertex, and R need not shrink as the
graph grows.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import length_hint

import numpy as np

from .electrical import _kruskal, matthews_upper
from .errors import DisconnectedError, ParameterError, SizeCapError, UnsupportedInputError
from .graph import Graph
from .rng import _stream_starts, substream
from .spectral import COVER_CAP, build_kernel, exact_cover_times, exact_hitting
from .weighting import apply_scheme

__all__ = [
    "WalkConfig",
    "EstimateRecord",
    "simulate",
    "speedup",
    "blanket_cover_reference",
]

STOP_MODES = ("cover", "hit", "blanket-cover")
CHUNK = 256
BUFFER = 4096
_SLOTS = 2**18  # bucket-row entries a plan's rows may hold above 32 buckets a row
_ULP = 2.0**-53  # the uniform of a raw Philox word w is (w >> 11) * _ULP


@dataclass(frozen=True)
class WalkConfig:
    """What one trial does and when it stops.

    stop:       "cover", "hit", or "blanket-cover"
    start:      starting vertex
    target:     required for "hit"
    reference:  cover-time reference for "blanket-cover"; computed from the
                graph when omitted (exact up to COVER_CAP vertices, the
                max-hitting cover bound above)
    budget:     hard step cap, at most 10**9; trials that reach it are censored
    scheme:     edge weighting applied before walking
    lazy:       walk the lazy kernel (hold with probability 1/2)
    """

    stop: str = "cover"
    start: int = 0
    target: int | None = None
    reference: float | None = None
    budget: int = 10**9
    scheme: str = "uniform"
    lazy: bool = False

    def quantity(self) -> str:
        if self.stop == "hit":
            return f"hit:{self.target}"
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
    """Per-vertex step tables and the stationary distribution of the weighted walk.

    Returns (nbrs, cum, pi): a step from v goes to
    nbrs[v][bisect_left(cum[v], u)], and cum[v] ends in 1.0. Row v of
    `Graph.pooled` lists v's distinct neighbours, ascending, with their
    pooled weights; each is picked with its weight over the row's sum.
    nbrs[v] is that row (v itself last when a lazy walk adds its hold) and
    cum[v] the running sums of the probabilities, whatever v's degree. An
    isolated vertex has None in both, since no edge leads to it. pi is a
    list, and laziness does not change it; it needs g to have an edge.
    `_step_tables` adds the bucket rows a walk steps by.
    """
    h = apply_scheme(g, scheme)
    rows, cols, weights = h.pooled
    starts = np.searchsorted(rows, np.arange(h.n + 1)).tolist()
    cols, weights = cols.tolist(), weights.tolist()
    nbrs: list = [None] * h.n
    cum: list = [None] * h.n
    for v, a, b in zip(range(h.n), starts, starts[1:]):
        if a == b:
            continue
        out = cols[a:b]
        total = sum(weights[a:b])
        probs = [w / total for w in weights[a:b]]
        if lazy:
            probs = [0.5 * p for p in probs]
            if v in out:
                probs[out.index(v)] += 0.5
            else:
                out.append(v)
                probs.append(0.5)
        nbrs[v], cum[v] = out, list(accumulate(probs))
        cum[v][-1] = 1.0
    return nbrs, cum, (h.weighted_degrees / h.volume).tolist()


# --- bucket rows ---


def _step_tables(nbrs: list, cum: list) -> tuple:
    """The tables a walk steps by: (nbrs, cum, rows, shift).

    rows[v] is the bucket row of cum[v] (see `_bucket_row`) at r buckets,
    one row shared by every vertex with an equal cum list; an isolated
    vertex has None. shift = 64 - log2 r, a 0-d uint64 array, puts a raw
    Philox word w in bucket w >> shift. r is a power of two picked from the
    distinct rows alone: the least one at least 16 times the longest, kept
    in [32, 1024], then halved while the distinct rows would hold more than
    _SLOTS entries, but never below 32. A row of length L has at most L - 1
    impure buckets, so at 32 buckets the row of a vertex with at most 8
    entries, lazy hold included, is more than three quarters pure.
    """
    shared = {tuple(c): None for c in cum if c is not None}
    longest = max(map(len, shared), default=1)
    r = 32
    while r < 16 * longest and r < 1024:
        r *= 2
    while r > 32 and len(shared) * r > _SLOTS:
        r //= 2
    for bounds in shared:
        shared[bounds] = _bucket_row(bounds, r)
    rows = [None if c is None else shared[tuple(c)] for c in cum]
    # a 0-d uint64 array: numpy shifts a block by it in about half the time
    # it takes to shift by a Python int
    return nbrs, cum, rows, np.array(65 - r.bit_length(), dtype=np.uint64)


def _bucket_row(bounds, r: int) -> list:
    """row[k] is the index bisect_left(bounds, u) for every u in [k/r, (k+1)/r), or None.

    r is a power of two, so k = int(u * r) exactly for every double u in
    [0, 1), and bucket k holds the doubles from k/r up to the one just
    below (k + 1)/r. bisect_left(bounds, u) changes only where u passes an
    entry c of bounds, from u = c to the next double. So bucket k has one
    index for all its u unless some c lies in it other than its last
    double; then row[k] is None and the step bisects. One pass over bounds
    in order fills the buckets below each entry's bucket int(c * r) with
    that entry's index, then settles the entry's own bucket unless an
    earlier entry already did. Entries from 1.0 up lie past the last bucket.
    """
    row = []
    for i, c in enumerate(bounds):
        x = c * r  # exact: r is a power of two
        k = min(int(x), r)
        if k > len(row):
            row += [i] * (k - len(row))
        if k == len(row) < r:
            row.append(i if x == math.nextafter(k + 1.0, 0.0) else None)
    return row


# --- the walk ---


def _walk(tables, pos, rng, budget, left, remaining) -> int | None:
    """Walk from pos until no vertex owes a visit; the only stepper.

    tables is (nbrs, cum, rows, shift) from `_step_tables`.
    left[v] > 0 is the number of visits v still owes, and remaining the
    number of vertices that owe any; left[v] < 0 marks a vertex that keeps
    counting, with -(left[v] + 1) visits so far, the start's visit at time
    zero included. left is updated in place. Returns the stopping step, or
    None once budget steps pass without it.

    Step t reads the t-th raw word w of rng's Philox, whose uniform is the
    double rng.random makes of it, u = (w >> 11) 2^-53. The words come in
    blocks of 64, then twice as many each time up to BUFFER, then BUFFER
    each, never past the budget: a short walk pays for few draws, a long
    one for few calls. Philox words drawn in blocks of any sizes equal one
    draw of their total, so the schedule never changes which word a step
    reads. Each block is turned into bucket keys w >> shift at once, which
    equal int(u r). A step reads its index in nbrs[pos] off
    rows[pos][key], and bisects cum[pos] on u, rebuilt from w, only where
    that bucket is impure; then one list read tests left. The step number
    is read off the key iterator only at a bisection or a quota event.

    A walk that starts with every vertex counting and remaining = 1 runs
    its whole budget and counts every visit.
    """
    if remaining == 0:
        return 0
    nbrs, cum, rows, shift = tables
    draw = rng.bit_generator.random_raw
    bisect = bisect_left  # a local: faster than a global lookup
    t = 0  # steps taken before the current block
    size = 64
    while t < budget:
        block = draw(min(size, budget - t))
        keys = (block >> shift).tolist()
        rest = iter(keys)
        for k in rest:
            i = rows[pos][k]
            if i is None:
                w = block.item(len(keys) - length_hint(rest) - 1)
                i = bisect(cum[pos], (w >> 11) * _ULP)
            pos = nbrs[pos][i]
            if left[pos]:
                c = left[pos] - 1
                left[pos] = c
                if c == 0:
                    remaining -= 1
                    if remaining == 0:
                        return t + len(keys) - length_hint(rest)
        t += len(keys)
        size = min(2 * size, BUFFER)
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
    volume. A budget above WalkConfig().budget raises SizeCapError.
    Returns picklable (tables, start, budget, left, remaining): step tables
    and bucket rows, the visits each vertex owes at time zero, and how many
    vertices owe any.
    """
    if config.stop not in STOP_MODES:
        raise ParameterError(f"unknown stop mode {config.stop!r}")
    if not 0 <= config.start < g.n:
        raise ParameterError(f"start {config.start} out of range")
    if config.stop == "hit" and (config.target is None or not 0 <= config.target < g.n):
        raise ParameterError("hit mode needs a target vertex in range")
    if config.budget < 1:
        raise ParameterError("budget must be positive")
    if config.budget > WalkConfig().budget:
        raise SizeCapError(f"budget {config.budget} is above the cap {WalkConfig().budget}")
    if config.stop != "hit" and not g.is_connected:
        raise DisconnectedError(f"{g.name} is disconnected; {config.stop} visits every vertex")
    if not g.degrees[config.start]:
        raise UnsupportedInputError(f"start {config.start} of {g.name} is isolated")
    nbrs, cum, pi = _vertex_tables(g, config.scheme, config.lazy)
    tables = _step_tables(nbrs, cum)
    if config.stop == "hit":
        left = [0] * g.n
        left[config.target] = 1
    elif config.stop == "blanket-cover":
        reference = config.reference
        if reference is None:
            reference = blanket_cover_reference(g, config.scheme, config.lazy)
        left = [max(0, math.ceil(reference * p - 1e-12)) for p in pi]
    else:
        left = [1] * g.n
    left[config.start] = max(0, left[config.start] - 1)  # the visit at time zero
    remaining = sum(q > 0 for q in left)
    return tables, config.start, config.budget, left, remaining


def _trial_values(args) -> list[int | None]:
    """Stopping steps (None when censored) of trials lo..hi-1, in index order.

    One Philox serves the chunk: before trial i it is reset to the start
    of stream (seed, 1 + i), so each trial draws what substream(seed, 1 + i)
    would, whatever the trial before it left in the generator.
    """
    (tables, start, budget, left, remaining), seed, lo, hi = args
    return [
        _walk(tables, start, rng, budget, left.copy(), remaining)
        for rng in _stream_starts(substream(seed, 1 + lo), seed, 1 + lo, hi - lo)
    ]


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
        # imported here: the pool machinery takes about 20 ms to load, and
        # most runs are serial
        from concurrent.futures import ProcessPoolExecutor

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


def speedup(g: Graph, trials: int, seed: int) -> dict:
    """Ratio of estimated cover times, unweighted walk over min-degree walk.

    Both walks start at vertex 0 and run the same trial seeds. The ratio's
    spread comes from the delta method treating the two means as
    independent; on a regular graph the kernels coincide, the trajectories
    are identical, and the ratio is exactly 1 with z-score 0.
    """
    plain = simulate(g, WalkConfig(stop="cover"), trials, seed)
    weighted = simulate(g, WalkConfig(stop="cover", scheme="mindeg"), trials, seed)
    ratio = plain.mean / weighted.mean
    rel = math.hypot(
        plain.stderr / plain.mean, weighted.stderr / weighted.mean
    )
    stderr = ratio * rel
    z = (ratio - 1.0) / stderr if stderr > 0 else 0.0
    return {
        "graph": g.name,
        "trials": trials,
        "seed": seed,
        "start": 0,
        "uniform_mean": plain.mean,
        "uniform_stderr": plain.stderr,
        "mindeg_mean": weighted.mean,
        "mindeg_stderr": weighted.stderr,
        "ratio": ratio,
        "stderr": stderr,
        "z_score": z,
    }


def _st_answers(g: Graph, s: int, t: int, seed: int, lo: int, hi: int) -> list[dict]:
    """One-sided randomized s-t connectivity probe, repetitions lo..hi-1.

    Each repetition walks from s for a budget of max(8 n m, 2 vol(C) sum_{e
    in T} 1/w_e) steps and reports whether t was reached. C is s's
    component and T the spanning tree of C that minimises sum 1/w_e, with
    parallel edges merged and loops skipped. Commute time is vol(C) R
    (Chandra et al.) and R(u, v) <= 1/w(u, v) across an edge, so a walk
    along T bounds C's cover time by vol(C) sum 1/w_e (Aleliunas et al.).
    A "yes" is always correct; on a connected pair the "no" probability is
    at most 1/2 because the budget is at least twice that bound. On unit
    weights the tree term is 4 m_C (n_C - 1) < 8 n m, so the budget is
    8 n m. A budget above WalkConfig().budget raises SizeCapError before
    any walk. Repetition i walks as trial i of a hit-mode run from s to t
    with this budget, on stream (seed, 1 + i), and all of them share one
    plan. Any graph is accepted; an isolated s is answered like s == t,
    without walking: connected only if s == t.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ParameterError("endpoints out of range")
    if lo < 0:
        raise ParameterError(f"repetition index must be non-negative, got {lo}")
    budget = _st_budget(g, s)
    if s != t and g.degrees[s]:
        plan = _plan(g, WalkConfig(stop="hit", start=s, target=t, budget=budget))
        steps = _trial_values((plan, seed, lo, hi))  # None when censored
    else:
        steps = [0 if s == t else None] * (hi - lo)
    return [{"connected": x is not None, "steps": x, "budget": budget} for x in steps]


def _st_budget(g: Graph, s: int) -> int:
    """The probe's step budget from s (see _st_answers), refused above the cap."""
    inside = g.bfs_distances(s) >= 0
    rows, cols, weights = g.pooled
    keep = (rows < cols) & inside[rows]  # each pooled pair of C once, loops skipped
    pairs = zip(rows[keep].tolist(), cols[keep].tolist(), weights[keep].tolist())
    tree, _ = _kruskal(g.n, [(1.0 / w, u, v) for u, v, w in pairs])
    plain = 8 * g.n * g.m
    weighted = 2.0 * float(g.weighted_degrees[inside].sum()) * tree
    need, cap = max(plain, weighted), WalkConfig().budget
    if need > cap:
        raise SizeCapError(f"s-t probe needs {need:.4g} steps on {g.name}, above the cap {cap}")
    return max(plain, math.ceil(weighted))
