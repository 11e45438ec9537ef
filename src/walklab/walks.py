"""Monte Carlo walk engine with reproducible per-trial streams.

Determinism contract: trial i of a run with seed s draws from the
counter-based stream (s, 1 + i) and from nothing else, and `simulate`
reduces the per-trial step counts once, in trial order, with exact
integer sums. So any scheduling of trials over threads gives
bit-identical estimates.

Every walk follows one rule, driven by per-vertex visit quotas: it stops
at the first step where each vertex has been visited as often as its
quota asks (1 everywhere for cover, 1 at the target for hit,
ceil(C * pi_v) for blanket-cover, C the graph's blanket_cover_reference),
or is censored at its step budget. The compiled kernel, `rng._KERNEL`
(built from _walk.c when walklab is imported, see `rng._load_kernel`),
walks a run's trials: it counts the quotas down and reads trial i's raw
Philox words from stream (s, 1 + i) itself, step t reading its t-th word,
whose uniform is the double rng.random makes of it, u = (w >> 11) 2^-53
for the word w. `simulate` walks slices of the trials on several threads
at once.
`_plan` alone decides which graphs a run takes: any graph in hit mode, a
connected one in the modes that put a quota on every vertex, and never an
isolated start; budgets above WalkConfig().budget are refused.

A step from v with uniform u bisects v's table, entries off[v] to
off[v + 1] - 1 of two flat arrays, nbrs and cum: it goes to nbrs[off[v] + i]
for u in (cum[off[v] + i - 1], cum[off[v] + i]]. At every vertex the table
holds its distinct neighbours, ascending, with the lazy hold last, and the
running sums of their probabilities, the last sum set to 1.0; so the walk
picks exactly as bisection over the cumulative weights, at every degree.

The walk seldom bisects. Each distinct table also has a bucket row of
R = 2^b entries: entry w >> (64 - b) of v's row, the key read off the top b
bits of the word, is the index i for every u in that bucket, or
L_v = off[v + 1] - off[v] where a breakpoint of v's table splits the
bucket, and there the kernel bisects. The key is an exact floor, since u R
is (w >> 11) 2^(b - 53) exactly, so w >> (64 - b) = int(u R); and the row is
built from exact comparisons, so the lookup picks what the bisection picks
for every double u. R is sized by the stationary share of steps that can
bisect: a row of length L has at most L - 1 impure buckets, so that share is
at most sum_v pi_v (L_v - 1) / R, and R is the least power of two from 32 up
that holds it to 1/_SHARE, capped at _MAX_BUCKETS. Rows hold indices, not
vertices, so vertices with equal cum tables share one row: a plan holds a
row per distinct table (one on a regular graph walked uniformly), not per
vertex, and R need not shrink as the graph grows.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng as _rng
from .electrical import _kruskal, matthews_upper
from .errors import ParameterError, SizeCapError, UnsupportedInputError
from .graph import Graph, _sum_left_to_right
from .rng import _check_streams
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
_SLOTS = 2**18  # bucket-row entries a plan's rows may hold above 32 buckets a row
_MAX_BUCKETS = 2**14  # buckets a row may have
# a stationary step lands in an impure bucket, and bisects, with probability
# at most 1/_SHARE. The kernel is not sensitive to the value: within one
# process, alternating 1/64, 1/128 and 1/256 (best of 8 runs each, two sets,
# 2-core Xeon VM), the n = 2000 3-regular cover walk took 13.7-15.0 ns a step
# at all three, and lollipop:40's 16.3-17.3, 17.8-18.4 and 18.8-19.3 ns. Rows
# whose every bucket is impure, so that the kernel always bisects, ran those
# walks and star:3000's about 2, 2-5 and 2 times slower.
_SHARE = 128


@dataclass(frozen=True)
class WalkConfig:
    """What one trial does and when it stops.

    stop:       "cover", "hit", or "blanket-cover"
    start:      starting vertex
    target:     required for "hit"
    budget:     hard step cap, at most 10**9; trials that reach it are censored
    scheme:     edge weighting applied before walking
    lazy:       walk the lazy kernel (hold with probability 1/2)
    """

    stop: str = "cover"
    start: int = 0
    target: int | None = None
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


def _tables(g: Graph, scheme: str, lazy: bool) -> tuple:
    """The weighted walk's step tables, flat, and its stationary distribution.

    Returns (off, nbrs, cum, row, distinct, pi, cuts). Row v of
    `Graph.pooled` lists v's distinct neighbours, ascending, with their
    pooled weights; each is picked with its weight over the row's sum.
    Vertex v's table is entries off[v]..off[v + 1] - 1 of nbrs (int64) and
    cum (float64): that row (v itself last when a lazy walk adds its hold)
    and the running sums of the probabilities, the last set to 1.0, whatever
    v's degree; so L_v = off[v + 1] - off[v], and a step from v with uniform
    u goes to nbrs[off[v] + bisect_left(cum[off[v]:off[v + 1]], u)]. An
    isolated vertex has an empty table, since no edge leads to it. distinct
    holds each distinct cum table once, as a tuple, in the order of the
    first vertex that has it, and row[v] (int64) is the index of v's table
    in distinct, or 0 for an isolated vertex. pi (float64) does not change
    with laziness; it needs g to have an edge. cuts = sum_v pi_v (L_v - 1),
    taken in numpy from the weighted degrees and the pooled row lengths,
    weighs the entries of v's table below its last, each of which can split
    one bucket of v's row; `_bucket_rows` sizes the rows by it.
    """
    h = apply_scheme(g, scheme)
    n = h.n
    rows, cols, weights = h.pooled
    starts = np.searchsorted(rows, np.arange(n + 1))
    lengths = np.diff(starts)
    if lazy:  # the hold is one more entry, unless v is isolated or a loop already leads to v
        held = lengths > 0
        held[rows[rows == cols]] = False
        lengths += held
    # summed before dividing by the volume, so that a unit-weight d-regular
    # graph has cuts = d - 1 exactly
    cuts = float(np.sum(h.weighted_degrees * (lengths - 1))) / h.volume
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    starts, cols, weights = starts.tolist(), cols.tolist(), weights.tolist()
    nbrs, cum, row = [], [], [0] * n
    distinct: dict = {}  # each distinct cum table, as a tuple: its row index
    for v, a, b in zip(range(n), starts, starts[1:]):
        if a == b:
            continue
        out = cols[a:b]
        total = _sum_left_to_right(weights[a:b])
        probs = [w / total for w in weights[a:b]]
        if lazy:
            probs = [0.5 * p for p in probs]
            if v in out:
                probs[out.index(v)] += 0.5
            else:
                out.append(v)
                probs.append(0.5)
        sums = list(accumulate(probs))
        sums[-1] = 1.0
        nbrs += out
        cum += sums
        row[v] = distinct.setdefault(tuple(sums), len(distinct))
    nbrs, cum, row = np.array(nbrs, dtype=np.int64), np.array(cum), np.array(row, dtype=np.int64)
    return off, nbrs, cum, row, list(distinct), h.weighted_degrees / h.volume, cuts


# --- bucket rows ---


def _bucket_rows(distinct: list, cuts: float) -> tuple:
    """The bucket rows a walk steps by: (rows, shift).

    rows is an int64 array of one row of r buckets for each distinct cum
    table, in the order of distinct (see `_tables`, whose row[v] picks v's
    row). rows[i, k] is the index bisect_left(distinct[i], u) for every
    double u in [k/r, (k+1)/r), or L = len(distinct[i]) where an entry of
    the table splits the bucket, and there the kernel bisects. shift =
    64 - log2 r puts a raw Philox word w in bucket w >> shift.

    A row of length L has at most L - 1 impure buckets, each of probability
    1/r, so a stationary step lands in one with probability at most
    cuts / r (see `_tables`). r is the least power of two from 32 up with
    cuts / r at most 1/_SHARE, capped at _MAX_BUCKETS. It is then halved
    while the distinct rows would hold more than _SLOTS entries, but never
    below 32.

    Each row comes from two searches of its table: bucket k is pure when its
    first double k/r and its last, the one just below (k + 1)/r, have the
    same index, since bisect_left only grows with u. r is a power of two,
    so k/r and (k + 1)/r are exact.
    """
    r = 32
    while cuts > r / _SHARE and r < _MAX_BUCKETS:
        r *= 2
    while r > 32 and len(distinct) * r > _SLOTS:
        r //= 2
    first = np.arange(r) / r
    last = np.nextafter(first + 1 / r, 0.0)
    rows = np.empty((len(distinct), r), dtype=np.int64)
    for i, bounds in enumerate(distinct):
        table = np.array(bounds)
        lo = np.searchsorted(table, first)
        rows[i] = np.where(lo == np.searchsorted(table, last), lo, len(bounds))
    return rows, 65 - r.bit_length()


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
    Returns the arrays and numbers `walklab_trials` walks by, in its
    argument order: (off, nbrs, cum, row, rows, shift, start, budget, owed,
    remaining). off, nbrs, cum and row are `_tables`', rows and shift
    `_bucket_rows`'; owed (int64) holds the visits each vertex owes at time
    zero, and remaining is how many vertices owe any.
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
    if config.stop != "hit":
        g.require(f"a {config.stop} walk", "connected")
    if not g.degrees[config.start]:
        raise UnsupportedInputError(f"start {config.start} of {g.name} is isolated")
    off, nbrs, cum, row, distinct, pi, cuts = _tables(g, config.scheme, config.lazy)
    if config.stop == "hit":
        owed = np.zeros(g.n, dtype=np.int64)
        owed[config.target] = 1
    elif config.stop == "blanket-cover":
        reference = blanket_cover_reference(g, config.scheme, config.lazy)
        # a quota past the budget is never met, at budget + 1 as at any
        # larger value, and budget + 1 fits the kernel's int64
        owed = np.clip(np.ceil(reference * pi - 1e-12), 0, config.budget + 1).astype(np.int64)
    else:
        owed = np.ones(g.n, dtype=np.int64)
    if owed[config.start]:  # the visit at time zero
        owed[config.start] -= 1
    rows, shift = _bucket_rows(distinct, cuts)
    return off, nbrs, cum, row, rows, shift, config.start, config.budget, owed, int(np.count_nonzero(owed))


def _trial_values(
    plan: tuple, seed: int, lo: int, hi: int, stop: threading.Event | None = None
) -> list[int | None]:
    """Stopping steps (None when censored) of trials lo..hi-1, in index order.

    The kernel walks them in as few calls as it can, over the plan's
    arrays, reading the words of stream (seed, 1 + i) for trial i, once
    the trials' stream keys are checked. Each call returns within about
    2^26 steps past a trial's end; once it has returned with stop set (a
    threading.Event), the rest are left unwalked and only the trials
    walked so far are returned. A kernel that finds no memory for its
    quotas raises MemoryError.
    """
    _check_streams(seed, 1 + lo, hi - lo)
    off, nbrs, cum, row, rows, shift, start, budget, owed, remaining = plan
    steps = np.empty(hi - lo, dtype=np.int64)
    done = 0
    while done < hi - lo:
        walked = _rng._KERNEL.walklab_trials(
            len(off) - 1, off.ctypes.data, nbrs.ctypes.data, cum.ctypes.data, row.ctypes.data,
            rows.ctypes.data, rows.shape[1], shift, start, budget, owed.ctypes.data, remaining,
            seed, 1 + lo + done, hi - lo - done, steps[done:].ctypes.data,
        )
        if walked < 0:
            raise MemoryError("no memory for the walk's quotas")
        done += walked
        if stop is not None and stop.is_set():
            break
    return [None if k < 0 else k for k in steps[:done].tolist()]


def _threaded_values(plan: tuple, seed: int, trials: int, workers: int) -> list[int | None]:
    """`_trial_values` of trials 0..trials-1, over `workers` threads.

    The trials are cut into `workers` contiguous slices. The calling
    thread walks the first, and a daemon thread each of the others; ctypes
    releases the GIL for every kernel call, and a call only reads the
    plan's arrays, so the slices step at once. They are joined in slice
    order, which is trial order. A failure in any slice, or an interrupt
    in the calling thread, sets the shared stop flag, so every other slice
    stops at its kernel's next return; the caller waits for them and
    raises the first failure.
    """
    bounds = [trials * j // workers for j in range(workers + 1)]
    parts: list = [None] * workers
    failures: list = []
    stop = threading.Event()

    def walk(j: int) -> None:
        try:
            parts[j] = _trial_values(plan, seed, bounds[j], bounds[j + 1], stop)
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)
            stop.set()

    threads = [threading.Thread(target=walk, args=(j,), daemon=True) for j in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        parts[0] = _trial_values(plan, seed, 0, bounds[1], stop)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return [v for part in parts for v in part]


def simulate(
    g: Graph, config: WalkConfig, trials: int, seed: int, workers: int = 1
) -> EstimateRecord:
    """Run independent trials and return the aggregated estimate.

    Each trial yields its stopping step or, at the budget, a censored
    mark. The uncensored steps are reduced once, in trial order, from the
    exact integer sums S1 and S2 of k values: mean = S1 / k and sample
    variance (k S2 - S1^2) / (k (k - 1)), each rounded once. The result is
    therefore a function of (graph, config, trials, seed) alone; workers
    only change which thread walks which slice of trials. The trials are
    walked on min(workers, trials, CPUs) threads, the calling thread
    among them (see `_threaded_values`). Censored trials are counted but
    excluded from the moments. Disconnected graphs are refused before any
    walk starts, in hit mode too, and so is an isolated start.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    g.require("a simulation", "connected")
    plan = _plan(g, config)
    walked = _threaded_values(plan, seed, trials, min(workers, trials, os.cpu_count() or 1))
    values = [v for v in walked if v is not None]
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


def speedup(g: Graph, trials: int, seed: int, workers: int = 1) -> dict:
    """Ratio of estimated cover times, unweighted walk over min-degree walk.

    Both walks start at vertex 0 and run the same trial seeds, each on
    `workers` threads as `simulate` runs them. The ratio's spread comes
    from the delta method treating the two means as independent; on a
    regular graph the kernels coincide, the trajectories are identical,
    and the ratio is exactly 1 with z-score 0.
    """
    # min-degree first: its plan refuses a graph the scheme cannot weight,
    # before the uniform walks run
    weighted = simulate(g, WalkConfig(stop="cover", scheme="mindeg"), trials, seed, workers)
    plain = simulate(g, WalkConfig(stop="cover"), trials, seed, workers)
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
        steps = _trial_values(plan, seed, lo, hi)  # None when censored
    else:
        steps = [0 if s == t else None] * (hi - lo)
    return [{"connected": x is not None, "steps": x, "budget": budget} for x in steps]


def _st_plain_budget(name: str, n: int, m: int) -> int:
    """The probe's plain 8 n m steps, refused above the cap from n and m alone: an
    oversize graph pays for no BFS or spanning tree, and a family is not even built."""
    plain, cap = 8 * n * m, WalkConfig().budget
    if plain > cap:
        raise SizeCapError(f"s-t probe needs {plain:.4g} steps on {name}, above the cap {cap}")
    return plain


def _st_budget(g: Graph, s: int) -> int:
    """The probe's step budget from s (see _st_answers), refused above the cap."""
    plain, cap = _st_plain_budget(g.name, g.n, g.m), WalkConfig().budget
    if not g.degrees[s]:  # C = {s} has no tree: no BFS, which lists every vertex's neighbours
        return plain
    inside = g.bfs_distances(s) >= 0
    rows, cols, weights = g.pooled
    keep = (rows < cols) & inside[rows]  # each pooled pair of C once, loops skipped
    pairs = zip(rows[keep].tolist(), cols[keep].tolist(), weights[keep].tolist())
    tree, _ = _kruskal(g.n, [(1.0 / w, u, v) for u, v, w in pairs])
    # may overflow to inf, so it is compared before it is rounded
    weighted = 2.0 * float(g.weighted_degrees[inside].sum()) * tree
    if weighted > cap:
        raise SizeCapError(f"s-t probe needs {weighted:.4g} steps on {g.name}, above the cap {cap}")
    return max(plain, math.ceil(weighted))
