"""Monte Carlo walk engine with reproducible per-trial streams.

Determinism contract: trial i of a run with seed s draws from the
counter-based stream (s, 1 + i) and from nothing else, so any scheduling
of trials over workers produces bit-identical estimates. Moments are
accumulated per fixed-size chunk of trials and the chunk summaries are
merged left to right; chunk boundaries depend only on trial indices.

Next-step sampling uses an alias table at vertices of degree above 8 and
a cumulative scan below that; one uniform drives either method.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .electrical import matthews_upper
from .errors import DisconnectedError, ParameterError, UnsupportedInputError
from .graph import Graph
from .rng import substream
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
    """Per-vertex samplers: ("scan", nbrs, cumulative) or ("alias", nbrs, prob, alias)."""
    h = apply_scheme(g, scheme)
    tables = []
    for v in range(h.n):
        pairs: dict[int, float] = {}
        for other, w in h.incidence[v]:
            pairs[other] = pairs.get(other, 0.0) + w
        if not pairs:
            raise UnsupportedInputError(f"vertex {v} of {g.name} is isolated")
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
    return tables


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


def _sample(table, u: float) -> int:
    if table[0] == "alias":
        _, nbrs, prob, alias = table
        x = u * len(nbrs)
        k = int(x)
        if k >= len(nbrs):  # u == 1.0 guard
            k = len(nbrs) - 1
        return nbrs[k] if (x - k) < prob[k] else nbrs[alias[k]]
    _, nbrs, cum = table
    for j, edge in enumerate(cum):
        if u <= edge:
            return nbrs[j]
    return nbrs[-1]


# --- single trial ---


def _stationary(g: Graph, scheme: str) -> np.ndarray:
    h = apply_scheme(g, scheme)
    return h.weighted_degrees / h.volume


def blanket_cover_reference(g: Graph, scheme: str = "uniform", lazy: bool = False) -> float:
    """Cover-time reference: exact when feasible, max-hitting bound otherwise."""
    kernel = build_kernel(g, scheme=scheme, lazy=lazy)
    if g.n <= COVER_CAP:
        return float(exact_cover_times(kernel).max())
    return matthews_upper(g, hitting=exact_hitting(kernel))


def _resolve(g: Graph, config: WalkConfig) -> WalkConfig:
    if config.stop not in STOP_MODES:
        raise ParameterError(f"unknown stop mode {config.stop!r}")
    if not 0 <= config.start < g.n:
        raise ParameterError(f"start {config.start} out of range")
    if config.stop == "hit":
        if config.target is None or not 0 <= config.target < g.n:
            raise ParameterError("hit mode needs a target vertex in range")
    if config.stop == "blanket" and not 0.0 <= config.delta < 1.0:
        raise ParameterError("blanket delta must lie in [0, 1)")
    if config.budget < 1:
        raise ParameterError("budget must be positive")
    if config.stop == "blanket-cover" and config.reference is None:
        config = replace(
            config,
            reference=blanket_cover_reference(g, config.scheme, config.lazy),
        )
    return config


def _run_trial(tables, n: int, config: WalkConfig, pi, rng) -> tuple[float | None, bool]:
    """One walk; returns (stopping time, censored flag)."""
    pos = config.start
    stop = config.stop
    budget = config.budget

    if stop == "cover" or (stop == "blanket" and config.delta == 0.0):
        seen = bytearray(n)
        seen[pos] = 1
        remaining = n - 1
        track = "cover"
    elif stop == "hit":
        if pos == config.target:
            return 0.0, False
        track = "hit"
        target = config.target
    elif stop == "blanket-cover":
        counts = [0] * n
        counts[pos] = 1
        need = [max(0, math.ceil(config.reference * float(pi[v]) - 1e-12)) for v in range(n)]
        remaining = sum(1 for v in range(n) if counts[v] < need[v])
        if remaining == 0:
            return 0.0, False
        track = "bcover"
    else:
        counts = [0] * n
        counts[pos] = 1
        delta_pi = [config.delta * float(pi[v]) for v in range(n)]
        track = "blanket"

    buf: list[float] = []
    bi = 0
    t = 0
    while t < budget:
        if bi == len(buf):
            buf = rng.random(BUFFER).tolist()
            bi = 0
        u = buf[bi]
        bi += 1
        table = tables[pos]
        if table[0] == "alias":
            _, nbrs, prob, alias = table
            x = u * len(nbrs)
            k = int(x)
            if k >= len(nbrs):
                k = len(nbrs) - 1
            pos = nbrs[k] if (x - k) < prob[k] else nbrs[alias[k]]
        else:
            _, nbrs, cum = table
            pos = nbrs[-1]
            for j, edge in enumerate(cum):
                if u <= edge:
                    pos = nbrs[j]
                    break
        t += 1

        if track == "cover":
            if not seen[pos]:
                seen[pos] = 1
                remaining -= 1
                if remaining == 0:
                    return float(t), False
        elif track == "hit":
            if pos == target:
                return float(t), False
        elif track == "bcover":
            counts[pos] += 1
            if counts[pos] == need[pos]:
                remaining -= 1
                if remaining == 0:
                    return float(t), False
        else:
            counts[pos] += 1
            ok = True
            for v in range(n):
                if counts[v] <= delta_pi[v] * t:
                    ok = False
                    break
            if ok:
                return float(t), False
    return None, True


def trial_value(g: Graph, config: WalkConfig, seed: int, trial_index: int) -> tuple[float | None, bool]:
    """Value of one specific trial; what simulate() aggregates.

    Depends on (seed, trial_index) only, never on other trials.
    """
    config = _resolve(g, config)
    tables = _vertex_tables(g, config.scheme, config.lazy)
    pi = _stationary(g, config.scheme)
    rng = substream(seed, 1 + trial_index)
    return _run_trial(tables, g.n, config, pi, rng)


def _chunk_stats(args) -> tuple[int, float, float, int]:
    """(count, mean, M2, censored) over one chunk of trials, in index order."""
    text, config, seed, lo, hi = args
    g = Graph.from_text(text)
    config = _resolve(g, config)
    tables = _vertex_tables(g, config.scheme, config.lazy)
    pi = _stationary(g, config.scheme)
    count = 0
    mean = 0.0
    m2 = 0.0
    censored = 0
    for i in range(lo, hi):
        value, was_censored = _run_trial(tables, g.n, config, pi, substream(seed, 1 + i))
        if was_censored:
            censored += 1
            continue
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
    return count, mean, m2, censored


def _merge(a, b):
    """Chan's parallel moment merge; exact for the fixed fold order used."""
    na, ma, sa = a
    nb, mb, sb = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return n, mean, m2


def simulate(
    g: Graph, config: WalkConfig, trials: int, seed: int, workers: int = 1
) -> EstimateRecord:
    """Run independent trials and return the aggregated estimate.

    The result is a function of (graph, config, trials, seed) alone;
    workers only change how chunks get computed, never what they contain.
    Censored trials are counted but excluded from the moments. Disconnected
    graphs are refused before any walk starts; the pool never gets more
    processes than there are chunks or CPUs.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not g.is_connected:
        raise DisconnectedError(f"{g.name} is disconnected")
    config = _resolve(g, config)
    text = g.to_text()
    chunks = [
        (text, config, seed, lo, min(lo + CHUNK, trials))
        for lo in range(0, trials, CHUNK)
    ]
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_stats, chunks))
    else:
        results = [_chunk_stats(c) for c in chunks]
    moments = (0, 0.0, 0.0)
    censored = 0
    for count, mean, m2, chunk_censored in results:
        moments = _merge(moments, (count, mean, m2))
        censored += chunk_censored
    count, mean, m2 = moments
    if count == 0:
        mean, var, stderr = float("nan"), float("nan"), float("nan")
    elif count == 1:
        var, stderr = 0.0, float("nan")
    else:
        var = m2 / (count - 1)
        stderr = math.sqrt(var / count)
    return EstimateRecord(
        quantity=config.quantity(),
        graph_id=g.name,
        scheme=config.scheme,
        start=config.start,
        trials=trials,
        seed=seed,
        mean=float(mean),
        var=float(var),
        stderr=float(stderr),
        censored=censored,
    )


# --- applications ---


def st_connectivity(g: Graph, s: int, t: int, seed: int, index: int = 0) -> dict:
    """One-sided randomized s-t connectivity probe.

    Walks exactly 8 n m steps from s and reports whether t was reached.
    A "yes" is always correct; on a connected pair the "no" probability is
    at most 1/2 because the budget is twice the 4 n m cover bound. `index`
    selects an independent repetition under the same seed: it is hit-mode
    trial `index` of `trial_value`. Disconnected graphs are accepted.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ParameterError("endpoints out of range")
    budget = 8 * g.n * g.m
    if s == t:
        return {"connected": True, "steps": 0, "budget": budget}
    config = WalkConfig(stop="hit", start=s, target=t, budget=budget)
    steps, censored = trial_value(g, config, seed, index)
    if censored:
        return {"connected": False, "steps": None, "budget": budget}
    return {"connected": True, "steps": int(steps), "budget": budget}


def empirical_visit_frequencies(
    g: Graph, steps: int, seed: int, scheme: str = "uniform", lazy: bool = False, start: int = 0
) -> np.ndarray:
    """Visit frequencies N_v(T) / (T + 1) of one long walk.

    The counts include the position at time zero, so they always sum to
    steps + 1 before normalization.
    """
    tables = _vertex_tables(g, scheme, lazy)
    rng = substream(seed, 1)
    counts = np.zeros(g.n, dtype=np.int64)
    pos = start
    counts[pos] = 1
    buf: list[float] = []
    bi = 0
    for _ in range(steps):
        if bi == len(buf):
            buf = rng.random(BUFFER).tolist()
            bi = 0
        pos = _sample(tables[pos], buf[bi])
        bi += 1
        counts[pos] += 1
    assert int(counts.sum()) == steps + 1
    return counts / float(steps + 1)


def estimates_csv(records: list[EstimateRecord]) -> str:
    lines = ["quantity,graph_id,scheme,start,trials,seed,mean,stderr,censored"]
    for r in records:
        lines.append(
            f"{r.quantity},{r.graph_id},{r.scheme},{r.start},{r.trials},"
            f"{r.seed},{repr(r.mean)},{repr(r.stderr)},{r.censored}"
        )
    return "\n".join(lines) + "\n"
