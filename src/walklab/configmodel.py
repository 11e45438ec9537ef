"""Configuration-model sampling and degree-sequence analysis.

Sampling pairs labelled half-edges ("stubs") uniformly at random: the stub
array is shuffled once and consecutive entries are paired, which induces a
uniform perfect matching. Conditioning on the output being simple makes the
law uniform over simple graphs with the given degree sequence, so rejection
sampling is exact.

Attempt i shuffles with stream (seed, 1 + i). Attempts are drawn in
blocks: one (rows, 2m) stub array whose row j is attempt start + j, so
each shuffle is the one a lone attempt would make. A block holds at most
`BLOCK_STUBS` = 2^16 stubs (0.5 MiB) and at least one row, so memory does
not grow with the number of attempts and a sequence with more stubs gets
one row a block. One vectorised test gives every row's verdict on the
stub array itself (a loop is an equal pair, a parallel edge a repeated
pair key), and a `Graph` is built only for the accepted pairing.

`sample_simple` starts with about a quarter of the expected 1/p attempts
in its first block (at least one row) and doubles from there. It accepts
the first simple row in attempt order, so the graph, the attempt count
and a failure's text are those of testing one attempt at a time. The
default attempt budget grows as 20 / predicted_p_simple and is refused up
front above `MAX_DEFAULT_TRIES`.

The niceness conditions checked here are asymptotic in origin; every o(.)
and O(.) is replaced by an explicit finite-size surrogate whose constants
are recorded in the report. A report is informational, never an error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, RejectionFailure, SizeCapError
from .graph import Graph
from .rng import _stream_starts, substream

__all__ = [
    "DegreeSequence",
    "NicenessReport",
    "SimpleSample",
    "regular_sequence",
    "random_band_sequence",
    "read_degree_file",
    "sample_configuration",
    "sample_simple",
    "nu",
    "predicted_p_simple",
    "check_nice",
    "effective_min_degree",
    "predicted_cover",
]

DEFAULT_EFFECTIVE_FRACTION = 0.01
# finite-size constants of the niceness conditions (see check_nice)
NICE_ALPHA = 0.01
NICE_KAPPA = 1.0 / 12.0  # below 1/11
NICE_BIG_O = 10.0
NICE_AVERAGE_SLACK = 3.0
MAX_DEFAULT_TRIES = 10**6  # the default rejection budget, 20 / p, is refused above this
BLOCK_STUBS = 2**16  # a pairing block holds at most this many stubs, or one row


@dataclass(frozen=True)
class DegreeSequence:
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.degrees) < 1:
            raise ParameterError("degree sequence must be nonempty")
        if any(int(d) != d or d < 1 for d in self.degrees):
            raise ParameterError("degrees must be positive integers")
        if sum(self.degrees) % 2 != 0:
            raise ParameterError("degree sum must be even")
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    @property
    def theta(self) -> float:
        """Average degree 2m/n."""
        return 2.0 * self.m / self.n

    @property
    def minimum(self) -> int:
        return min(self.degrees)

    @property
    def maximum(self) -> int:
        return max(self.degrees)

    @cached_property
    def counts(self) -> dict[int, int]:
        return dict(Counter(self.degrees))


def regular_sequence(n: int, r: int) -> DegreeSequence:
    if n * r % 2 != 0:
        raise ParameterError(f"{r}-regular on {n} vertices has odd degree sum")
    return DegreeSequence((r,) * n)


def random_band_sequence(n: int, low: int, high: int, seed: int) -> DegreeSequence:
    """Degrees drawn uniformly from [low, high], parity fixed inside the band."""
    if not 1 <= low <= high:
        raise ParameterError("need 1 <= low <= high")
    rng = substream(seed, 0)
    degrees = rng.integers(low, high + 1, size=n).tolist()
    if sum(degrees) % 2 != 0:
        for i, d in enumerate(degrees):
            if d + 1 <= high:
                degrees[i] = d + 1
                break
            if d - 1 >= low:
                degrees[i] = d - 1
                break
        else:
            raise ParameterError("cannot fix parity inside a single-value odd band")
    return DegreeSequence(tuple(degrees))


def read_degree_file(path) -> DegreeSequence:
    # one degree per line or several per line; blank lines and # comments skipped
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError:
        raise ParameterError(f"degree file {path}: not UTF-8 text") from None
    degrees = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for token in line.split():
            try:
                degrees.append(int(token))
            except ValueError:
                raise ParameterError(
                    f"degree file {path}: expected an integer, got {token!r}"
                ) from None
    return DegreeSequence(tuple(degrees))


# --- sampling ---


def _pairing_block(seq: DegreeSequence, seed: int, start: int, rows: int) -> np.ndarray:
    """The (rows, 2m) stub arrays of attempts start, ..., start + rows - 1.

    Row i is the stub array shuffled with stream (seed, 1 + start + i); one
    Philox serves the block and is reset before each row. Consecutive
    entries of a row are its pairs.
    """
    block = np.tile(np.repeat(np.arange(seq.n), seq.degrees), (rows, 1))
    rngs = _stream_starts(substream(seed, 1 + start), seed, 1 + start, rows)
    for row, rng in zip(block, rngs):
        rng.shuffle(row)
    return block


def _simple_rows(block: np.ndarray, n: int) -> np.ndarray:
    """Per row, Graph(n, row pairs).is_simple, read off the stub array: no
    equal pair (loop) and no repeated key min*n + max (parallel edge)."""
    u, v = block[:, 0::2], block[:, 1::2]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort(axis=1)
    return ~((u == v).any(axis=1) | (keys[:, 1:] == keys[:, :-1]).any(axis=1))


def _pairing_blocks(seq: DegreeSequence, seed: int, budget: int, rows: int):
    """Yield (start, block) covering attempts 0, ..., budget - 1 in order.

    The first block has `rows` rows and each next one twice as many, all
    capped by the budget left and by BLOCK_STUBS stubs (one row at least).
    """
    cap = max(1, BLOCK_STUBS // (2 * seq.m))
    start = 0
    while start < budget:
        size = min(rows, cap, budget - start)
        yield start, _pairing_block(seq, seed, start, size)
        start += size
        rows *= 2


def _configuration_graph(seq: DegreeSequence, pairs: np.ndarray, seed: int, index: int) -> Graph:
    return Graph(seq.n, pairs.tolist(), name=f"cm-{seq.n}v-s{seed}i{index}")


def sample_configuration(seq: DegreeSequence, seed: int, index: int = 0) -> Graph:
    """One uniform configuration; attempt `index` of the stream keyed by seed."""
    pairs = _pairing_block(seq, seed, index, 1).reshape(-1, 2)
    return _configuration_graph(seq, pairs, seed, index)


@dataclass(frozen=True)
class SimpleSample:
    graph: Graph
    attempts: int


def _require_degrees_below_n(seq: DegreeSequence) -> None:
    if seq.maximum >= seq.n:
        raise ParameterError(f"no simple graph on {seq.n} vertices has a degree of {seq.n} or more")


def default_max_tries(seq: DegreeSequence) -> int:
    """max(1000, ceil(20 / p)) attempts, p the predicted simple probability.

    Raises ParameterError when a degree is n or more, since no simple graph
    has one, and SizeCapError when the budget exceeds MAX_DEFAULT_TRIES, or
    when p underflows to 0, instead of starting a search that cannot end
    soon.
    """
    _require_degrees_below_n(seq)
    p = predicted_p_simple(seq)
    if p * MAX_DEFAULT_TRIES < 20.0:
        raise SizeCapError(
            f"default rejection budget capped at {MAX_DEFAULT_TRIES} attempts; predicted "
            f"simple probability {p:.4g} on {seq.n} vertices needs 20/p of them"
        )
    return max(1000, math.ceil(20.0 / p))


def sample_simple(seq: DegreeSequence, seed: int, max_tries: int | None = None) -> SimpleSample:
    """Rejection-sample a uniform simple graph with the given degrees.

    Attempt i is the pairing `sample_configuration(seq, seed, i)` would
    return. Pairings are drawn and tested in blocks of growing size, and
    the `Graph` is built only for the first simple one in attempt order;
    `attempts` counts the attempts up to and including it, as if they had
    been tried one at a time. The default budget is `default_max_tries(seq)`,
    which refuses sequences needing more than MAX_DEFAULT_TRIES attempts;
    an explicit max_tries is used as given. A degree of n or more is
    refused before any draw, whatever the budget.
    """
    _require_degrees_below_n(seq)
    if max_tries is None:
        max_tries = default_max_tries(seq)
    if max_tries < 1:
        raise ParameterError("max_tries must be positive")
    # a first block of a quarter of 1/p rows holds a simple row with
    # probability about 1 - e^(-1/4) = 0.22; doubling keeps the rows drawn
    # past the first simple one fewer than those before it plus one block
    p = predicted_p_simple(seq)
    rows = max_tries if 4.0 * p * max_tries <= 1.0 else max(1, int(0.25 / p))
    for start, block in _pairing_blocks(seq, seed, max_tries, rows):
        simple = np.flatnonzero(_simple_rows(block, seq.n))
        if simple.size:
            attempt = start + int(simple[0])
            pairs = block[simple[0]].reshape(-1, 2)
            return SimpleSample(
                graph=_configuration_graph(seq, pairs, seed, attempt), attempts=attempt + 1
            )
    raise RejectionFailure(
        f"no simple graph in {max_tries} attempts "
        f"(empirical acceptance 0/{max_tries}, predicted {p:.4g})"
    )


# --- simplicity prediction ---


def nu(seq: DegreeSequence) -> float:
    return sum(d * (d - 1) for d in seq.degrees) / (2.0 * seq.m)


def predicted_p_simple(seq: DegreeSequence) -> float:
    v = nu(seq)
    return math.exp(-v / 2.0 - v * v / 4.0)


# --- niceness ---


def effective_min_degree(seq: DegreeSequence, fraction: float = DEFAULT_EFFECTIVE_FRACTION) -> int:
    """Smallest degree held by at least fraction*n vertices.

    Finite-size surrogate for "occurs order n times". If no degree reaches
    the threshold the most frequent one (smallest on ties) is returned.
    """
    if not 0 < fraction <= 1:
        raise ParameterError("fraction must lie in (0, 1]")
    threshold = fraction * seq.n
    qualifying = [j for j, c in seq.counts.items() if c >= threshold]
    if qualifying:
        return min(qualifying)
    best = max(seq.counts.values())
    return min(j for j, c in seq.counts.items() if c == best)


@dataclass(frozen=True)
class NicenessReport:
    conditions: dict
    nice: bool
    effective_minimum: int
    parameters: dict


def check_nice(seq: DegreeSequence) -> NicenessReport:
    """Evaluate the six niceness conditions with explicit finite-size constants.

    alpha, kappa, big_o and average_slack are the NICE_* constants, and
    the effective minimum degree takes DEFAULT_EFFECTIVE_FRACTION. gamma is
    max(2, ln ln n), the slowest-growing reading of "gamma tends to
    infinity" that is still usable at small n. The report's parameters
    record all six.
    """
    n = seq.n
    gamma = max(2.0, math.log(math.log(n))) if n >= 3 else 2.0
    d = effective_min_degree(seq)
    theta = seq.theta
    counts = seq.counts

    avg_cap = NICE_AVERAGE_SLACK * math.sqrt(math.log(n)) if n >= 2 else float("inf")
    cond_i = theta <= avg_cap

    cond_ii = seq.minimum >= 3

    low_range = {
        i: counts.get(i, 0) for i in range(seq.minimum, d)
    }
    low_caps = {i: NICE_BIG_O * n ** (NICE_KAPPA * i / d) for i in low_range}
    cond_iii = all(low_range[i] <= low_caps[i] for i in low_range)

    cond_iv = counts.get(d, 0) >= NICE_ALPHA * n

    high_cap = NICE_BIG_O * n ** (NICE_KAPPA * (d - 1) / d)
    cond_v = seq.maximum <= high_cap

    tail_start = gamma * theta
    tail = sum(c for j, c in counts.items() if j >= tail_start)
    cond_vi = tail <= high_cap

    conditions = {
        "i_average_degree": {
            "passed": bool(cond_i),
            "theta": theta,
            "cap": avg_cap,
        },
        "ii_minimum_degree": {
            "passed": bool(cond_ii),
            "minimum": seq.minimum,
        },
        "iii_low_degree_counts": {
            "passed": bool(cond_iii),
            "counts": {str(i): low_range[i] for i in sorted(low_range)},
            "caps": {str(i): low_caps[i] for i in sorted(low_caps)},
        },
        "iv_effective_degree_mass": {
            "passed": bool(cond_iv),
            "count": counts.get(d, 0),
            "required": NICE_ALPHA * n,
        },
        "v_maximum_degree": {
            "passed": bool(cond_v),
            "maximum": seq.maximum,
            "cap": high_cap,
        },
        "vi_upper_tail": {
            "passed": bool(cond_vi),
            "tail_count": tail,
            "tail_start": tail_start,
            "cap": high_cap,
        },
    }
    nice = all(c["passed"] for c in conditions.values())
    return NicenessReport(
        conditions=conditions,
        nice=nice,
        effective_minimum=d,
        parameters={
            "alpha": NICE_ALPHA,
            "kappa": NICE_KAPPA,
            "gamma": gamma,
            "big_o": NICE_BIG_O,
            "average_slack": NICE_AVERAGE_SLACK,
            "fraction": DEFAULT_EFFECTIVE_FRACTION,
        },
    )


def predicted_cover(seq: DegreeSequence) -> float:
    """Leading-order cover time (d-1)/(d-2) * theta/d * n ln n.

    d is the effective minimum degree; the formula has a pole at d = 2,
    so d >= 3 is required.
    """
    d = effective_min_degree(seq)
    if d < 3:
        raise ParameterError(
            f"cover prediction needs effective minimum degree >= 3, got {d}"
        )
    n = seq.n
    return (d - 1) / (d - 2) * (seq.theta / d) * n * math.log(n)
