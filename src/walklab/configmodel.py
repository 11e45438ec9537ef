"""Configuration-model sampling and degree-sequence analysis.

Sampling pairs labelled half-edges ("stubs") uniformly at random: the stub
array is shuffled once and consecutive entries are paired, which induces a
uniform perfect matching. Conditioning on the output being simple makes the
law uniform over simple graphs with the given degree sequence, so rejection
sampling is exact.

Attempt i shuffles the stub array with stream (seed, 1 + i), and its
pairs form a simple graph when no pair is a loop and no two pairs share
the key min*n + max. `_simple_flags` gives each attempt's verdict from the
compiled kernel (`rng._KERNEL`, walklab_simple in _walk.c), which
shuffles each attempt in C exactly as numpy's Generator.shuffle does on
its stream and stops it at its first loop or repeated key. On a 2-core
Xeon VM it took 1.6-3.3 us an attempt on p-simple's four sequences
(150-400 stubs), against 5.0-10.5 us for blocks of numpy shuffles tested
in numpy (best of 7 runs of 4000 attempts each).

`sample_simple` accepts the first simple attempt in attempt order and
builds its `Graph` from the numpy shuffle of that attempt alone, so the
graph, the attempt count and a failure's text are those of testing one
attempt at a time. The default attempt budget grows as
20 / predicted_p_simple and is refused up front above `MAX_DEFAULT_TRIES`.

The niceness conditions checked here are asymptotic in origin; every o(.)
and O(.) is replaced by an explicit finite-size surrogate whose constants
are recorded in the report. A report is informational, never an error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import rng as _rng
from .errors import ParameterError, RejectionFailure, SizeCapError
from .graph import _VERTEX_CAP, Graph
from .rng import _check_streams, substream

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
_KERNEL_ROWS = 2**16  # attempts the kernel checks into one flags array


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
    # one degree per line or several per line; blank lines and # comments
    # skipped; reading stops one degree past the vertex cap, and such a file
    # is refused before its degrees are checked: the prefix read may have an odd sum
    try:
        with open(path, encoding="utf-8") as handle:
            tokens = (token for line in handle if not line.lstrip().startswith("#") for token in line.split())
            tokens = list(islice(tokens, _VERTEX_CAP + 1))
    except UnicodeDecodeError:
        raise ParameterError(f"degree file {path}: not UTF-8 text") from None
    except OSError as exc:
        raise ParameterError(f"degree file {path}: cannot read it: {exc.strerror or exc}") from None
    if len(tokens) > _VERTEX_CAP:
        raise SizeCapError(f"degree file {path}: more than {_VERTEX_CAP} degrees; degree sequences are capped at n={_VERTEX_CAP}")
    degrees = []
    for token in tokens:
        try:
            degrees.append(int(token))
        except ValueError:
            raise ParameterError(f"degree file {path}: expected an integer, got {token!r}") from None
    return DegreeSequence(tuple(degrees))


# --- sampling ---


def _pairing(seq: DegreeSequence, seed: int, index: int) -> np.ndarray:
    """The stub array of attempt index, shuffled with stream (seed, 1 + index);
    consecutive entries are its pairs."""
    stubs = np.repeat(np.arange(seq.n), seq.degrees)
    substream(seed, 1 + index).shuffle(stubs)
    return stubs


def _kernel_flags(seq: DegreeSequence, seed: int, start: int, count: int, stop: bool) -> np.ndarray:
    """The kernel's verdicts on attempts start, ..., start + count - 1.

    Entry i is True when attempt start + i pairs into a simple graph, as
    Graph(seq.n, its pairs).is_simple tells. With stop, the array ends at
    the first simple attempt. A call returns between attempts within about
    2^26 draws, so a long count takes several. A kernel that finds no
    memory for its tables raises MemoryError.
    """
    _check_streams(seed, 1 + start, count)
    stubs = np.repeat(np.arange(seq.n, dtype=np.int64), seq.degrees)
    flags = np.zeros(count, dtype=bool)
    done = 0
    while done < count and not (stop and done and flags[done - 1]):
        checked = _rng._KERNEL.walklab_simple(
            stubs.ctypes.data, stubs.size, seq.n, seed, 1 + start + done, count - done, stop,
            flags[done:].ctypes.data,
        )
        if checked < 0:
            raise MemoryError("no memory for the pairing check's tables")
        done += checked
    return flags[:done]


def _simple_flags(seq: DegreeSequence, seed: int, budget: int, stop: bool):
    """Yield (start, flags) covering attempts 0, ..., budget - 1 in order.

    flags[i] is True when attempt start + i pairs into a simple graph. The
    kernel checks up to _KERNEL_ROWS attempts a block and, with stop, ends
    the block at its first simple attempt.
    """
    for start in range(0, budget, _KERNEL_ROWS):
        yield start, _kernel_flags(seq, seed, start, min(_KERNEL_ROWS, budget - start), stop)


def _configuration_graph(seq: DegreeSequence, pairs: np.ndarray, seed: int, index: int) -> Graph:
    return Graph(seq.n, pairs, name=f"cm-{seq.n}v-s{seed}i{index}")


def sample_configuration(seq: DegreeSequence, seed: int, index: int = 0) -> Graph:
    """One uniform configuration; attempt `index` of the stream keyed by seed."""
    pairs = _pairing(seq, seed, index).reshape(-1, 2)
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
    return. Pairings are tested by `_simple_flags`, and the `Graph` is
    built only for the first simple one in attempt order;
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
    for start, flags in _simple_flags(seq, seed, max_tries, stop=True):
        simple = np.flatnonzero(flags)
        if simple.size:
            attempt = start + int(simple[0])
            return SimpleSample(graph=sample_configuration(seq, seed, attempt), attempts=attempt + 1)
    raise RejectionFailure(
        f"no simple graph in {max_tries} attempts "
        f"(empirical acceptance 0/{max_tries}, predicted {predicted_p_simple(seq):.4g})"
    )


# --- simplicity prediction ---


def nu(seq: DegreeSequence) -> float:
    return sum(d * (d - 1) for d in seq.degrees) / (2.0 * seq.m)


def predicted_p_simple(seq: DegreeSequence) -> float:
    v = nu(seq)
    return math.exp(-v / 2.0 - v * v / 4.0)


# --- niceness ---


def effective_min_degree(seq: DegreeSequence) -> int:
    """Smallest degree held by at least DEFAULT_EFFECTIVE_FRACTION * n vertices.

    Finite-size surrogate for "occurs order n times". If no degree reaches
    the threshold the most frequent one (smallest on ties) is returned.
    """
    threshold = DEFAULT_EFFECTIVE_FRACTION * seq.n
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
