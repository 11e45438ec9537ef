"""Configuration-model sampling and degree-sequence analysis.

Sampling pairs labelled half-edges ("stubs") uniformly at random: the stub
array is shuffled once and consecutive entries are paired, which induces a
uniform perfect matching. Conditioning on the output being simple makes the
law uniform over simple graphs with the given degree sequence, so rejection
sampling is exact.

The niceness conditions checked here are asymptotic in origin; every o(.)
and O(.) is replaced by an explicit finite-size surrogate whose constants
are recorded in the report. A report is informational, never an error.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, RejectionFailure
from .graph import Graph
from .rng import substream

__all__ = [
    "DegreeSequence",
    "NicenessReport",
    "SimpleSample",
    "regular_sequence",
    "random_band_sequence",
    "read_degree_file",
    "write_degree_file",
    "sample_configuration",
    "is_simple",
    "sample_simple",
    "nu",
    "predicted_p_simple",
    "check_nice",
    "effective_min_degree",
    "predicted_cover",
]

DEFAULT_EFFECTIVE_FRACTION = 0.01


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

    def effective_minimum(self, fraction: float = DEFAULT_EFFECTIVE_FRACTION) -> int:
        return effective_min_degree(self, fraction)


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
    degrees = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
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


def write_degree_file(path, seq: DegreeSequence) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(str(d) for d in seq.degrees) + "\n")


# --- sampling ---


def sample_configuration(seq: DegreeSequence, seed: int, index: int = 0) -> Graph:
    """One uniform configuration; attempt `index` of the stream keyed by seed."""
    rng = substream(seed, 1 + index)
    stubs = np.repeat(np.arange(seq.n), seq.degrees)
    rng.shuffle(stubs)
    return Graph(seq.n, stubs.reshape(-1, 2).tolist(), name=f"cm-{seq.n}v-s{seed}i{index}")


def is_simple(g: Graph) -> bool:
    return g.is_simple


@dataclass(frozen=True)
class SimpleSample:
    graph: Graph
    attempts: int


def default_max_tries(seq: DegreeSequence) -> int:
    return max(1000, math.ceil(20.0 / predicted_p_simple(seq)))


def sample_simple(seq: DegreeSequence, seed: int, max_tries: int | None = None) -> SimpleSample:
    """Rejection-sample a uniform simple graph with the given degrees."""
    if max_tries is None:
        max_tries = default_max_tries(seq)
    if max_tries < 1:
        raise ParameterError("max_tries must be positive")
    for attempt in range(max_tries):
        g = sample_configuration(seq, seed, index=attempt)
        if g.is_simple:
            return SimpleSample(graph=g, attempts=attempt + 1)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "nice": self.nice,
                "effective_minimum": self.effective_minimum,
                "parameters": self.parameters,
                "conditions": self.conditions,
            },
            indent=2,
            sort_keys=True,
        )


def check_nice(
    seq: DegreeSequence,
    alpha: float = 0.01,
    kappa: float = 1.0 / 12.0,
    gamma: float | None = None,
    big_o: float = 10.0,
    average_slack: float = 3.0,
    fraction: float = DEFAULT_EFFECTIVE_FRACTION,
) -> NicenessReport:
    """Evaluate the six niceness conditions with explicit finite-size constants.

    kappa must stay below 1/11. gamma defaults to max(2, ln ln n), the
    slowest-growing reading of "gamma tends to infinity" that is still
    usable at small n.
    """
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    if not 0 < kappa < 1.0 / 11.0:
        raise ParameterError("kappa must lie in (0, 1/11)")
    n = seq.n
    if gamma is None:
        gamma = max(2.0, math.log(math.log(n))) if n >= 3 else 2.0
    d = effective_min_degree(seq, fraction)
    theta = seq.theta
    counts = seq.counts

    avg_cap = average_slack * math.sqrt(math.log(n)) if n >= 2 else float("inf")
    cond_i = theta <= avg_cap

    cond_ii = seq.minimum >= 3

    low_range = {
        i: counts.get(i, 0) for i in range(seq.minimum, d)
    }
    low_caps = {i: big_o * n ** (kappa * i / d) for i in low_range}
    cond_iii = all(low_range[i] <= low_caps[i] for i in low_range)

    cond_iv = counts.get(d, 0) >= alpha * n

    high_cap = big_o * n ** (kappa * (d - 1) / d)
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
            "required": alpha * n,
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
            "alpha": alpha,
            "kappa": kappa,
            "gamma": gamma,
            "big_o": big_o,
            "average_slack": average_slack,
            "fraction": fraction,
        },
    )


def predicted_cover(seq: DegreeSequence, fraction: float = DEFAULT_EFFECTIVE_FRACTION) -> float:
    """Leading-order cover time (d-1)/(d-2) * theta/d * n ln n.

    d is the effective minimum degree; the formula has a pole at d = 2,
    so d >= 3 is required.
    """
    d = effective_min_degree(seq, fraction)
    if d < 3:
        raise ParameterError(
            f"cover prediction needs effective minimum degree >= 3, got {d}"
        )
    n = seq.n
    return (d - 1) / (d - 2) * (seq.theta / d) * n * math.log(n)
