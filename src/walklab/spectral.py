"""Exact chain-level computations: kernels, hitting, cover, mixing.

Everything in this module is deterministic dense linear algebra. The size
caps are honest statements about what dense methods can do, not tuning
knobs: exact hitting stops at n = 5000 (one factorization of an n x n
matrix; about 9 s and 1 GB at the cap with one BLAS thread) and the exact
cover-time recursion at COVER_CAP vertices (it enumerates visited sets,
with one stacked solve per set size into a (2^n, n) table of about 0.85 MB
at the cap).

scipy.linalg is imported inside the three functions that call it
(exact_hitting, kernel_eigenvalues, load_kernel), not at the top: the
import costs about 0.3 s of process start-up, and an experiment that never
makes a dense solve should not pay it. The deferral saves start-up time
only; it does not mark an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DisconnectedError,
    NumericTimeout,
    ParameterError,
    SizeCapError,
    UnsupportedInputError,
)
from .graph import Graph
from .weighting import apply_scheme

__all__ = [
    "TransitionKernel",
    "build_kernel",
    "exact_hitting",
    "first_return",
    "harmonic_extension",
    "kernel_eigenvalues",
    "spectral_gap",
    "mixing_time",
    "mixing_distance",
    "return_count",
    "exact_cover_time",
    "exact_cover_times",
    "detailed_balance_check",
    "chain_to_graph",
    "dump_kernel",
    "load_kernel",
    "COVER_CAP",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
COVER_CAP = 13  # the cover recursion visits every subset of the vertices


@dataclass(frozen=True)
class TransitionKernel:
    """A validated row-stochastic walk matrix with its stationary law.

    Attributes
    ----------
    matrix : ndarray
        Row-stochastic (n, n) matrix; rows sum to 1 within 1e-12.
    stationary : ndarray
        The stationary distribution, validated against pi P = pi at 1e-10.
        For kernels built from a graph this is the closed form c(v)/c(G).
    lazy : bool
        True if the kernel was built as (P + I) / 2.
    scheme : str
        Weighting scheme identifier recorded for reports.
    name : str
    graph : Graph or None
        Source graph when the kernel came from one.
    """

    matrix: np.ndarray
    stationary: np.ndarray
    lazy: bool = False
    scheme: str = "uniform"
    name: str = "kernel"
    graph: Graph | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ParameterError("kernel matrix must be square")
        if (p < -1e-15).any():
            raise ParameterError("kernel has negative entries")
        rows = p.sum(axis=1)
        worst = float(np.abs(rows - 1.0).max())
        if worst > ROW_SUM_TOL:
            raise ParameterError(f"kernel rows sum to 1 off by {worst:.3e}")
        pi = np.asarray(self.stationary, dtype=float)
        if pi.shape != (p.shape[0],):
            raise ParameterError("stationary vector has wrong shape")
        if abs(float(pi.sum()) - 1.0) > STATIONARY_TOL or (pi <= 0).any():
            raise ParameterError("stationary vector is not a positive distribution")
        drift = float(np.abs(pi @ p - pi).max())
        if drift > STATIONARY_TOL:
            raise ParameterError(f"pi P = pi violated by {drift:.3e}")
        p.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "matrix", p)
        object.__setattr__(self, "stationary", pi)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_kernel(g: Graph, scheme: str = "uniform", lazy: bool = False) -> TransitionKernel:
    """Walk kernel of a weighted graph: P[u, v] = c(u, v) / c(u).

    Parallel edges pool their weights and a self-loop of weight w yields
    P[u, u] = 2w / c(u), both consequences of the edge-end convention.
    With lazy=True the kernel is (P + I) / 2; the stationary law is
    unchanged by laziness.
    """
    if not g.is_connected:
        raise DisconnectedError(f"{g.name} is disconnected")
    h = apply_scheme(g, scheme)
    n = h.n
    p = np.zeros((n, n))
    for u, v, w in h.edges:
        p[u, v] += w
        p[v, u] += w  # a loop lands here twice, doubling its weight
    c = h.weighted_degrees
    p /= c[:, None]
    if lazy:
        p = 0.5 * p + 0.5 * np.eye(n)
    pi = c / c.sum()
    return TransitionKernel(
        matrix=p, stationary=pi, lazy=lazy, scheme=scheme, name=h.name, graph=h
    )


# --- hitting and return times ---


def exact_hitting(kernel: TransitionKernel) -> np.ndarray:
    """Hitting-time matrix H[u, v] = expected steps from u to v.

    Kemeny-Snell fundamental-matrix identity: with Z = (I - P + 1 pi^T)^-1,
    H[u, v] = (Z[v, v] - Z[u, v]) / pi[v]. One LU factorization of
    I - P + 1 pi^T per kernel, solved against the identity: O(n^3) time and
    a few n x n arrays. Capped at n = 5000, where it takes about 9 s and
    1 GB with one BLAS thread. Against the path and cycle closed forms the
    relative error is at most 6e-10 up to n = 2000.
    """
    n = kernel.n
    if n > 5000:
        raise SizeCapError(f"exact hitting capped at n=5000 (one dense factorization), got {n}")
    import scipy.linalg

    pi = kernel.stationary
    lu = scipy.linalg.lu_factor(np.eye(n) - kernel.matrix + pi[None, :], overwrite_a=True)
    z = scipy.linalg.lu_solve(lu, np.eye(n), overwrite_b=True)
    return (np.diag(z)[None, :] - z) / pi[None, :]


def first_return(kernel: TransitionKernel) -> np.ndarray:
    """Expected first-return times, the closed form 1 / pi."""
    return 1.0 / kernel.stationary


def harmonic_extension(kernel: TransitionKernel, boundary: Mapping[int, float]) -> np.ndarray:
    """Extend boundary values to the unique function harmonic elsewhere.

    f(u) = sum_v P[u, v] f(v) for u outside the boundary; f equals the
    given values on the boundary.
    """
    if not boundary:
        raise ParameterError("harmonic extension needs a non-empty boundary")
    n = kernel.n
    a = np.eye(n) - kernel.matrix
    b = np.zeros(n)
    for v, value in boundary.items():
        if not 0 <= v < n:
            raise ParameterError(f"boundary vertex {v} out of range")
        a[v, :] = 0.0
        a[v, v] = 1.0
        b[v] = float(value)
    return np.linalg.solve(a, b)


# --- spectrum and mixing ---


def kernel_eigenvalues(kernel: TransitionKernel, tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues of the kernel, descending. Requires reversibility.

    Conjugating by sqrt(pi) turns a reversible kernel into a symmetric
    matrix with the same spectrum, so eigh applies.
    """
    import scipy.linalg

    gap = detailed_balance_check(kernel)
    if gap > tol:
        raise UnsupportedInputError(
            f"kernel is not reversible (detailed balance off by {gap:.3e})"
        )
    root = np.sqrt(kernel.stationary)
    sym = kernel.matrix * (root[:, None] / root[None, :])
    sym = 0.5 * (sym + sym.T)
    return scipy.linalg.eigh(sym, eigvals_only=True)[::-1]


def spectral_gap(kernel: TransitionKernel) -> float:
    """1 - lambda_2 of a reversible kernel."""
    return float(1.0 - kernel_eigenvalues(kernel)[1])


def mixing_distance(kernel: TransitionKernel, t: int) -> float:
    """max_{u, x} |P^t[u, x] - pi_x| by exact matrix powers."""
    power = np.linalg.matrix_power(kernel.matrix, t)
    return float(np.abs(power - kernel.stationary[None, :]).max())


def mixing_time(
    kernel: TransitionKernel, threshold: float | None = None, cap: int = 10**6
) -> int:
    """Smallest t with max_{u,x} |P^t[u, x] - pi_x| below the threshold.

    The default threshold is n^-3. Found by doubling t until the distance
    drops below the threshold, then binary searching the bracket; powers
    are assembled exactly from the stored squarings. Raises NumericTimeout
    past the step cap (a bipartite non-lazy chain never gets there).
    """
    n = kernel.n
    if threshold is None:
        threshold = float(n) ** -3
    pi = kernel.stationary[None, :]

    def dist(mat: np.ndarray) -> float:
        return float(np.abs(mat - pi).max())

    squarings = [kernel.matrix]  # squarings[k] = P^(2^k)
    t = 1
    while dist(squarings[-1]) > threshold:
        if 2 * t > cap:
            raise NumericTimeout(
                f"mixing time exceeded cap {cap} at threshold {threshold:.3e}"
            )
        squarings.append(squarings[-1] @ squarings[-1])
        t *= 2
    if t == 1:
        return 1

    def power(steps: int) -> np.ndarray:
        out = None
        k = 0
        while steps:
            if steps & 1:
                out = squarings[k] if out is None else out @ squarings[k]
            steps >>= 1
            k += 1
        return out

    lo, hi = t // 2, t  # dist(lo) > threshold >= dist(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dist(power(mid)) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def return_count(kernel: TransitionKernel, v: int, horizon: int) -> float:
    """Expected visits to v in the first `horizon` steps of the walk from v.

    Counts the visit at time 0, so the value is always at least 1:
    R_v(T) = sum_{t=0}^{T-1} P^t[v, v].
    """
    if horizon < 1:
        raise ParameterError("horizon must be at least 1")
    row = np.zeros(kernel.n)
    row[v] = 1.0
    total = 0.0
    for _ in range(horizon):
        total += float(row[v])
        row = row @ kernel.matrix
    return total


# --- exact cover time ---


def _cover_remaining(kernel: TransitionKernel) -> np.ndarray:
    """Backward recursion over visited sets, one stacked solve per set size.

    remaining[S, v] is the expected number of further steps to finish
    covering from v, having visited exactly the set S (a bitmask). For fixed
    S these values solve (I - P[S, S]) x = 1 + sum_{w not in S} P[S, w]
    remaining[S | w, w], so sets go by decreasing size, all sets of one size
    in one stacked np.linalg.solve. The right side is summed over ascending
    w, as a per-set loop would, so every value is the same to the bit. The
    dense (2^n, n) table is about 0.85 MB at n = COVER_CAP. It is the one
    route to exact cover times, from one start or from all.
    """
    n = kernel.n
    p = kernel.matrix
    sets = np.arange(1 << n)
    member = ((sets[:, None] >> np.arange(n)) & 1).astype(bool)
    size = member.sum(axis=1)
    remaining = np.zeros((1 << n, n))
    for k in range(n - 1, 0, -1):
        s = sets[size == k]
        idx = np.nonzero(member[s])[1].reshape(len(s), k)
        a = np.eye(k) - p[idx[:, :, None], idx[:, None, :]]
        b = np.ones((len(s), k))
        for w in range(n):
            # for w in S the row S | w is S itself, still all zero, so the
            # term adds an exact 0.0 and needs no mask
            b += p[idx, w] * remaining[s | (1 << w), w][:, None]
        remaining[s[:, None], idx] = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    return remaining


def exact_cover_time(kernel: TransitionKernel, start: int = 0) -> float:
    """Expected cover time from `start`: its entry of exact_cover_times."""
    if not 0 <= start < kernel.n:
        raise ParameterError(f"start {start} out of range")
    return float(exact_cover_times(kernel)[start])


def exact_cover_times(kernel: TransitionKernel) -> np.ndarray:
    """Expected cover time from every start vertex. Exponential in n; capped at COVER_CAP."""
    n = kernel.n
    if n > COVER_CAP:
        raise SizeCapError(f"exact cover time capped at n={COVER_CAP}, got {n}")
    starts = np.arange(n)
    return _cover_remaining(kernel)[1 << starts, starts]


# --- reversibility and round trips ---


def detailed_balance_check(kernel: TransitionKernel) -> float:
    """Largest violation of pi_i P[i, j] = pi_j P[j, i]."""
    flow = kernel.stationary[:, None] * kernel.matrix
    return float(np.abs(flow - flow.T).max())


def chain_to_graph(kernel: TransitionKernel, tol: float = 1e-9, name: str = "") -> Graph:
    """Reconstruct the weighted graph whose walk is the given kernel.

    Edge (i, j) gets conductance pi_i P[i, j] for i != j and a self-loop
    gets pi_i P[i, i] / 2 (the loop's weight is double-counted back by the
    walk). Only reversible kernels correspond to graphs.
    """
    gap = detailed_balance_check(kernel)
    if gap > tol:
        raise UnsupportedInputError(
            f"kernel is not reversible (detailed balance off by {gap:.3e}); "
            f"no weighted graph induces it"
        )
    pi = kernel.stationary
    p = kernel.matrix
    n = kernel.n
    edges = []
    for i in range(n):
        if p[i, i] > 0:
            edges.append((i, i, pi[i] * p[i, i] / 2.0))
        for j in range(i + 1, n):
            w = 0.5 * (pi[i] * p[i, j] + pi[j] * p[j, i])
            if w > 0:
                edges.append((i, j, w))
    return Graph(n, edges, name=name or f"from-kernel({kernel.name})")


# --- serialization ---


def dump_kernel(kernel: TransitionKernel) -> str:
    """CSV with a `# kernel` header comment; entries use repr floats."""
    lines = [f"# kernel n={kernel.n} scheme={kernel.scheme} lazy={int(kernel.lazy)}"]
    for row in kernel.matrix:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_kernel(text: str, name: str = "kernel") -> TransitionKernel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# kernel"):
        raise ParameterError("kernel text must start with a '# kernel' header")
    fields = dict(
        part.split("=", 1) for part in lines[0].removeprefix("# kernel").split()
    )
    n = int(fields["n"])
    scheme = fields.get("scheme", "uniform")
    lazy = bool(int(fields.get("lazy", "0")))
    rows = [np.array([float(x) for x in ln.split(",")]) for ln in lines[1:]]
    if len(rows) != n or any(r.shape != (n,) for r in rows):
        raise ParameterError("kernel body does not match the declared size")
    import scipy.linalg

    p = np.vstack(rows)
    # stationary recovered as the left fixed vector
    w, vl = scipy.linalg.eig(p, left=True, right=False)
    k = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(vl[:, k])
    pi = pi / pi.sum()
    return TransitionKernel(matrix=p, stationary=pi, lazy=lazy, scheme=scheme, name=name)
