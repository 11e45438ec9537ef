"""Exact chain-level computations: kernels, hitting, cover, spectrum.

Everything in this module is deterministic dense linear algebra. The size
caps are honest statements about what dense methods can do, not tuning
knobs: exact hitting stops at n = 5000 (one factorization of an n x n
matrix, O(n^3) time and O(n^2) memory; n = 3000 takes about 2.6 s and
285 MB with one BLAS thread) and the exact cover-time recursion at
COVER_CAP vertices (it enumerates visited sets, with one stacked solve per
set size into a table of one n-vector per connected visited set plus a
zero row, read through a 2^n int64 row index; the table reaches about
0.85 MB at the cap only on complete:13, where every set is connected).
A walk's visited set is always connected in the support of P, and a term
P[S, w] that would leave a connected S for a disconnected S | w is
exactly 0, so the recursion solves the connected sets only: 90 of the
8190 proper nonempty sets on path:13, all of them on complete:13. The
compiled kernel (`rng._KERNEL`) enumerates those sets and assembles and
stores each size's systems; numpy.linalg solves them.

mindeg_invariant_report checks the min-degree weighting's guarantees on
one graph; its hitting-time bound needs the exact hitting solve here.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import rng as _rng
from .errors import ParameterError, SizeCapError, UnsupportedInputError
from .graph import Graph
from .rng import substream
from .weighting import apply_scheme

__all__ = [
    "TransitionKernel",
    "build_kernel",
    "exact_hitting",
    "kernel_eigenvalues",
    "exact_cover_time",
    "exact_cover_times",
    "detailed_balance_check",
    "mindeg_invariant_report",
    "COVER_CAP",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
COVER_CAP = 13  # the cover recursion's set enumeration and row index hold 2^n entries


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
    """

    matrix: np.ndarray
    stationary: np.ndarray
    lazy: bool = False

    def __post_init__(self) -> None:
        p = np.asarray(self.matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ParameterError("kernel matrix must be square")
        if not np.isfinite(p).all():
            raise ParameterError("kernel matrix has non-finite entries")
        if (p < -1e-15).any():
            raise ParameterError("kernel has negative entries")
        rows = p.sum(axis=1)
        worst = float(np.abs(rows - 1.0).max())
        if worst > ROW_SUM_TOL:
            raise ParameterError(f"kernel rows sum to 1 off by {worst:.3e}")
        pi = np.asarray(self.stationary, dtype=float)
        if pi.shape != (p.shape[0],):
            raise ParameterError("stationary vector has wrong shape")
        if not np.isfinite(pi).all():
            raise ParameterError("stationary vector has non-finite entries")
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
    g.require("a walk kernel", "connected")
    if g.m == 0:
        raise UnsupportedInputError(f"{g.name} has no edges, so no walk can move")
    h = apply_scheme(g, scheme)
    n = h.n
    p = np.zeros((n, n))
    rows, cols, weights = h.pooled
    p[rows, cols] = weights
    c = h.weighted_degrees
    p /= c[:, None]
    if lazy:
        p = 0.5 * p + 0.5 * np.eye(n)
    pi = c / c.sum()
    return TransitionKernel(matrix=p, stationary=pi, lazy=lazy)


# --- hitting times ---


def exact_hitting(kernel: TransitionKernel) -> np.ndarray:
    """Hitting-time matrix H[u, v] = expected steps from u to v.

    Kemeny-Snell fundamental-matrix identity: with Z = (I - P + 1 pi^T)^-1,
    H[u, v] = (Z[v, v] - Z[u, v]) / pi[v]. np.linalg.inv runs LAPACK's gesv:
    one LU factorization of I - P + 1 pi^T per kernel, solved against the
    identity, in O(n^3) time and a few n x n arrays. Capped at n = 5000; on
    cycle:3000 it takes about 2.6 s and raises the peak by 285 MB with one
    BLAS thread. Against the path and cycle closed forms the relative error
    is at most 6e-10 up to n = 2000.
    """
    n = kernel.n
    if n > 5000:
        raise SizeCapError(f"exact hitting capped at n=5000 (one dense factorization), got {n}")
    pi = kernel.stationary
    z = np.linalg.inv(np.eye(n) - kernel.matrix + pi[None, :])
    return (np.diag(z)[None, :] - z) / pi[None, :]


# --- spectrum ---


def kernel_eigenvalues(kernel: TransitionKernel) -> np.ndarray:
    """Eigenvalues of the kernel, descending. Requires detailed balance to 1e-8.

    Conjugating by sqrt(pi) turns a reversible kernel into a symmetric
    matrix with the same spectrum, so LAPACK's symmetric solver applies.
    """
    gap = detailed_balance_check(kernel)
    if gap > 1e-8:
        raise UnsupportedInputError(
            f"kernel is not reversible (detailed balance off by {gap:.3e})"
        )
    return np.linalg.eigvalsh(_symmetrized(kernel)[0])[::-1]


def _symmetrized(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """(S, sqrt(pi)): S = D P D^-1 with D = diag(sqrt(pi)), averaged with its transpose."""
    root = np.sqrt(kernel.stationary)
    sym = kernel.matrix * (root[:, None] / root[None, :])
    sym = 0.5 * (sym + sym.T)
    return sym, root


# --- exact cover time ---


def _connected_masks(support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty vertex sets that induce a connected subgraph of a
    symmetric boolean support matrix, as ascending bitmasks, with their
    sizes (int8), from walklab_connected: S is connected when the flood
    from its lowest vertex through S's own vertices reaches all of S."""
    n = support.shape[0]
    adj = (support.astype(np.int64) << np.arange(n)).sum(axis=1)
    sets = np.empty((1 << n) - 1, dtype=np.int64)
    size = np.empty((1 << n) - 1, dtype=np.int8)
    count = _rng._KERNEL.walklab_connected(n, adj.ctypes.data, sets.ctypes.data, size.ctypes.data)
    return sets[:count], size[:count]


def _cover_remaining(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion over connected visited sets, one stacked solve per set size.

    Returns (remaining, row): remaining[row[S], v] is the expected number of
    further steps to finish covering from v, having visited exactly the set
    S (a bitmask). For fixed S these values solve (I - P[S, S]) x =
    1 + sum_{w not in S} P[S, w] remaining[row[S | w], w], so sets go by
    decreasing size, all sets of one size in one stacked np.linalg.solve.
    walklab_cover_layer builds each size's systems, every entry of I - P[S, S]
    by the one subtraction np.eye(k) - P makes and every right side summed
    over ascending w, as a per-set loop in numpy would, so every value is
    that loop's to the bit; walklab_cover_store puts the solutions in
    remaining. p, the sets, row and remaining are C-contiguous, as C reads
    them.

    A walk's visited set is connected in the support of P (the nonzero
    entries of P or P^T; a tiny negative entry the kernel admits is a
    link), so only connected sets are solved, and only they get a row of
    remaining; row maps every other mask of the 2^n to row 0, which stays
    zero. That loses nothing: for a connected S and w outside it, either
    S | w is connected, and so already solved, or every P[S, w] is exactly
    0, so its term adds 0 whichever row it reads. It is the one route to
    exact cover times, from one start or from all.
    """
    n = kernel.n
    p = np.ascontiguousarray(kernel.matrix)
    support = p != 0
    sets, size = _connected_masks(support | support.T)
    row = np.zeros(1 << n, dtype=np.int64)
    row[sets] = np.arange(1, len(sets) + 1)
    remaining = np.zeros((len(sets) + 1, n))
    compiled, rows, table = _rng._KERNEL, row.ctypes.data, remaining.ctypes.data
    for k in range(n - 1, 0, -1):
        s = sets[size == k]
        count, masks = len(s), s.ctypes.data
        a = np.empty((count, k, k))
        b = np.empty((count, k))
        compiled.walklab_cover_layer(n, k, count, p.ctypes.data, masks, rows, table, a.ctypes.data, b.ctypes.data)
        x = np.ascontiguousarray(np.linalg.solve(a, b[:, :, None])[:, :, 0])
        compiled.walklab_cover_store(n, k, count, masks, rows, x.ctypes.data, table)
    return remaining, row


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
    remaining, row = _cover_remaining(kernel)
    return remaining[row[1 << starts], starts]


# --- reversibility ---


def detailed_balance_check(kernel: TransitionKernel) -> float:
    """Largest violation of pi_i P[i, j] = pi_j P[j, i]."""
    flow = kernel.stationary[:, None] * kernel.matrix
    return float(np.abs(flow - flow.T).max())


# --- the min-degree scheme ---


def mindeg_invariant_report(g: Graph, seed: int = 0, path_pairs: int = 100) -> dict:
    """Check the min-deg scheme's structural guarantees on one graph.

    Checks, each reported with observed value, bound, and a pass flag:

    - total weight w(G) within [n, 2n]
    - every vertex weight w(u) within [1, d(u)]
    - every stationary probability within [1/(2n), d(u)/n]
    - maximum exact hitting time at most 6 n^2
    - degree sums along `path_pairs` random shortest paths at most 3n

    The cover-time guarantee of the scheme is asymptotic (it assumes the
    maximum degree grows slower than some power of the growth parameter),
    so it is noted but never enforced here.
    """
    n = g.n
    weighted = apply_scheme(g, "mindeg")
    total = weighted.volume
    wvec = weighted.weighted_degrees
    d = g.degrees.astype(float)

    kernel = build_kernel(weighted)
    pi = kernel.stationary
    hitting = exact_hitting(kernel)
    max_hit = float(hitting.max())

    rng = substream(seed, 0)
    max_path_sum = 0
    for _ in range(path_pairs):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        route = g.shortest_path(u, v)
        max_path_sum = max(max_path_sum, int(sum(g.degree(x) for x in route)))

    checks = {
        "total_weight": {
            "observed": total,
            "bounds": [float(n), float(2 * n)],
            "passed": bool(n - 1e-9 <= total <= 2 * n + 1e-9),
        },
        "vertex_weights": {
            "observed_min": float(wvec.min()),
            "observed_max_excess": float((wvec - d).max()),
            "passed": bool(wvec.min() >= 1.0 - 1e-9 and (wvec <= d + 1e-9).all()),
        },
        "stationary_band": {
            "observed_min": float(pi.min()),
            "observed_max_ratio": float((pi * n / d).max()),
            "passed": bool(
                pi.min() >= 1.0 / (2 * n) - 1e-12 and (pi <= d / n + 1e-12).all()
            ),
        },
        "max_hitting": {
            "observed": max_hit,
            "bound": float(6 * n * n),
            "passed": bool(max_hit <= 6 * n * n + 1e-6),
        },
        "path_degree_sums": {
            "pairs": path_pairs,
            "observed_max": max_path_sum,
            "bound": 3 * n,
            "passed": bool(max_path_sum <= 3 * n),
        },
    }
    return {
        "graph": g.name,
        "n": n,
        "m": g.m,
        "scheme": "mindeg",
        "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks.values()),
        "note": (
            "cover-time guarantee of the scheme is asymptotic in n and "
            "restricted to slowly growing maximum degree; reported only"
        ),
    }
