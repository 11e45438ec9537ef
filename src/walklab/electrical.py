"""Electrical-network machinery: resistances and cover-time bounds.

A weighted graph is read as a resistor network with edge conductances equal
to the edge weights. Self-loops never carry current, so they are invisible
to every resistance computation here; they still count toward the volume,
which is what links resistance back to commute times:

    commute(u, v) = volume * R(u, v).

The bound functions all return plain floats so reports can serialize them
without ceremony.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeCapError
from .graph import Graph, _sum_left_to_right, grid2d
from .spectral import build_kernel, exact_hitting

__all__ = [
    "harmonic_number",
    "conductance_matrix",
    "resistance_matrix",
    "commute_matrix",
    "spanning_tree_bound",
    "MerstResult",
    "merst_bound",
    "matthews_upper",
    "matthews_lower",
    "grid_resistance_monitor",
    "SUBSET_SEARCH_CAP",
    "GRID_CAP",
]

SUBSET_SEARCH_CAP = 16  # matthews_lower tries every subset, so n is capped
LOWER_MAX_SIZE = 12  # the largest subset size matthews_lower scores
GRID_CAP = 40  # grid_resistance_monitor's largest side k


def harmonic_number(k: int) -> float:
    """h(k) = 1 + 1/2 + ... + 1/k, added left to right; h(0) = 0."""
    return _sum_left_to_right(1.0 / i for i in range(1, k + 1))


def conductance_matrix(g: Graph) -> np.ndarray:
    """Symmetric pooled edge conductances, loops dropped."""
    c = np.zeros((g.n, g.n))
    rows, cols, weights = g.pooled
    c[rows, cols] = weights
    np.fill_diagonal(c, 0.0)  # a loop carries no current
    return c


def resistance_matrix(g: Graph) -> np.ndarray:
    """All-pairs effective resistances from one grounded factorization.

    Ground the last vertex, factor the reduced Laplacian once, and read
    every pair from the Green's function: R(u, v) = G[u,u] + G[v,v] - 2G[u,v]
    with the grounded row and column identically zero.
    """
    g.require("resistance", "connected")
    n = g.n
    # rebound, so the conductance matrix is freed before the solve
    lap = conductance_matrix(g)
    lap = np.diag(lap.sum(axis=1)) - lap
    green = np.zeros((n, n))
    green[: n - 1, : n - 1] = np.linalg.inv(lap[: n - 1, : n - 1])
    diag = np.diag(green)
    r = diag[:, None] + diag[None, :] - green - green.T
    return 0.5 * (r + r.T)


def commute_matrix(g: Graph) -> np.ndarray:
    return g.volume * resistance_matrix(g)


# --- cover-time bounds ---


def spanning_tree_bound(g: Graph) -> tuple[float, float]:
    """The spanning-tree cover bound pair (2m(2n-2), 4mn).

    Stated for simple unweighted connected graphs; the first number is the
    sharp form of the argument, the second its usual rounding.
    """
    g.require("the spanning tree bound", "simple", "unweighted", "connected")
    n, m = g.n, g.m
    return 2.0 * m * (2 * n - 2), 4.0 * m * n


@dataclass(frozen=True)
class MerstResult:
    bound: float  # volume * tree_weight
    tree_weight: float  # total effective resistance of the tree
    edges: tuple[tuple[int, int], ...]


def merst_bound(g: Graph) -> MerstResult:
    """Cover bound via the minimum effective resistance spanning tree.

    Builds the complete graph on V weighted by effective resistance, runs
    Kruskal on it, and returns volume * w(T*). Capped at n = 2000 by the
    dense resistance matrix.
    """
    if g.n > 2000:
        raise SizeCapError(f"merst bound capped at n=2000, got {g.n}")
    n = g.n
    r = resistance_matrix(g)
    pairs = [(float(r[u, v]), u, v) for u in range(n) for v in range(u + 1, n)]
    weight, chosen = _kruskal(n, pairs)
    return MerstResult(g.volume * weight, weight, tuple(chosen))


def _kruskal(n: int, edges: list[tuple[float, int, int]]) -> tuple[float, list[tuple[int, int]]]:
    """Minimum spanning forest of (cost, u, v) edges on vertices 0..n-1.

    Edges are taken in (cost, u, v) order; returns the summed cost, added
    in that order, and the chosen (u, v) pairs.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[tuple[int, int]] = []
    weight = 0.0
    for cost, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
            weight += cost
            if len(chosen) == n - 1:
                break
    return weight, chosen


def _hitting_matrix(g: Graph) -> np.ndarray:
    return exact_hitting(build_kernel(g))


def matthews_upper(g: Graph, hitting: np.ndarray | None = None) -> float:
    """max_{u,v} H[u, v] * h(n)."""
    h = _hitting_matrix(g) if hitting is None else hitting
    return float(h.max()) * harmonic_number(g.n)


def matthews_lower(g: Graph, hitting: np.ndarray | None = None) -> float:
    """Lower cover bound: the largest min-pair-hitting(A) * h(|A| - 1).

    Every subset A of size 2..LOWER_MAX_SIZE is tried, which is only
    feasible on small graphs (capped at SUBSET_SEARCH_CAP vertices). With
    M = min(H, H^T), least[S] = min of M over the pairs in S is built by
    doubling over the top vertex j of S:
    least[S | 2^j] = min(least[S], min of M[u, j] over u in S), the inner
    minimum doubled the same way. Each size's largest least is multiplied
    once by h(k - 1); min and max never round, so this is the same to the
    bit as scoring every subset on its own.
    """
    h = _hitting_matrix(g) if hitting is None else hitting
    n = g.n
    if n > SUBSET_SEARCH_CAP:
        raise SizeCapError(f"exhaustive subset search capped at n={SUBSET_SEARCH_CAP}, got {n}")
    m = np.minimum(h, h.T)
    least = np.full(1 << n, np.inf)
    size = np.zeros(1 << n, dtype=np.int8)
    to_j = np.full(1 << (n - 1), np.inf)  # to_j[S] = min of M[u, j] over u in S
    for j in range(n):
        for i in range(j):
            to_j[1 << i : 2 << i] = np.minimum(to_j[: 1 << i], m[i, j])
        least[1 << j : 2 << j] = np.minimum(least[: 1 << j], to_j[: 1 << j])
        size[1 << j : 2 << j] = size[: 1 << j] + 1
    best = 0.0
    for k in range(2, min(LOWER_MAX_SIZE, n) + 1):
        best = max(best, float(least[size == k].max()) * harmonic_number(k - 1))
    return best


# --- monitors ---


def grid_resistance_monitor(k: int) -> float:
    """The largest pairwise effective resistance on the k x k grid."""
    if k < 2:
        raise ParameterError("grid monitor needs k >= 2")
    if k > GRID_CAP:
        raise SizeCapError(f"grid monitor capped at k={GRID_CAP}, got {k}")
    return float(resistance_matrix(grid2d(k, k)).max())
