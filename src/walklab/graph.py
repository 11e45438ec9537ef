"""Weighted undirected multigraphs and the standard graph families.

Conventions used everywhere downstream:

- Edges are unordered pairs with a strictly positive weight. Self-loops and
  parallel edges are allowed unless an operation refuses them through
  `Graph.require`, the one check of which graphs an operation takes.
- The degree of a vertex counts edge ends, so a self-loop adds 2. The
  weighted degree does the same with weights: a loop of weight w adds 2w.
- The volume of a graph is the sum of weighted degrees, i.e. twice the sum
  of all edge weights.
- Parallel edges pool: `Graph.pooled` is the one place that adds an
  edge's weight into its ordered pairs, (u, v) and then (v, u), in edge
  order, so a loop of weight w adds 2w at (u, u). Kernels, conductances
  and walk tables all read it.

Graphs are immutable. Anything that "modifies" a graph builds a new one.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedError, ParameterError, SizeCapError, UnsupportedInputError

__all__ = [
    "Graph",
    "path",
    "cycle",
    "complete",
    "star",
    "binary_tree",
    "grid2d",
    "torus2d",
    "lollipop",
    "family",
    "FAMILY_NAMES",
    "cartesian_product",
    "random_connected_graph",
]

# Every graph is refused above these caps before its edge list is built in
# full. A million vertices is ten times the largest degree sequence
# measured: a mixed 3/5 sequence at n = 100 000 sampled in 5.4 s and built
# 28.8 MB of walk tables. At that n the default rejection budget admits at
# most about 3.3 million edges from a degree file, so four million refuses
# no input that samples; complete:1500, with 1.1 million edges, peaked at
# 543 MB to build.
_VERTEX_CAP = 10**6
_EDGE_CAP = 4 * 10**6


class Graph:
    """An immutable weighted undirected multigraph on vertices 0..n-1.

    Parameters
    ----------
    n : int
        Number of vertices, from 1 to _VERTEX_CAP.
    edges : iterable of (u, v) or (u, v, weight)
        Endpoints in range(n); omitted weights default to 1.0. Weights must
        be positive and finite, and so must the volume, twice their sum.
        Loops (u == v) and repeated pairs are kept. At most _EDGE_CAP
        edges are read; one more is refused.
    name : str, optional
        Free-form label used in reports; ignored by equality.
    """

    def __init__(self, n: int, edges: Iterable[Sequence], name: str = "") -> None:
        if n < 1:
            raise ParameterError(f"graph needs at least one vertex, got n={n}")
        if n > _VERTEX_CAP:
            raise SizeCapError(f"graphs are capped at {_VERTEX_CAP} vertices, got n={n}")
        normalized: list[tuple[int, int, float]] = []
        for e in islice(edges, _EDGE_CAP + 1):
            if len(e) == 2:
                u, v = e
                w = 1.0
            elif len(e) == 3:
                u, v, w = e
            else:
                raise ParameterError(f"edge {e!r} is not a pair or weighted triple")
            u = int(u)
            v = int(v)
            w = float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if not 0.0 < w < math.inf:
                raise ParameterError(f"edge ({u}, {v}) weight {w} is not positive and finite")
            if u > v:
                u, v = v, u
            normalized.append((u, v, w))
        if len(normalized) > _EDGE_CAP:
            raise SizeCapError(f"graphs are capped at {_EDGE_CAP} edges")
        self._n = n
        self._edges = tuple(normalized)
        self.name = name or f"graph(n={n},m={len(normalized)})"
        if not math.isfinite(self.volume):
            raise ParameterError(f"volume of {self.name}, twice its weight sum, is not finite")

    # --- basic accessors ---

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of edges; a loop counts as one edge."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return self._edges

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        # edge ends u0, v0, u1, v1, ... in edge order, each with its weight
        ends = np.array([(u, v) for u, v, _ in self._edges], dtype=np.int64).ravel()
        return ends, np.array([w for _, _, w in self._edges]).repeat(2)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Integer edge-end counts; loops count twice."""
        return np.bincount(self._ends[0], minlength=self._n)

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        """Weighted edge-end sums; a loop of weight w contributes 2w."""
        # bincount adds in input order, so each sum runs in edge order; with
        # no edges it returns integers
        ends, weights = self._ends
        return np.bincount(ends, weights=weights, minlength=self._n).astype(float, copy=False)

    @property
    def volume(self) -> float:
        """Sum of weighted degrees, which is twice the sum of edge weights."""
        return 2.0 * float(sum(w for _, _, w in self._edges))

    @cached_property
    def pooled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, weights): the pooled weight of every ordered pair an edge joins.

        Pairs come in ascending (row, col) order. Edge (u, v, w) adds w at
        (u, v) and then at (v, u), so a loop adds 2w at (u, u), and parallel
        edges add in edge order: each weight is the sum a loop over the
        edges would build, to the bit.
        """
        ends, weights = self._ends
        others = ends.reshape(-1, 2)[:, ::-1].ravel()  # v0, u0, v1, u1, ...
        keys, where = np.unique(ends * self._n + others, return_inverse=True)
        pooled = np.zeros(len(keys))
        np.add.at(pooled, where, weights)
        table = keys // self._n, keys % self._n, pooled
        for column in table:
            column.setflags(write=False)  # every reader shares this one table
        return table

    @cached_property
    def _adjacency_sets(self) -> list[list[int]]:
        # distinct neighbors, self excluded, each list sorted ascending
        rows, cols, _ = self.pooled
        apart = rows != cols
        starts = np.searchsorted(rows[apart], np.arange(self._n + 1)).tolist()
        cols = cols[apart].tolist()
        return [cols[a:b] for a, b in zip(starts, starts[1:])]

    def neighbors(self, u: int) -> list[int]:
        """Distinct non-self neighbors of u in ascending order."""
        return list(self._adjacency_sets[u])

    @property
    def is_simple(self) -> bool:
        """No loops and no parallel edges: every edge adds two pairs of its own."""
        return len(self.pooled[0]) == 2 * self.m

    @property
    def is_unit_weighted(self) -> bool:
        return all(w == 1.0 for _, _, w in self._edges)

    def require(self, what: str, *properties: str) -> None:
        """Refuse this graph for `what` unless it has each named property, in order.

        "simple" (no loops or parallel edges) and "unweighted" (every weight
        1) raise UnsupportedInputError; "connected" raises DisconnectedError.
        """
        for prop in properties:
            attr, error, fault = {
                "simple": ("is_simple", UnsupportedInputError, "has loops or parallel edges"),
                "unweighted": ("is_unit_weighted", UnsupportedInputError, "is weighted"),
                "connected": ("is_connected", DisconnectedError, "is disconnected"),
            }[prop]
            if not getattr(self, attr):
                raise error(f"{what} takes only {prop} graphs; {self.name} {fault}")

    # --- traversal ---

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from source; -1 marks unreachable vertices."""
        dist = [-1] * self._n
        dist[source] = 0
        frontier = [source]
        adj = self._adjacency_sets
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return np.array(dist, dtype=np.int64)

    @cached_property
    def is_connected(self) -> bool:
        return bool((self.bfs_distances(0) >= 0).all())

    def shortest_path(self, source: int, target: int) -> list[int]:
        """One shortest path as a vertex list, lowest-label tie-break.

        Walking back from the target, each step goes to the lowest-labelled
        neighbour one hop nearer the source. That is the path a BFS scanning
        its frontier and each neighbour list in ascending order records.
        """
        dist = self.bfs_distances(source).tolist()
        if dist[target] < 0:
            raise DisconnectedError(
                f"no path from {source} to {target} in {self.name}"
            )
        adj = self._adjacency_sets
        out = [target]
        while out[-1] != source:
            v = out[-1]
            out.append(next(u for u in adj[v] if dist[u] == dist[v] - 1))
        return out[::-1]

    @cached_property
    def diameter(self) -> int:
        """Largest hop distance over all pairs. Requires connectivity."""
        best = 0
        for s in range(self._n):
            dist = self.bfs_distances(s)
            if (dist < 0).any():
                raise DisconnectedError(f"{self.name} is disconnected")
            best = max(best, int(dist.max()))
        return best

    # --- identity ---

    def _key(self) -> tuple:
        multiset = tuple(sorted((u, v, round(w, 12)) for u, v, w in self._edges))
        return (self._n, multiset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Graph({self.name!r}, n={self._n}, m={self.m})"

    # --- serialization ---

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "Graph":
        """Parse the text form: a header line `n m`, then one `u v w` per edge.

        Blank lines and lines starting with # are skipped.
        """
        rows = [
            ln
            for ln in (s.strip() for s in text.splitlines())
            if ln and not ln.startswith("#")
        ]
        if not rows:
            raise ParameterError("empty graph text")
        head = rows[0].split()
        if len(head) != 2:
            raise ParameterError(f"bad header line {rows[0]!r}, expected 'n m'")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError:
            raise ParameterError(
                f"bad header line {rows[0]!r}, expected integers 'n m'"
            ) from None
        if len(rows) - 1 != m:
            raise ParameterError(
                f"header promises {m} edges but {len(rows) - 1} lines follow"
            )
        edges = []
        for ln in rows[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise ParameterError(f"bad edge line {ln!r}, expected 'u v w'")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise ParameterError(
                    f"bad edge line {ln!r}, expected integers u v and a number w"
                ) from None
        return cls(n, edges, name=name)

    def with_weights(self, weights: Sequence[float], name: str = "") -> "Graph":
        """Copy with the i-th edge reweighted to weights[i]."""
        if len(weights) != self.m:
            raise ParameterError("need one weight per edge")
        edges = [(u, v, float(w)) for (u, v, _), w in zip(self._edges, weights)]
        return Graph(self._n, edges, name=name or self.name)


# --- families ---


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"path:{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle:{n}")


def _refuse_edge_count(m: int, name: str) -> None:
    # a family whose edge count is a closed form is refused before it
    # builds, not after Graph has normalised _EDGE_CAP edges
    if m > _EDGE_CAP:
        raise SizeCapError(f"{name} has {m} edges; graphs are capped at {_EDGE_CAP} edges")


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete needs n >= 1")
    _refuse_edge_count(n * (n - 1) // 2, f"complete:{n}")
    edges = ((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(n, edges, name=f"complete:{n}")


def star(n: int) -> Graph:
    """Center 0 joined to leaves 1..n-1."""
    if n < 2:
        raise ParameterError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)], name=f"star:{n}")


def binary_tree(n: int) -> Graph:
    """Heap-shaped binary tree: vertex i > 0 hangs under (i - 1) // 2."""
    if n < 1:
        raise ParameterError("binary-tree needs n >= 1")
    return Graph(n, [(i, (i - 1) // 2) for i in range(1, n)], name=f"binary-tree:{n}")


def grid2d(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (i, j) is numbered i * cols + j."""
    if rows < 1 or cols < 1:
        raise ParameterError("grid2d needs rows, cols >= 1")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges, name=f"grid2d:{rows},{cols}")


def torus2d(rows: int, cols: int) -> Graph:
    """Grid with wrap-around in both directions; needs rows, cols >= 3.

    Smaller sizes would create parallel edges and leave the product
    identities used in tests false, so they are rejected.
    """
    if rows < 3 or cols < 3:
        raise ParameterError("torus2d needs rows, cols >= 3")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, i * cols + (j + 1) % cols))
            edges.append((v, ((i + 1) % rows) * cols + j))
    return Graph(rows * cols, edges, name=f"torus2d:{rows},{cols}")


def lollipop(n: int) -> Graph:
    """Clique on about 2n/3 vertices with a path on the rest.

    Vertices 0..k-1 form the clique with k = round(2n/3); the path covers
    k..n-1 and hangs off clique vertex k-1. lollipop(9) is a 6-clique plus
    a 3-vertex path, 18 edges in all.
    """
    if n < 4:
        raise ParameterError("lollipop needs n >= 4")
    k = (2 * n + 1) // 3
    _refuse_edge_count(k * (k - 1) // 2 + n - k, f"lollipop:{n}")
    clique = ((i, j) for i in range(k) for j in range(i + 1, k))
    tail = ((i, i + 1) for i in range(k - 1, n - 1))
    return Graph(n, chain(clique, tail), name=f"lollipop:{n}")


FAMILY_NAMES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "star": (star, 1),
    "binary-tree": (binary_tree, 1),
    "grid2d": (grid2d, 2),
    "torus2d": (torus2d, 2),
    "lollipop": (lollipop, 1),
}


def family(spec: str) -> Graph:
    """Build a family member from a 'name:p1[,p2]' string, e.g. 'cycle:12'."""
    name, _, raw = spec.partition(":")
    name = name.strip()
    if name not in FAMILY_NAMES:
        known = ", ".join(sorted(FAMILY_NAMES))
        raise ParameterError(f"unknown family {name!r}; known: {known}")
    fn, arity = FAMILY_NAMES[name]
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != arity:
        raise ParameterError(f"family {name!r} takes {arity} integer parameter(s)")
    try:
        args = [int(p) for p in parts]
    except ValueError as exc:
        raise ParameterError(f"bad family parameters {raw!r}") from exc
    # every family has the product of its parameters as vertex count
    if math.prod(max(a, 1) for a in args) > _VERTEX_CAP:
        raise SizeCapError(f"family {spec!r}: graphs are capped at {_VERTEX_CAP} vertices")
    return fn(*args)


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra: int = 0,
    weighted: bool = False,
    loops: bool = False,
    parallel: bool = False,
) -> Graph:
    """Sample a connected multigraph: a random tree plus `extra` edges.

    Vertex v > 0 attaches to a uniform earlier vertex, which forces
    connectivity. Extra edges are uniform pairs; loops and parallel edges
    appear only when enabled. Weights, when requested, are uniform on
    [0.1, 4.0].
    """
    if n < 1:
        raise ParameterError("random graph needs at least one vertex")
    edges: list[list] = []
    seen = set()
    # one array draw per kind reads the generator as the scalar draws
    # (one per parent, then u and v per extra pair, one per weight) do
    for v, u in enumerate(rng.integers(0, np.arange(1, n)).tolist(), start=1):
        edges.append([u, v, 1.0])
        seen.add((u, v))
    pairs = rng.integers(0, n, size=2 * extra).tolist()
    for u, v in zip(pairs[::2], pairs[1::2]):
        if u > v:
            u, v = v, u
        if u == v and not loops:
            continue
        if not parallel and u != v and (u, v) in seen:
            continue
        edges.append([u, v, 1.0])
        seen.add((u, v))
    if weighted:
        for e, w in zip(edges, rng.uniform(0.1, 4.0, size=len(edges)).tolist()):
            e[2] = w
    return Graph(n, edges, name=f"random:{n}")


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product of two simple unweighted graphs.

    Vertex (a, x) of the product is numbered a * h.n + x. Two product
    vertices are adjacent when they agree in one coordinate and are
    adjacent in the other.
    """
    for f in (g, h):
        f.require("a cartesian product", "simple", "unweighted")
    if g.n * h.n > _VERTEX_CAP or g.n * h.m + h.n * g.m > _EDGE_CAP:
        raise SizeCapError(f"product of {g.name} and {h.name} passes the graph caps, {_VERTEX_CAP} vertices or {_EDGE_CAP} edges")
    nh = h.n
    edges = []
    for a in range(g.n):
        base = a * nh
        for x, y, _ in h.edges:
            edges.append((base + x, base + y))
    for a, b, _ in g.edges:
        for x in range(nh):
            edges.append((a * nh + x, b * nh + x))
    return Graph(g.n * nh, edges, name=f"({g.name})x({h.name})")
