"""Weighted undirected multigraphs and the standard graph families.

A graph holds its edges once, as three read-only arrays with one entry per
edge: `u` and `v` (int64, u <= v) and `w` (float64). Every builder here
hands the constructor a table, never one Python object per edge, and the
constructor checks the table in vector form.

Conventions used everywhere downstream:

- Edges are unordered pairs with a strictly positive weight. Self-loops and
  parallel edges are allowed unless an operation refuses them through
  `Graph.require`, the one check of which graphs an operation takes.
- Edges keep the order they were given in, and each builder's order is part
  of its output: `pooled` adds in it, and `with_weights`, `apply_scheme`
  and `local_observation`'s tags align by edge index. An edge given as
  (v, u) with u < v, a cycle's wrap edge for one, is stored as (u, v).
- The degree of a vertex counts edge ends, so a self-loop adds 2. The
  weighted degree does the same with weights: a loop of weight w adds 2w.
- The volume of a graph is the sum of weighted degrees, i.e. twice the sum
  of all edge weights, added left to right in edge order as Python's sum
  adds them; numpy's pairwise sum can differ in the last bits.
- Parallel edges pool: `Graph.pooled` is the one place that adds an
  edge's weight into its ordered pairs, (u, v) and then (v, u), in edge
  order, so a loop of weight w adds 2w at (u, u). Kernels, conductances
  and walk tables all read it.

Graphs are immutable. Anything that "modifies" a graph builds a new one.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, reduce
from itertools import islice
from operator import add
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
    "family_size",
    "cartesian_product",
    "random_connected_graph",
    "text_header",
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


def _check_size(name: str, n: int, m: int) -> None:
    """The one graph-size rule: refuse `name` unless 1 <= n <= _VERTEX_CAP and 0 <= m <= _EDGE_CAP."""
    if n < 1 or m < 0:
        raise ParameterError(f"{name} needs at least one vertex, got n={n}" if n < 1 else f"{name} needs a non-negative edge count, got m={m}")
    for count, cap, what in ((n, _VERTEX_CAP, "vertices, got n"), (m, _EDGE_CAP, "edges, got m")):
        if count > cap:
            raise SizeCapError(f"{name}: graphs are capped at {cap} {what}={count}")


def _sum_left_to_right(values) -> float:
    """The floats in values added one at a time, left to right, from 0.0.

    Every float reduction in walklab adds this way, so no Python version
    moves its last bits: the builtin sum of floats is compensated from
    Python 3.12 on, and numpy's sum is pairwise. An array is added by
    np.add.accumulate, which runs the same loop in C.
    """
    if isinstance(values, np.ndarray):
        if not values.size:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan sum, as the loop makes it
            return float(np.add.accumulate(values)[-1])
    return reduce(add, values, 0.0)


def _table(edges: Iterable[Sequence]) -> np.ndarray:
    """At most _EDGE_CAP + 1 edges as a 2-D table, one (u, v) or (u, v, w) row an edge.

    An array passes through. Python rows are read as int(u), int(v) and
    float(w), into an object table that keeps an end of any size exact.
    """
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] in (2, 3):
        return edges[: _EDGE_CAP + 1]
    rows = []
    for e in islice(edges, _EDGE_CAP + 1):
        if len(e) not in (2, 3):
            raise ParameterError(f"edge {e!r} is not a pair or weighted triple")
        rows.append((int(e[0]), int(e[1]), float(e[2]) if len(e) == 3 else 1.0))
    return np.array(rows, dtype=object).reshape(-1, 3)


class Graph:
    """An immutable weighted undirected multigraph on vertices 0..n-1.

    Parameters
    ----------
    n : int
        Number of vertices, from 1 to _VERTEX_CAP.
    edges : iterable of (u, v) or (u, v, weight), or a 2-D array of such rows
        Endpoints in range(n); omitted weights default to 1.0. Weights must
        be positive and finite, and so must the volume, twice their sum.
        Loops (u == v) and repeated pairs are kept. At most _EDGE_CAP
        edges are read; one more is refused.
    name : str, optional
        Free-form label used in reports; ignored by equality.

    Attributes
    ----------
    u, v, w : read-only arrays
        Edge i joins u[i] <= v[i] (int64) at weight w[i] (float64).
    """

    def __init__(self, n: int, edges: Iterable[Sequence], name: str = "") -> None:
        table = _table(edges)
        _check_size(name or "graph", n, len(table))
        lo, hi = np.minimum(table[:, 0], table[:, 1]), np.maximum(table[:, 0], table[:, 1])
        w = table[:, 2].astype(float) if table.shape[1] == 3 else np.ones(len(table))
        # int(x) is in range when -1 < x < n: checked before a cast could wrap a huge or NaN end
        bad = ~((lo > -1) & (hi < n) & (w > 0.0) & (w < math.inf))
        if bad.any():  # name the first faulty edge, as given
            i = int(bad.argmax())
            u, v = int(table[i, 0]), int(table[i, 1])
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            raise ParameterError(f"edge ({u}, {v}) weight {w[i]} is not positive and finite")
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        for column in (lo, hi, w):
            column.setflags(write=False)
        self._n = n
        self.u, self.v, self.w = lo, hi, w
        self.name = name or f"graph(n={n},m={len(w)})"
        if not math.isfinite(self.volume):
            raise ParameterError(f"volume of {self.name}, twice its weight sum, is not finite")

    # --- basic accessors ---

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of edges; a loop counts as one edge."""
        return len(self.w)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Integer edge-end counts; loops count twice."""
        return np.bincount(self.u, minlength=self._n) + np.bincount(self.v, minlength=self._n)

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        """Weighted edge-end sums; a loop of weight w contributes 2w."""
        # bincount adds in input order, so over the ends u0, v0, u1, v1, ...
        # each sum runs in edge order; with no edges it returns integers
        ends = np.column_stack((self.u, self.v)).ravel()
        return np.bincount(ends, weights=self.w.repeat(2), minlength=self._n).astype(float, copy=False)

    @cached_property
    def volume(self) -> float:
        """Sum of weighted degrees, which is twice the sum of edge weights.

        The weights add left to right in edge order (`_sum_left_to_right`):
        numpy's pairwise sum differs in the last bits.
        """
        return 2.0 * _sum_left_to_right(self.w)

    @cached_property
    def pooled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, weights): the pooled weight of every ordered pair an edge joins.

        Pairs come in ascending (row, col) order. Edge (u, v, w) adds w at
        (u, v) and then at (v, u), so a loop adds 2w at (u, u), and parallel
        edges add in edge order: each weight is the sum a loop over the
        edges would build, to the bit.
        """
        keys = np.empty(2 * self.m, dtype=np.int64)  # (u0, v0), (v0, u0), (u1, v1), ...
        keys[0::2] = self.u * self._n + self.v
        keys[1::2] = self.v * self._n + self.u
        keys, where = np.unique(keys, return_inverse=True)
        pooled = np.zeros(len(keys))
        np.add.at(pooled, where, self.w.repeat(2))
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

    @cached_property
    def is_unit_weighted(self) -> bool:
        return bool((self.w == 1.0).all())

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
        # a connected graph has a spanning tree, of n - 1 edges; fewer edges
        # prove the graph apart without building its adjacency lists
        return self.m >= self._n - 1 and bool((self.bfs_distances(0) >= 0).all())

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
        # Python's round: numpy's rounds differently in the last bits
        weights = [round(w, 12) for w in self.w.tolist()]
        multiset = tuple(sorted(zip(self.u.tolist(), self.v.tolist(), weights)))
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

        Blank lines and lines starting with # are skipped. The header is
        read, and checked by the size rule, before the body is split.
        """
        n, m = text_header((piece.group() for piece in re.finditer(".*\n?", text)), name)
        rows = [
            ln
            for ln in (s.strip() for s in text.splitlines())
            if ln and not ln.startswith("#")
        ]
        if len(rows) - 1 != m:
            raise ParameterError(
                f"header promises {m} edges but {len(rows) - 1} lines follow"
            )
        if not m:
            return cls(n, [], name=name)
        try:
            line = [("u", np.int64), ("v", np.int64), ("w", float)]
            lines = np.loadtxt(rows[1:], dtype=line, comments=None, ndmin=1)
            if max(abs(lines["u"]).max(), abs(lines["v"]).max()) >= 2**53:
                raise ValueError("a float table would round an end")
            edges = np.column_stack((lines["u"], lines["v"], lines["w"]))
        except (ValueError, OverflowError):
            # numpy names no line, and int() and float() take a few forms
            # it refuses, so the lines are read again one at a time
            edges = []
            for ln in rows[1:]:
                parts = ln.split()
                if len(parts) != 3:
                    raise ParameterError(f"bad edge line {ln!r}, expected 'u v w'")
                try:
                    edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
                except ValueError:
                    raise ParameterError(f"bad edge line {ln!r}, expected integers u v and a number w") from None
        return cls(n, edges, name=name)

    def with_weights(self, weights: Sequence[float], name: str = "") -> "Graph":
        """Copy with the i-th edge reweighted to weights[i]."""
        if len(weights) != self.m:
            raise ParameterError("need one weight per edge")
        edges = np.column_stack((self.u, self.v, np.asarray(weights, dtype=float)))
        return Graph(self._n, edges, name=name or self.name)


def text_header(lines: Iterable[str], name: str = "") -> tuple[int, int]:
    """(n, m) from the header of the graph text `name`, given as its lines.

    The header is the first line that is not blank or a comment (see
    `Graph.from_text`), and (n, m) passes the graph-size rule; the lines are
    read no further, so a graph file is refused before its body is read.
    """
    for line in lines:
        for row in line.splitlines():
            row = row.strip()
            if not row or row.startswith("#"):
                continue
            head = row.split()
            if len(head) != 2:
                raise ParameterError(f"bad header line {row!r}, expected 'n m'")
            try:
                n, m = int(head[0]), int(head[1])
            except ValueError:
                raise ParameterError(f"bad header line {row!r}, expected integers 'n m'") from None
            _check_size(name or "graph", n, m)
            return n, m
    raise ParameterError("empty graph text")


# --- families ---


def _shape(kind: str, *params: int) -> tuple[str, int, int]:
    """(name, n, m) of a family member in closed form, refused past either
    graph cap, or for a parameter below its least, before any edge exists."""
    _, _, least, size = _FAMILIES[kind]
    if min(params) < least:
        raise ParameterError(f"{kind} needs {'n' if len(params) == 1 else 'rows, cols'} >= {least}")
    shape = f"{kind}:{','.join(map(str, params))}", *size(*params)
    _check_size(*shape)
    return shape


def path(n: int) -> Graph:
    name, n, m = _shape("path", n)
    i = np.arange(m)
    return Graph(n, np.column_stack((i, i + 1)), name=name)


def cycle(n: int) -> Graph:
    name, n, _ = _shape("cycle", n)
    i = np.arange(n)
    return Graph(n, np.column_stack((i, (i + 1) % n)), name=name)


def complete(n: int) -> Graph:
    name, n, _ = _shape("complete", n)
    return Graph(n, np.column_stack(np.triu_indices(n, 1)), name=name)


def star(n: int) -> Graph:
    """Center 0 joined to leaves 1..n-1."""
    name, n, m = _shape("star", n)
    return Graph(n, np.column_stack((np.zeros(m, dtype=np.int64), np.arange(1, n))), name=name)


def binary_tree(n: int) -> Graph:
    """Heap-shaped binary tree: vertex i > 0 hangs under (i - 1) // 2."""
    name, n, _ = _shape("binary-tree", n)
    i = np.arange(1, n)
    return Graph(n, np.column_stack((i, (i - 1) // 2)), name=name)


def _lattice(rows: int, cols: int, wrap: bool) -> np.ndarray:
    # vertex (i, j) = i * cols + j, in order, each joined to its right and
    # then its lower neighbour, which a grid keeps only inside its bounds
    v = np.arange(rows * cols)
    i, j = np.divmod(v, cols)
    right = i * cols + (j + 1) % cols
    down = (i + 1) % rows * cols + j
    edges = np.column_stack((v, right, v, down)).reshape(-1, 2)
    if wrap:
        return edges
    return edges[np.column_stack((j + 1 < cols, i + 1 < rows)).ravel()]


def grid2d(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (i, j) is numbered i * cols + j."""
    name, n, _ = _shape("grid2d", rows, cols)
    return Graph(n, _lattice(rows, cols, wrap=False), name=name)


def torus2d(rows: int, cols: int) -> Graph:
    """Grid with wrap-around in both directions; needs rows, cols >= 3.

    Smaller sizes would create parallel edges and leave the product
    identities used in tests false, so they are rejected.
    """
    name, n, _ = _shape("torus2d", rows, cols)
    return Graph(n, _lattice(rows, cols, wrap=True), name=name)


def lollipop(n: int) -> Graph:
    """Clique on about 2n/3 vertices with a path on the rest.

    Vertices 0..k-1 form the clique with k = round(2n/3); the path covers
    k..n-1 and hangs off clique vertex k-1. lollipop(9) is a 6-clique plus
    a 3-vertex path, 18 edges in all.
    """
    name, n, _ = _shape("lollipop", n)
    k = (2 * n + 1) // 3
    tail = np.arange(k - 1, n - 1)
    clique = np.column_stack(np.triu_indices(k, 1))
    return Graph(n, np.concatenate((clique, np.column_stack((tail, tail + 1)))), name=name)


# name: (builder, parameter count, least parameter, (n, m) from the parameters)
_FAMILIES = {
    "path": (path, 1, 1, lambda n: (n, n - 1)),
    "cycle": (cycle, 1, 3, lambda n: (n, n)),
    "complete": (complete, 1, 1, lambda n: (n, math.comb(n, 2))),
    "star": (star, 1, 2, lambda n: (n, n - 1)),
    "binary-tree": (binary_tree, 1, 1, lambda n: (n, n - 1)),
    "grid2d": (grid2d, 2, 1, lambda rows, cols: (rows * cols, rows * (cols - 1) + (rows - 1) * cols)),
    "torus2d": (torus2d, 2, 3, lambda rows, cols: (rows * cols, 2 * rows * cols)),
    "lollipop": (lollipop, 1, 4, lambda n: (n, math.comb((2 * n + 1) // 3, 2) + n - (2 * n + 1) // 3)),
}


def _parse_family(spec: str) -> tuple[str, list[int]]:
    name, _, raw = spec.partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise ParameterError(f"unknown family {name!r}; known: {', '.join(sorted(_FAMILIES))}")
    arity = _FAMILIES[name][1]
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != arity:
        raise ParameterError(f"family {name!r} takes {arity} integer parameter(s)")
    try:
        return name, [int(p) for p in parts]
    except ValueError as exc:
        raise ParameterError(f"bad family parameters {raw!r}") from exc


def family(spec: str) -> Graph:
    """Build a family member from a 'name:p1[,p2]' string, e.g. 'cycle:12'."""
    name, params = _parse_family(spec)
    return _FAMILIES[name][0](*params)


def family_size(spec: str) -> tuple[str, int, int]:
    """(name, n, m) of the graph family(spec) builds, checked against the caps without building it."""
    name, params = _parse_family(spec)
    return _shape(name, *params)


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
    _check_size(f"random:{n}", n, n - 1 + extra)
    # one array draw per kind reads the generator as the scalar draws
    # (one per parent, then u and v per extra pair, one per weight) do
    children = np.arange(1, n)
    parents = rng.integers(0, children)
    pairs = rng.integers(0, n, size=(extra, 2))
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keep = (lo != hi) | loops
    if not parallel:
        # a pair is dropped when its tree edge or an earlier kept copy has it;
        # loops are never checked against earlier edges; each v > 0 has one
        # tree edge, to its parent, so (lo, hi) is on the tree when hi's
        # parent is lo
        first = np.zeros(extra, dtype=bool)
        first[np.unique(lo * n + hi, return_index=True)[1]] = True
        keep &= (lo == hi) | (first & (np.concatenate(([-1], parents))[hi] != lo))
    u = np.concatenate((parents, lo[keep]))
    v = np.concatenate((children, hi[keep]))
    w = rng.uniform(0.1, 4.0, size=len(u)) if weighted else np.ones(len(u))
    return Graph(n, np.column_stack((u, v, w)), name=f"random:{n}")


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product of two simple unweighted graphs.

    Vertex (a, x) of the product is numbered a * h.n + x. Two product
    vertices are adjacent when they agree in one coordinate and are
    adjacent in the other. The edges come as h's edges inside each a in
    turn, then, for each edge (a, b) of g in turn, (a, x)-(b, x) for each x.
    """
    for f in (g, h):
        f.require("a cartesian product", "simple", "unweighted")
    name = f"({g.name})x({h.name})"
    _check_size(name, g.n * h.n, g.n * h.m + h.n * g.m)
    nh = h.n
    base = np.arange(g.n)[:, None] * nh
    x = np.arange(nh)
    u = np.concatenate(((base + h.u).ravel(), (g.u[:, None] * nh + x).ravel()))
    v = np.concatenate(((base + h.v).ravel(), (g.v[:, None] * nh + x).ravel()))
    return Graph(g.n * nh, np.column_stack((u, v)), name=name)
