"""Locally observed walks, block decompositions, and product cover bounds.

A walk watched only while inside a vertex set S looks like a weighted walk
on a multigraph over S: excursions through the exterior collapse into
virtual edges between boundary vertices, including self-connections. The
virtual conductances come from one absorbing-chain solve on the exterior.

Convention note: an exterior self-connection contributes its conductance
to the vertex weight once, unlike an ordinary loop which counts twice.
The lowered Graph therefore stores exterior loops at half conductance, and
serialization keeps the true value alongside an interior/exterior tag.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .electrical import resistance_matrix
from .errors import (
    DisconnectedError,
    ParameterError,
    SizeCapError,
    UnsupportedInputError,
)
from .graph import Graph, cartesian_product
from .spectral import build_kernel

__all__ = [
    "LocalObservation",
    "local_observation",
    "serialize_observation",
    "parse_observation",
    "BlockDecomposition",
    "block_decomposition",
    "validate_decomposition",
    "ProductBoundReport",
    "theorem_main_bounds",
    "product_resistance_monitor",
]

EXTERIOR_EPS = 1e-12
SYMMETRY_TOL = 1e-9
MONITOR_CAP = 2500


@dataclass(frozen=True)
class LocalObservation:
    """A graph as seen from inside the subset that produced it.

    graph:         lowered multigraph on 0..|subset|-1 (exterior loops halved)
    tags:          "interior" or "exterior", aligned with graph.edges
    conductances:  true conductance per edge (exterior loops unhalved)
    labels:        new label -> original vertex
    """

    base_name: str
    subset: tuple[int, ...]
    boundary: tuple[int, ...]
    graph: Graph
    tags: tuple[str, ...]
    conductances: tuple[float, ...]
    labels: tuple[int, ...]
    base_degrees: tuple[float, ...]

    def conservation_gap(self) -> float:
        """Max deviation of observed vertex weight from the base degree.

        Interior edges count like ordinary graph edges (loops twice);
        exterior conductance counts once, loops included.
        """
        totals = [0.0] * self.graph.n
        for (u, v, w), tag, c in zip(self.graph.edges, self.tags, self.conductances):
            if tag == "interior":
                totals[u] += w
                totals[v] += w
            else:
                totals[u] += c
                if u != v:
                    totals[v] += c
        gap = 0.0
        for new in range(self.graph.n):
            gap = max(gap, abs(totals[new] - self.base_degrees[new]))
        return gap


def local_observation(g: Graph, subset) -> LocalObservation:
    """Collapse everything outside `subset` into virtual boundary edges.

    For boundary u the conductance to v is d(u) times the probability that
    a step out of u returns to the subset at v, computed by absorbing the
    exterior chain on the subset.
    """
    if not g.is_connected:
        raise DisconnectedError("local observation needs a connected base graph")
    if not g.is_unit_weighted:
        raise UnsupportedInputError("local observation expects unit edge weights")
    s_list = sorted(set(int(v) for v in subset))
    if not s_list:
        raise ParameterError("subset must be nonempty")
    if s_list[0] < 0 or s_list[-1] >= g.n:
        raise ParameterError("subset vertex out of range")

    degrees = g.degrees
    if len(s_list) == g.n:
        return LocalObservation(
            base_name=g.name,
            subset=tuple(s_list),
            boundary=(),
            graph=g,
            tags=("interior",) * len(g.edges),
            conductances=tuple(w for _, _, w in g.edges),
            labels=tuple(range(g.n)),
            base_degrees=tuple(float(d) for d in degrees),
        )

    in_subset = np.zeros(g.n, dtype=bool)
    in_subset[s_list] = True
    exterior = [v for v in range(g.n) if not in_subset[v]]
    pos = {old: new for new, old in enumerate(s_list)}

    boundary = sorted(
        {u for u, v, _ in g.edges if in_subset[u] != in_subset[v]} & set(s_list)
        | {v for u, v, _ in g.edges if in_subset[u] != in_subset[v]} & set(s_list)
    )

    p = build_kernel(g).matrix
    pxx = p[np.ix_(exterior, exterior)]
    pxs = p[np.ix_(exterior, s_list)]
    absorb = np.linalg.solve(np.eye(len(exterior)) - pxx, pxs)

    k = len(s_list)
    cond = np.zeros((k, k))
    for u in boundary:
        escape = p[u, exterior]
        cond[pos[u], :] = degrees[u] * (escape @ absorb)
    skew = float(np.abs(cond - cond.T).max())
    if skew > SYMMETRY_TOL:
        raise UnsupportedInputError(
            f"exterior conductances asymmetric by {skew:.3e}; base walk not reversible?"
        )
    cond = 0.5 * (cond + cond.T)

    edges = []
    tags = []
    trues = []
    for u, v, w in g.edges:
        if in_subset[u] and in_subset[v]:
            edges.append((pos[u], pos[v], w))
            tags.append("interior")
            trues.append(w)
    for i in range(k):
        for j in range(i, k):
            c = float(cond[i, j])
            if c <= EXTERIOR_EPS:
                continue
            edges.append((i, j, c / 2.0 if i == j else c))
            tags.append("exterior")
            trues.append(c)

    lowered = Graph(k, edges, name=f"{g.name}|loc{k}")
    return LocalObservation(
        base_name=g.name,
        subset=tuple(s_list),
        boundary=tuple(boundary),
        graph=lowered,
        tags=tuple(tags),
        conductances=tuple(trues),
        labels=tuple(s_list),
        base_degrees=tuple(float(degrees[v]) for v in s_list),
    )


def serialize_observation(obs: LocalObservation) -> str:
    head = (
        f"# local-observation base={obs.base_name or '-'} "
        f"subset={','.join(str(v) for v in obs.subset)} "
        f"degrees={','.join(repr(d) for d in obs.base_degrees)}"
    )
    lines = [head, f"{obs.graph.n} {len(obs.graph.edges)}"]
    for (u, v, _), tag, c in zip(obs.graph.edges, obs.tags, obs.conductances):
        lines.append(f"{u} {v} {repr(c)} {tag}")
    return "\n".join(lines) + "\n"


def parse_observation(text: str) -> LocalObservation:
    lines = [ln for ln in text.strip().split("\n")]
    head = lines[0]
    if not head.startswith("# local-observation "):
        raise ParameterError("missing local-observation header")
    fields = dict(
        part.split("=", 1) for part in head[len("# local-observation "):].split(" ")
    )
    base = "" if fields["base"] == "-" else fields["base"]
    subset = tuple(int(x) for x in fields["subset"].split(","))
    degrees = tuple(float(x) for x in fields["degrees"].split(","))
    n, m = (int(x) for x in lines[1].split())
    edges = []
    tags = []
    trues = []
    for ln in lines[2 : 2 + m]:
        u_s, v_s, c_s, tag = ln.split()
        u, v, c = int(u_s), int(v_s), float(c_s)
        if tag not in ("interior", "exterior"):
            raise ParameterError(f"unknown edge tag {tag!r}")
        stored = c / 2.0 if (tag == "exterior" and u == v) else c
        edges.append((u, v, stored))
        tags.append(tag)
        trues.append(c)
    lowered = Graph(n, edges, name=f"{base}|loc{n}")
    boundary = tuple(
        sorted({subset[u] for (u, v, _), t in zip(edges, tags) if t == "exterior"}
               | {subset[v] for (u, v, _), t in zip(edges, tags) if t == "exterior"})
    )
    return LocalObservation(
        base_name=base,
        subset=subset,
        boundary=boundary,
        graph=lowered,
        tags=tuple(tags),
        conductances=tuple(trues),
        labels=subset,
        base_degrees=degrees,
    )


# --- block decomposition ---


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[tuple[int, ...], ...]
    k: int


def block_decomposition(h: Graph, k: int) -> BlockDecomposition:
    """Partition-with-overlaps of a connected graph into low-diameter blocks.

    Grows a BFS tree of depth at most k over still-unclaimed vertices,
    then continues from each leaf. A continuation tree with fewer than k
    vertices gets appended to the block it grew from; larger trees start
    their own block, whose root stays in the previous block too, so blocks
    may overlap in single vertices. Deterministic: root 0, lowest labels
    first, leaves processed in the order discovered.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if not h.is_connected:
        raise DisconnectedError("block decomposition needs a connected graph")
    n = h.n
    if k > n:
        return BlockDecomposition(blocks=(tuple(range(n)),), k=k)

    adjacency = [sorted(h._adjacency_sets[v]) for v in range(n)]
    assigned = [False] * n
    blocks: list[set[int]] = []
    queue: deque[tuple[int, int]] = deque()

    def grow(root: int) -> tuple[list[int], list[int]]:
        depth = {root: 0}
        order = [root]
        children = {root: 0}
        frontier = [root]
        while frontier:
            level = []
            for u in frontier:
                if depth[u] == k:
                    continue
                for w in adjacency[u]:
                    if w in depth or assigned[w]:
                        continue
                    depth[w] = depth[u] + 1
                    children[u] = children[u] + 1
                    children[w] = 0
                    order.append(w)
                    level.append(w)
            frontier = sorted(level)
        leaves = sorted(u for u in order if children[u] == 0)
        return order, leaves

    order, leaves = grow(0)
    for v in order:
        assigned[v] = True
    blocks.append(set(order))
    for leaf in leaves:
        queue.append((leaf, 0))

    while queue:
        root, parent = queue.popleft()
        order, leaves = grow(root)
        newly = [v for v in order if not assigned[v]]
        if not newly:
            continue
        for v in newly:
            assigned[v] = True
        if len(order) < k:
            blocks[parent].update(newly)
        else:
            index = len(blocks)
            blocks.append(set(order))
            for leaf in leaves:
                queue.append((leaf, index))

    return BlockDecomposition(
        blocks=tuple(tuple(sorted(b)) for b in blocks), k=k
    )


def validate_decomposition(h: Graph, dec: BlockDecomposition) -> dict:
    """Check coverage, minimum size, connectivity, and the 4k diameter cap."""
    union = set()
    sizes_ok = True
    connected_ok = True
    diameter_ok = True
    for block in dec.blocks:
        union.update(block)
        if len(block) < min(dec.k, h.n):
            sizes_ok = False
        sub, _ = h.induced_subgraph(block)
        if not sub.is_connected:
            connected_ok = False
            continue
        if sub.diameter > 4 * dec.k:
            diameter_ok = False
    return {
        "covers": union == set(range(h.n)),
        "sizes_ok": sizes_ok,
        "connected_ok": connected_ok,
        "diameter_ok": diameter_ok,
        "count": len(dec.blocks),
    }


# --- product cover bounds ---


@dataclass(frozen=True)
class ProductBoundReport:
    lower: float
    upper_value: float | None
    upper_symbolic: str | None
    precondition_ok: bool
    details: dict


def _require_product_factor(g: Graph, label: str) -> None:
    if not (g.is_simple and g.is_unit_weighted):
        raise UnsupportedInputError(f"{label} must be simple and unweighted")
    if not g.is_connected:
        raise DisconnectedError(f"{label} must be connected")
    if g.n < 2:
        raise ParameterError(f"{label} needs at least two vertices")


def theorem_main_bounds(
    g: Graph,
    h: Graph,
    cov_h: float,
    bcov_h: float,
    cov_g: float | None = None,
) -> ProductBoundReport:
    """Cover-time bounds for the product of g and h.

    lower:  max over both orientations of (1 + min-degree/other max-degree)
            times the factor's cover time (second orientation only when
            cov_g is supplied).
    upper:  numeric value of the bracket whose product with an unknown
            universal constant bounds the cover time; requires h to have
            at least diameter(g) + 1 vertices, otherwise withheld.
    """
    _require_product_factor(g, "first factor")
    _require_product_factor(h, "second factor")
    dg = np.asarray(g.degrees, dtype=float)
    dh = np.asarray(h.degrees, dtype=float)
    delta_g, max_g = float(dg.min()), float(dg.max())
    delta_h, max_h = float(dh.min()), float(dh.max())
    diam_g = g.diameter

    lower = (1.0 + delta_g / max_h) * cov_h
    if cov_g is not None:
        lower = max(lower, (1.0 + delta_h / max_g) * cov_g)

    precondition_ok = h.n >= diam_g + 1
    details = {
        "delta_g": delta_g,
        "max_g": max_g,
        "delta_h": delta_h,
        "max_h": max_h,
        "diameter_g": diam_g,
        "n_g": g.n,
        "m_g": g.m,
        "n_h": h.n,
        "m_h": h.m,
        "cov_h": cov_h,
        "bcov_h": bcov_h,
        "cov_g": cov_g,
    }
    if not precondition_ok:
        return ProductBoundReport(
            lower=lower,
            upper_value=None,
            upper_symbolic=None,
            precondition_ok=False,
            details=details,
        )
    product_edges = g.n * h.m + h.n * g.m
    ell = math.log(diam_g + 1) * math.log(g.n * diam_g)
    upper = (1.0 + max_g / delta_h) * bcov_h + (
        product_edges * g.m * h.m * h.n * ell * ell / (cov_h * diam_g)
    )
    details["product_edges"] = product_edges
    details["ell"] = ell
    return ProductBoundReport(
        lower=lower,
        upper_value=upper,
        upper_symbolic=f"{repr(upper)} x K",
        precondition_ok=True,
        details=details,
    )


def product_resistance_monitor(g: Graph, h: Graph) -> dict:
    """Largest pairwise resistance on the product against its log bound.

    The bound holds up to an unknown universal factor, so the ratio is
    reported for trend inspection, never asserted.
    """
    _require_product_factor(g, "first factor")
    _require_product_factor(h, "second factor")
    if g.n * h.n > MONITOR_CAP:
        raise SizeCapError(
            f"product has {g.n * h.n} vertices; monitor cap is {MONITOR_CAP}"
        )
    product = cartesian_product(g, h)
    resist = resistance_matrix(product)
    r_max = float(resist.max())
    diam_g = g.diameter
    alpha = h.n / (diam_g + 1)
    admissible = h.n >= diam_g + 1
    ratio = r_max / (alpha * math.log(diam_g + 1)) if diam_g >= 1 else None
    return {
        "first": g.name,
        "second": h.name,
        "product_vertices": product.n,
        "r_max": r_max,
        "alpha": alpha,
        "admissible": admissible,
        "ratio": ratio,
        "note": "bound is the ratio denominator times an unknown universal constant",
    }
