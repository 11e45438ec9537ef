"""Locally observed walks and product cover bounds.

A walk watched only while inside a vertex set S looks like a weighted walk
on a multigraph over S: excursions through the exterior collapse into
virtual edges between boundary vertices, including self-connections. The
virtual conductances come from one absorbing-chain solve on the exterior.

Convention note: an exterior self-connection contributes its conductance
to the vertex weight once, unlike an ordinary loop which counts twice.
The lowered Graph therefore stores exterior loops at half conductance, and
the observation keeps the true value alongside an interior/exterior tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, ParameterError, UnsupportedInputError
from .graph import Graph
from .spectral import build_kernel

__all__ = [
    "LocalObservation",
    "local_observation",
    "ProductBoundReport",
    "theorem_main_bounds",
]

EXTERIOR_EPS = 1e-12
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class LocalObservation:
    """A graph as seen from inside the subset that produced it.

    graph:         lowered multigraph on 0..|subset|-1 (exterior loops halved)
    tags:          "interior" or "exterior", aligned with graph.edges
    conductances:  true conductance per edge (exterior loops unhalved)
    subset:        new label -> original vertex
    """

    subset: tuple[int, ...]
    boundary: tuple[int, ...]
    graph: Graph
    tags: tuple[str, ...]
    conductances: tuple[float, ...]
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
            subset=tuple(s_list),
            boundary=(),
            graph=g,
            tags=("interior",) * len(g.edges),
            conductances=tuple(w for _, _, w in g.edges),
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
        subset=tuple(s_list),
        boundary=tuple(boundary),
        graph=lowered,
        tags=tuple(tags),
        conductances=tuple(trues),
        base_degrees=tuple(float(degrees[v]) for v in s_list),
    )


# --- product cover bounds ---


@dataclass(frozen=True)
class ProductBoundReport:
    lower: float
    upper_value: float | None
    upper_symbolic: str | None
    precondition_ok: bool


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
    if not precondition_ok:
        return ProductBoundReport(
            lower=lower,
            upper_value=None,
            upper_symbolic=None,
            precondition_ok=False,
        )
    product_edges = g.n * h.m + h.n * g.m
    ell = math.log(diam_g + 1) * math.log(g.n * diam_g)
    upper = (1.0 + max_g / delta_h) * bcov_h + (
        product_edges * g.m * h.m * h.n * ell * ell / (cov_h * diam_g)
    )
    return ProductBoundReport(
        lower=lower,
        upper_value=upper,
        upper_symbolic=f"{repr(upper)} x K",
        precondition_ok=True,
    )
