"""Degree-based edge weighting schemes.

Two non-trivial schemes are supported, both computable from the degrees of
an edge's endpoints alone:

- ikeda:  w(u, v) = 1 / sqrt(d(u) d(v))
- mindeg: w(u, v) = 1 / min(d(u), d(v))

Both are defined for simple connected unit-weight graphs only. The walk on
an ikeda-weighted graph steps to neighbor v with probability proportional
to 1/sqrt(d(v)); the min-deg walk keeps every vertex weight w(u) between 1
and d(u), which pins the total weight w(G) between n and 2n and caps every
hitting time at 6 n^2.

spectral.mindeg_invariant_report checks those guarantees on one graph,
and walks.speedup estimates the cover-time ratio of the two walks.
"""

from __future__ import annotations

import math

from .errors import UnsupportedInputError
from .graph import Graph

__all__ = ["SCHEMES", "apply_scheme"]

SCHEMES = ("uniform", "ikeda", "mindeg")


def _require_schemable(g: Graph) -> None:
    if not g.is_simple:
        raise UnsupportedInputError(
            f"weighting schemes need a simple graph; {g.name} has loops or "
            f"parallel edges"
        )
    if not g.is_unit_weighted:
        raise UnsupportedInputError(
            f"weighting schemes start from unit weights; {g.name} is already "
            f"weighted"
        )
    if not g.is_connected:
        raise UnsupportedInputError(f"{g.name} is disconnected")


def apply_scheme(g: Graph, scheme: str) -> Graph:
    """Return g reweighted under the named scheme.

    "uniform" returns the graph unchanged (whatever its weights are);
    "ikeda" and "mindeg" require a simple connected unit-weight graph.
    """
    if scheme == "uniform":
        return g
    if scheme not in SCHEMES:
        raise UnsupportedInputError(
            f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}"
        )
    _require_schemable(g)
    d = g.degrees
    if scheme == "ikeda":
        weights = [1.0 / math.sqrt(d[u] * d[v]) for u, v, _ in g.edges]
    else:
        weights = [1.0 / min(d[u], d[v]) for u, v, _ in g.edges]
    return g.with_weights(weights, name=f"{g.name}|{scheme}")
