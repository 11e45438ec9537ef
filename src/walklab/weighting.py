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

import numpy as np

from .errors import UnsupportedInputError
from .graph import Graph

__all__ = ["SCHEMES", "apply_scheme"]

SCHEMES = ("uniform", "ikeda", "mindeg")


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
    g.require("weighting", "simple", "unweighted", "connected")
    du, dv = g.degrees[g.u], g.degrees[g.v]
    if scheme == "ikeda":
        weights = 1.0 / np.sqrt(du * dv)
    else:
        weights = 1.0 / np.minimum(du, dv)
    return g.with_weights(weights, name=f"{g.name}|{scheme}")
