"""Degree-based edge weighting schemes and their invariant reports.

Two non-trivial schemes are supported, both computable from the degrees of
an edge's endpoints alone:

- ikeda:  w(u, v) = 1 / sqrt(d(u) d(v))
- mindeg: w(u, v) = 1 / min(d(u), d(v))

Both are defined for simple connected unit-weight graphs only. The walk on
an ikeda-weighted graph steps to neighbor v with probability proportional
to 1/sqrt(d(v)); the min-deg walk keeps every vertex weight w(u) between 1
and d(u), which pins the total weight w(G) between n and 2n and caps every
hitting time at 6 n^2.
"""

from __future__ import annotations

import math

from .errors import UnsupportedInputError
from .graph import Graph
from .rng import substream

__all__ = [
    "SCHEMES",
    "apply_scheme",
    "mindeg_invariant_report",
    "speedup",
    "write_graph_with_scheme",
    "read_graph_with_scheme",
]

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
    from .spectral import build_kernel, exact_hitting  # late import, avoids a cycle

    _require_schemable(g)
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


def speedup(g: Graph, trials: int, seed: int, start: int = 0) -> dict:
    """Ratio of estimated cover times, unweighted walk over min-degree walk.

    Both estimates run the same trial seeds. The ratio's spread comes from
    the delta method treating the two means as independent; on a regular
    graph the kernels coincide, the trajectories are identical, and the
    ratio is exactly 1 with z-score 0.
    """
    from .walks import WalkConfig, simulate

    plain = simulate(g, WalkConfig(stop="cover", start=start), trials, seed)
    weighted = simulate(
        g, WalkConfig(stop="cover", start=start, scheme="mindeg"), trials, seed
    )
    ratio = plain.mean / weighted.mean
    rel = math.hypot(
        plain.stderr / plain.mean, weighted.stderr / weighted.mean
    )
    stderr = ratio * rel
    z = (ratio - 1.0) / stderr if stderr > 0 else 0.0
    return {
        "graph": g.name,
        "trials": trials,
        "seed": seed,
        "start": start,
        "uniform_mean": plain.mean,
        "uniform_stderr": plain.stderr,
        "mindeg_mean": weighted.mean,
        "mindeg_stderr": weighted.stderr,
        "ratio": ratio,
        "stderr": stderr,
        "z_score": z,
    }


def write_graph_with_scheme(g: Graph, scheme: str) -> str:
    """Graph text with a `# scheme=` header comment recording provenance."""
    return f"# scheme={scheme}\n" + g.to_text()


def read_graph_with_scheme(text: str, name: str = "") -> tuple[Graph, str]:
    scheme = "uniform"
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("# scheme="):
            scheme = ln.split("=", 1)[1].strip()
            break
    return Graph.from_text(text, name=name), scheme
