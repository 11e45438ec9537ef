"""Conductance profiles and the spectral inequalities that ride on them.

The conductance of a chain with stationary law pi and edge flow
Q(x, y) = pi(x) P[x, y] is

    Phi = min over S with pi(S) <= 1/2 of Q(S, S-bar) / pi(S).

For the unweighted walk this reduces to cut edges over degree mass. The
exact minimizer is found by enumerating all vertex subsets, which caps the
graph at 22 vertices; the sweep variant scans prefix cuts of the second
eigenvector and is an upper bound by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, SizeCapError
from .graph import Graph
from .spectral import TransitionKernel, build_kernel, kernel_eigenvalues

__all__ = [
    "ConductanceResult",
    "conductance_exact",
    "conductance_sweep",
    "jerrum_sinclair_check",
]

EXACT_CAP = 22
HALF_TOL = 1e-12


@dataclass(frozen=True)
class ConductanceResult:
    phi: float
    subset: tuple[int, ...]  # the argmin side, pi-mass at most 1/2
    pi_mass: float
    cut_flow: float
    method: str  # "exact" or "sweep"
    kernel_name: str
    scheme: str
    lazy: bool
    n: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _pair_flow(kernel: TransitionKernel) -> np.ndarray:
    return kernel.stationary[:, None] * kernel.matrix


def _result(kernel, phi, mask_vertices, pi_mass, cut, method) -> ConductanceResult:
    return ConductanceResult(
        phi=float(phi),
        subset=tuple(int(v) for v in mask_vertices),
        pi_mass=float(pi_mass),
        cut_flow=float(cut),
        method=method,
        kernel_name=kernel.name,
        scheme=kernel.scheme,
        lazy=kernel.lazy,
        n=kernel.n,
    )


def conductance_exact(kernel: TransitionKernel) -> ConductanceResult:
    """Exact conductance by subset enumeration; capped at n = 22.

    Works on whatever kernel it is given: a lazy kernel halves every
    crossing flow and so halves the conductance, a weighted kernel uses
    its own stationary law.
    """
    n = kernel.n
    if n < 2:
        raise ParameterError("conductance needs at least two vertices")
    if n > EXACT_CAP:
        raise SizeCapError(f"exact conductance capped at n={EXACT_CAP}, got {n}")
    q = _pair_flow(kernel)
    pi = kernel.stationary
    a = q + q.T
    # Subset tables built by doubling: entry index is the bitmask itself.
    # internal[mask] = total flow with both ends inside the mask; the masks
    # holding b as top bit are filled from those below 2^b, in place.
    pisum = np.zeros(1 << n)
    internal = np.zeros(1 << n)
    cross = np.zeros(1 << (n - 1))  # cross[mask] = flow between mask and b; cross[0] stays 0
    for b in range(n):
        low, high = slice(0, 1 << b), slice(1 << b, 2 << b)
        for x in range(b):
            np.add(cross[: 1 << x], a[x, b], out=cross[1 << x : 2 << x])
        np.add(internal[low], cross[low], out=internal[high])
        internal[high] += q[b, b]
        np.add(pisum[low], pi[b], out=pisum[high])
    # row sums of Q are pi; the cut overwrites the spent internal table
    cut = np.maximum(np.subtract(pisum, internal, out=internal), 0.0, out=internal)
    valid = pisum > 0
    valid &= pisum <= 0.5 + HALF_TOL
    valid[0] = False
    if not valid.any():
        raise ParameterError("no subset has stationary mass at most 1/2")
    ratios = np.divide(cut, pisum, out=np.full(1 << n, np.inf), where=valid)
    best = int(np.argmin(ratios))
    members = [v for v in range(n) if best & (1 << v)]
    return _result(kernel, ratios[best], members, pisum[best], cut[best], "exact")


def conductance_sweep(kernel: TransitionKernel) -> ConductanceResult:
    """Conductance upper bound from second-eigenvector prefix cuts.

    Vertices are ordered by the eigenvector of the second-largest
    eigenvalue (computed on the symmetrized kernel and mapped back), and
    only the n - 1 prefixes of that order are scored, each on its lighter
    side. The true minimizer may be none of them, so the value can only
    overshoot the exact conductance.
    """
    n = kernel.n
    if n < 2:
        raise ParameterError("conductance needs at least two vertices")
    pi = kernel.stationary
    root = np.sqrt(pi)
    sym = kernel.matrix * (root[:, None] / root[None, :])
    sym = 0.5 * (sym + sym.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    f = eigvecs[:, -2] / root  # second-largest eigenvalue's eigenvector
    order = sorted(range(n), key=lambda v: (f[v], v))
    q = _pair_flow(kernel)
    best = (math.inf, (), 0.0, 0.0)
    mask = np.zeros(n, dtype=bool)
    for k in range(n - 1):
        mask[order[k]] = True
        side = mask if pi[mask].sum() <= 0.5 + HALF_TOL else ~mask
        mass = float(pi[side].sum())
        if mass <= 0 or mass > 0.5 + HALF_TOL:
            continue
        cut = float(q[np.ix_(side, ~side)].sum())
        ratio = cut / mass
        if ratio < best[0]:
            members = tuple(int(v) for v in np.flatnonzero(side))
            best = (ratio, members, mass, cut)
    if not np.isfinite(best[0]):
        raise ParameterError("no sweep prefix had stationary mass at most 1/2")
    return _result(kernel, best[0], best[1], best[2], best[3], "sweep")


def jerrum_sinclair_check(g: Graph, scheme: str = "uniform") -> dict:
    """Sandwich the lazy spectral gap between Phi^2/2 and 2 Phi.

    Both conductance and gap are computed on the lazy kernel. Margins are
    reported signed; the check passes when both clear -1e-9.
    """
    kernel = build_kernel(g, scheme=scheme, lazy=True)
    phi = conductance_exact(kernel).phi
    gap = float(1.0 - kernel_eigenvalues(kernel)[1])
    lower_margin = gap - phi * phi / 2.0
    upper_margin = 2.0 * phi - gap
    return {
        "graph": g.name,
        "scheme": scheme,
        "phi_lazy": phi,
        "gap_lazy": gap,
        "lower_margin": lower_margin,
        "upper_margin": upper_margin,
        "passed": bool(lower_margin >= -1e-9 and upper_margin >= -1e-9),
    }
