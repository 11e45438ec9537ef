"""Conductance profiles and the spectral inequalities that ride on them.

The conductance of a chain with stationary law pi and edge flow
Q(x, y) = pi(x) P[x, y] is

    Phi = min over S with pi(S) <= 1/2 of Q(S, S-bar) / pi(S).

For the unweighted walk this reduces to cut edges over degree mass. The
exact minimizer is found by enumerating all vertex subsets, which caps the
graph at 22 vertices; the sweep variant scans prefix cuts of the second
eigenvector and is an upper bound by construction.

The enumeration scores 4096 subsets at a time in the compiled kernel
(walklab_conductance in _walk.c), which adds every table entry's doubles
in numpy's order, so the result is that of whole numpy tables built by
doubling, to the bit. On a 2-core Xeon VM one exact call took 2.1-3.4 ms
at n = 20 and 7.7-11 ms at the cap, n = 22; its tables take 2.0 MiB at
n = 20 and 2.7 MiB at n = 22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ParameterError, SizeCapError
from .graph import Graph
from .spectral import TransitionKernel, _symmetrized, build_kernel, kernel_eigenvalues

__all__ = [
    "ConductanceResult",
    "conductance_exact",
    "conductance_sweep",
    "jerrum_sinclair_check",
]

EXACT_CAP = 22
BLOCK_BITS = 12  # subsets are scored 2^BLOCK_BITS at a time
HALF_TOL = 1e-12


@dataclass(frozen=True)
class ConductanceResult:
    phi: float
    subset: tuple[int, ...]  # the argmin side, pi-mass at most 1/2
    pi_mass: float
    cut_flow: float
    method: str  # "exact" or "sweep"


def _pair_flow(kernel: TransitionKernel) -> np.ndarray:
    return kernel.stationary[:, None] * kernel.matrix


def _result(phi, mask_vertices, pi_mass, cut, method) -> ConductanceResult:
    return ConductanceResult(
        phi=float(phi),
        subset=tuple(int(v) for v in mask_vertices),
        pi_mass=float(pi_mass),
        cut_flow=float(cut),
        method=method,
    )


def conductance_exact(kernel: TransitionKernel) -> ConductanceResult:
    """Exact conductance by subset enumeration; capped at n = 22.

    Works on whatever kernel it is given: a lazy kernel halves every
    crossing flow and so halves the conductance, a weighted kernel uses
    its own stationary law.

    Subsets are scored 2^BLOCK_BITS at a time by `rng._KERNEL`, so no
    table holds 2^n entries, and every entry gets the additions of whole
    doubling tables in their order, ties going to the smallest mask. On a
    2-core Xeon VM (best of 9 calls) a call took 2.1-3.4 ms at n = 20 and
    7.7-11 ms at n = EXACT_CAP = 22, its tables holding 2.0 and 2.7 MiB.
    Whole 2^n-entry tables in numpy took 26 ms and 29 MiB, and 90 ms and
    116 MiB. Time doubles with each vertex; memory grows with n^2. A
    kernel that finds no memory for its tables raises MemoryError.
    """
    n = kernel.n
    if n < 2:
        raise ParameterError("conductance needs at least two vertices")
    if n > EXACT_CAP:
        raise SizeCapError(f"exact conductance capped at n={EXACT_CAP}, got {n}")
    q = _pair_flow(kernel)
    pi = kernel.stationary
    a = q + q.T
    out = np.empty(3)
    tables = [np.ascontiguousarray(x, dtype=float) for x in (pi, q, a)]
    mask = _rng._KERNEL.walklab_conductance(
        n, min(n, BLOCK_BITS), *(x.ctypes.data for x in tables), 0.5 + HALF_TOL, out.ctypes.data
    )
    if mask < 0:
        raise MemoryError("no memory for the conductance tables")
    ratio, mass, flow = out.tolist()
    # every subset of positive mass at most 1/2 scores a finite ratio
    if ratio == math.inf:
        raise ParameterError("no subset has stationary mass at most 1/2")
    members = [v for v in range(n) if mask & (1 << v)]
    return _result(ratio, members, mass, flow, "exact")


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
    sym, root = _symmetrized(kernel)
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
    return _result(*best, "sweep")


def jerrum_sinclair_check(g: Graph) -> dict:
    """Sandwich the lazy spectral gap between Phi^2/2 and 2 Phi.

    The gap is computed on the lazy kernel. The conductance is enumerated
    once, on the plain kernel, and reported as `phi`; the lazy kernel
    (P + I) / 2 keeps pi and halves every off-diagonal flow exactly, so
    `phi_lazy` is phi / 2. Both kernels walk g's own edge weights, so a
    weighting is checked on apply_scheme(g, scheme). Margins are reported
    signed, for conductance-survey's `spectral-sandwich-margins` check to judge.
    """
    return _spectral_sandwich(g, build_kernel(g))


def _spectral_sandwich(g: Graph, plain: TransitionKernel) -> dict:
    """`jerrum_sinclair_check` on g, given its plain kernel."""
    phi = conductance_exact(plain).phi
    phi_lazy = phi / 2.0
    gap = float(1.0 - kernel_eigenvalues(build_kernel(g, lazy=True))[1])
    lower_margin = gap - phi_lazy * phi_lazy / 2.0
    upper_margin = 2.0 * phi_lazy - gap
    return {
        "graph": g.name,
        "phi": phi,
        "phi_lazy": phi_lazy,
        "gap_lazy": gap,
        "lower_margin": lower_margin,
        "upper_margin": upper_margin,
    }
