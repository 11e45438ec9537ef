"""Conductance profiles and the spectral inequalities that ride on them.

The conductance of a chain with stationary law pi and edge flow
Q(x, y) = pi(x) P[x, y] is

    Phi = min over S with pi(S) <= 1/2 of Q(S, S-bar) / pi(S).

For the unweighted walk this reduces to cut edges over degree mass. The
exact minimizer is found by enumerating all vertex subsets, which caps the
graph at 22 vertices; the sweep variant scans prefix cuts of the second
eigenvector and is an upper bound by construction.

The enumeration scores 4096 subsets at a time. On a 2-core Xeon VM one
exact call takes about 14 ms and peaks at 2.2 MiB of arrays at n = 20, and
about 50 ms and 2.9 MiB at the cap, n = 22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Subsets are scored in blocks of 2^BLOCK_BITS, so no array holds 2^n
    entries. On a 2-core Xeon VM (tracemalloc peaks) a call takes about
    14 ms and 2.2 MiB at n = 20, and 50 ms and 2.9 MiB at n = EXACT_CAP =
    22; whole 2^n-entry tables took 26 ms and 29 MiB, and 90 ms and
    116 MiB. Time doubles with each vertex; memory grows with n^2.
    """
    n = kernel.n
    if n < 2:
        raise ParameterError("conductance needs at least two vertices")
    if n > EXACT_CAP:
        raise SizeCapError(f"exact conductance capped at n={EXACT_CAP}, got {n}")
    q = _pair_flow(kernel)
    pi = kernel.stationary
    a = q + q.T
    low = min(n, BLOCK_BITS)
    size = 1 << low
    # Tables over the low bits, built by doubling: entry index is the
    # bitmask itself. internal[mask] = total flow with both ends inside the
    # mask; cross[b, mask] = flow between the mask and vertex b, summed in
    # bit order. The masks holding x as top bit are filled from those below
    # 2^x, in place.
    pisum = np.zeros(size)
    internal = np.zeros(size)
    cross = np.zeros((n, size))
    for x in range(low):
        lo, hi = slice(0, 1 << x), slice(1 << x, 2 << x)
        np.add(internal[lo], cross[x, lo], out=internal[hi])
        internal[hi] += q[x, x]
        np.add(pisum[lo], pi[x], out=pisum[hi])
        np.add(cross[:, lo], a[x][:, None], out=cross[:, hi])
    # A high-bit pattern extends its parent (the pattern without its top
    # bit b) exactly as doubling would: pisum + pi[b], internal + cross_b
    # + q[b, b], and cross_b2 + a[b, b2] for each higher b2. The patterns
    # are walked depth first, one buffer set per depth.
    depth = n - low
    blocks = [
        (np.empty(size), np.empty(size), np.empty((depth - d, size)))
        for d in range(1, depth + 1)
    ]
    cut = np.empty(size)
    ratios = np.empty(size)
    invalid = np.empty(size, dtype=bool)
    heavy = np.empty(size, dtype=bool)
    best = [math.inf, 0, 0.0, 0.0]  # ratio, mask, pi mass, cut; mask 0 wins an all-inf tie
    found = False

    def score(base: int, pis: np.ndarray, inner: np.ndarray) -> None:
        nonlocal found
        # row sums of Q are pi, so the cut is the mass minus the internal flow
        np.maximum(np.subtract(pis, inner, out=cut), 0.0, out=cut)
        np.less_equal(pis, 0, out=invalid)
        np.logical_or(invalid, np.greater(pis, 0.5 + HALF_TOL, out=heavy), out=invalid)
        if base == 0:
            invalid[0] = True
        found = found or not invalid.all()
        np.putmask(np.divide(cut, pis, out=ratios), invalid, np.inf)
        i = int(ratios.argmin())
        ratio, mask = ratios[i], base | i
        if ratio < best[0] or (ratio == best[0] and mask < best[1]):
            best[:] = ratio, mask, pis[i], cut[i]

    with np.errstate(divide="ignore", invalid="ignore"):  # empty and massless sets are masked
        score(0, pisum, internal)
        # A frame holds a pattern's mask, its child bits b numbered by their
        # row k in its cross blocks, and its pisum and internal blocks. The
        # frames sit on a list: a recursive closure would be a reference
        # cycle, holding every buffer until the next garbage collection.
        stack = [(0, enumerate(range(low, n)), pisum, internal, cross[low:])]
        while stack:
            base, children, pis, inner, crosses = stack[-1]
            k, b = next(children, (None, None))
            if b is None:
                stack.pop()
                continue
            child_pis, child_inner, child_crosses = blocks[len(stack) - 1]
            np.add(pis, pi[b], out=child_pis)
            np.add(inner, crosses[k], out=child_inner)
            child_inner += q[b, b]
            rest = child_crosses[: n - 1 - b]
            np.add(crosses[k + 1 :], a[b, b + 1 :, None], out=rest)
            child = base | (1 << b)
            score(child, child_pis, child_inner)
            stack.append((child, enumerate(range(b + 1, n)), child_pis, child_inner, rest))
    if not found:
        raise ParameterError("no subset has stationary mass at most 1/2")
    ratio, mask, mass, flow = best
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
    return _result(*best, "sweep")


def jerrum_sinclair_check(g: Graph, scheme: str = "uniform") -> dict:
    """Sandwich the lazy spectral gap between Phi^2/2 and 2 Phi.

    The gap is computed on the lazy kernel. The conductance is enumerated
    once, on the plain kernel, and reported as `phi`; the lazy kernel
    (P + I) / 2 keeps pi and halves every off-diagonal flow exactly, so
    `phi_lazy` is phi / 2. Margins are reported signed; the check passes
    when both clear -1e-9.
    """
    phi = conductance_exact(build_kernel(g, scheme=scheme)).phi
    phi_lazy = phi / 2.0
    gap = float(1.0 - kernel_eigenvalues(build_kernel(g, scheme=scheme, lazy=True))[1])
    lower_margin = gap - phi_lazy * phi_lazy / 2.0
    upper_margin = 2.0 * phi_lazy - gap
    return {
        "graph": g.name,
        "scheme": scheme,
        "phi": phi,
        "phi_lazy": phi_lazy,
        "gap_lazy": gap,
        "lower_margin": lower_margin,
        "upper_margin": upper_margin,
        "passed": bool(lower_margin >= -1e-9 and upper_margin >= -1e-9),
    }
