"""Shared test utilities: random graph builders and independent oracles.

The oracles here are deliberately written in the dumbest correct style
available (forward dynamic programming, one pinned solve per target or
pair, row formulas, explicit enumeration, a Laplacian pseudo-inverse) so
they share no code path with the library implementations they check.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from walklab.graph import Graph


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra: int = 0,
    weighted: bool = False,
    loops: bool = False,
    parallel: bool = False,
) -> Graph:
    """Random tree plus `extra` additional edges, connected by construction."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append([u, v, 1.0])
    for _ in range(extra):
        if loops and rng.random() < 0.15:
            u = int(rng.integers(0, n))
            edges.append([u, u, 1.0])
            continue
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v and not loops:
            continue
        if not parallel:
            key = (min(u, v), max(u, v))
            if any((min(a, b), max(a, b)) == key for a, b, _ in edges):
                continue
        edges.append([u, v, 1.0])
    if weighted:
        for e in edges:
            e[2] = float(rng.uniform(0.1, 4.0))
    return Graph(n, edges, name=f"random(n={n},extra={extra})")


def random_simple_connected_graph(rng: np.random.Generator, n: int, extra: int = 0) -> Graph:
    return random_connected_graph(rng, n, extra=extra)


def scalar_draw_edges(
    rng: np.random.Generator,
    n: int,
    extra: int = 0,
    weighted: bool = False,
    loops: bool = False,
    parallel: bool = False,
) -> list[tuple[int, int, float]]:
    """The edges walklab.graph.random_connected_graph makes, one scalar draw a value.

    A parent per vertex v > 0 from rng.integers(0, v), then u and v of each
    extra pair from rng.integers(0, n), then a weight per kept edge from
    rng.uniform(0.1, 4.0).
    """
    edges: list[list] = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append([u, v, 1.0])
        seen.add((u, v))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        u, v = min(u, v), max(u, v)
        if (u == v and not loops) or (not parallel and u != v and (u, v) in seen):
            continue
        edges.append([u, v, 1.0])
        seen.add((u, v))
    if weighted:
        for e in edges:
            e[2] = float(rng.uniform(0.1, 4.0))
    return [tuple(e) for e in edges]


def pooled_pairs(g: Graph) -> dict[tuple[int, int], float]:
    """Pooled weight of each ordered pair, adding every edge's weight at (u, v), then (v, u), in edge order."""
    pooled: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        for pair in ((u, v), (v, u)):  # a loop adds twice
            pooled[pair] = pooled.get(pair, 0.0) + w
    return pooled


def sorted_frontier_path(g: Graph, source: int, target: int) -> list[int] | None:
    """Shortest path by a BFS that scans its frontier and each neighbour list in ascending order.

    A vertex's parent is the first frontier vertex that reaches it; None
    when the target is unreachable.
    """
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    parent = {source: source}
    frontier = [source]
    while frontier and target not in parent:
        nxt = []
        for u in sorted(frontier):
            for v in sorted(adj[u]):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if target not in parent:
        return None
    out = [target]
    while out[-1] != source:
        out.append(parent[out[-1]])
    return out[::-1]


def transition_matrix(g: Graph, lazy: bool = False) -> np.ndarray:
    """Row-stochastic walk matrix built straight from g.edges, weighted degrees included."""
    p = np.zeros((g.n, g.n))
    c = np.zeros(g.n)
    for (u, v), w in pooled_pairs(g).items():
        p[u, v] = w
    for u, v, w in g.edges:
        c[u] += w
        c[v] += w
    p = p / c[:, None]
    if lazy:
        p = 0.5 * p + 0.5 * np.eye(g.n)
    return p


def forward_dp_hitting(g: Graph, source: int, target: int, tol: float = 1e-12, cap: int = 10**7) -> float:
    """Expected hitting time by stepping the law of the unabsorbed walk.

    E[T] = sum_{t>=1} P(T >= t); we accumulate survival mass until the
    remaining mass is negligible. Only sensible on tiny well-connected
    graphs, which is all the tests use it for.
    """
    if source == target:
        return 0.0
    p = transition_matrix(g).copy()
    p[:, target] = 0.0  # mass that arrives is absorbed and leaves the sum
    mass = np.zeros(g.n)
    mass[source] = 1.0
    total = 0.0
    for _ in range(cap):
        alive = mass.sum()  # P(T > t)
        if alive < tol:
            return total
        total += alive
        mass = mass @ p
    raise RuntimeError("forward DP did not converge")


def pinned_solve_hitting(g: Graph) -> np.ndarray:
    """Hitting times by one pinned linear solve per target column.

    Column j solves (I - P) h = 1 with row j replaced by h[j] = 0. This is
    O(n^4) overall and shares nothing with the library's fundamental-matrix
    route, which is why it is the reference.
    """
    p = transition_matrix(g)
    n = g.n
    h = np.zeros((n, n))
    for j in range(n):
        a = np.eye(n) - p
        a[j, :] = 0.0
        a[j, j] = 1.0
        b = np.ones(n)
        b[j] = 0.0
        h[:, j] = np.linalg.solve(a, b)
    return h


def per_set_cover_times(g: Graph, lazy: bool = False) -> np.ndarray:
    """Exact cover time from every start, one small solve per visited set.

    remaining[S][v] is the expected time left to cover from v having
    visited exactly S; each S solves an |S| x |S| system whose right side
    reads the already-solved supersets, so sets go by decreasing size.
    """
    p = transition_matrix(g, lazy=lazy)
    n = g.n
    full = (1 << n) - 1
    remaining = {full: np.zeros(n)}
    for s in sorted(range(1, full), key=lambda s: -bin(s).count("1")):
        members = [v for v in range(n) if s & (1 << v)]
        idx = {v: i for i, v in enumerate(members)}
        a = np.eye(len(members))
        b = np.ones(len(members))
        for v in members:
            for w in np.nonzero(p[v])[0]:
                w = int(w)
                if s & (1 << w):
                    a[idx[v], idx[w]] -= p[v, w]
                else:
                    b[idx[v]] += p[v, w] * remaining[s | (1 << w)][w]
        vec = np.zeros(n)
        vec[members] = np.linalg.solve(a, b)
        remaining[s] = vec
    return np.array([remaining[1 << v][v] for v in range(n)])


def all_sets_cover_times(matrix: np.ndarray) -> np.ndarray:
    """Exact cover time from every start by solving every one of the 2^n
    visited sets, connected or not, one stacked solve per set size.

    This is the recursion the library ran before it solved connected sets
    only. It builds the same matrices and right sides, summing over
    ascending w, so the two must agree to the bit.
    """
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    sets = np.arange(1 << n)
    member = ((sets[:, None] >> np.arange(n)) & 1).astype(bool)
    size = member.sum(axis=1)
    remaining = np.zeros((1 << n, n))
    for k in range(n - 1, 0, -1):
        s = sets[size == k]
        idx = np.nonzero(member[s])[1].reshape(len(s), k)
        a = np.eye(k) - p[idx[:, :, None], idx[:, None, :]]
        b = np.ones((len(s), k))
        for w in range(n):
            b += p[idx, w] * remaining[s | (1 << w), w][:, None]
        remaining[s[:, None], idx] = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    starts = np.arange(n)
    return remaining[1 << starts, starts]


def mixing_distance(kernel, t: int) -> float:
    """max_{u, x} |P^t[u, x] - pi_x| by one matrix power."""
    power = np.linalg.matrix_power(kernel.matrix, t)
    return float(np.abs(power - kernel.stationary[None, :]).max())


def linear_mixing_oracle(kernel, threshold: float) -> int:
    """Smallest t >= 1 with mixing_distance(kernel, t) <= threshold, by a linear scan."""
    t = 1
    while mixing_distance(kernel, t) > threshold:
        t += 1
        assert t < 10**5
    return t


def edge_conductances(g: Graph) -> np.ndarray:
    """Symmetric pooled conductances straight from g.edges; loops carry no current."""
    c = np.zeros((g.n, g.n))
    for (u, v), w in pooled_pairs(g).items():
        if u != v:
            c[u, v] = w
    return c


def effective_resistance(g: Graph, u: int, v: int) -> float:
    """R(u, v) by one pinned solve: 1 over the current leaving u at W(u) = 1, W(v) = 0.

    The harmonic conditions hold at every other vertex, and the current is
    read off the unpinned Laplacian row, so Kirchhoff at u is not assumed.
    This is the pair solver the library's grounded all-pairs route is
    checked against.
    """
    if u == v:
        return 0.0
    c = edge_conductances(g)
    lap = np.diag(c.sum(axis=1)) - c
    a = lap.copy()
    b = np.zeros(g.n)
    a[u, :] = 0.0
    a[u, u] = 1.0
    b[u] = 1.0
    a[v, :] = 0.0
    a[v, v] = 1.0
    voltages = np.linalg.solve(a, b)
    return 1.0 / float(lap[u] @ voltages)


def unit_current_flow(g: Graph, source: int, sink: int) -> np.ndarray:
    """The unit current flow from source to sink as an antisymmetric matrix.

    Potentials come from the Laplacian pseudo-inverse applied to
    e_source - e_sink, so the flow has strength exactly 1 and shares no
    route with the pinned-voltage or grounded solves. Entry
    [x, y] is the net current from x to y across the pooled edge (x, y).
    """
    c = edge_conductances(g)
    lap = np.diag(c.sum(axis=1)) - c
    demand = np.zeros(g.n)
    demand[source], demand[sink] = 1.0, -1.0
    phi = np.linalg.pinv(lap) @ demand
    return c * (phi[:, None] - phi[None, :])


def flow_energy(g: Graph, flow: np.ndarray, source: int, sink: int, tol: float = 1e-9) -> float:
    """Energy sum_e i_e^2 / c_e of a unit flow, after checking the flow laws.

    Raises ValueError naming the violated law: antisymmetry, support
    (current on a non-edge), conservation at an interior vertex, or a
    source or sink strength other than 1 and -1.
    """
    flow = np.asarray(flow, dtype=float)
    skew = np.abs(flow + flow.T)
    if skew.max() > tol:
        i, j = np.unravel_index(skew.argmax(), flow.shape)
        raise ValueError(f"antisymmetry violated at edge ({i}, {j}) by {skew.max():.3e}")
    c = edge_conductances(g)
    stray = np.abs(flow[c == 0])
    if stray.size and stray.max() > tol:
        raise ValueError(f"support violated: current {stray.max():.3e} on a non-edge")
    net = flow.sum(axis=1)
    for x in range(g.n):
        if x not in (source, sink) and abs(net[x]) > tol:
            raise ValueError(f"conservation violated at vertex {x} by {net[x]:.3e}")
    if abs(net[source] - 1.0) > tol or abs(net[sink] + 1.0) > tol:
        raise ValueError(f"source strength is {net[source]} and sink {net[sink]}, expected 1 and -1")
    upper = np.triu(c > 0, k=1)
    return float(np.sum(flow[upper] ** 2 / c[upper]))


def per_subset_matthews_lower(hitting: np.ndarray, max_size: int = 12) -> float:
    """Matthews lower bound by trying every vertex subset one at a time:
    max over |A| in 2..max_size of min off-diagonal hitting(A) * h(|A| - 1)."""
    n = hitting.shape[0]
    best = 0.0
    for size in range(2, min(max_size, n) + 1):
        scale = sum(1.0 / i for i in range(1, size))
        for members in combinations(range(n), size):
            block = hitting[np.ix_(members, members)]
            off = block[~np.eye(size, dtype=bool)]
            best = max(best, float(off.min()) * scale)
    return best


def ikeda_kernel_formula(g: Graph) -> np.ndarray:
    """The ikeda walk matrix written directly from its row definition.

    P[u, v] = (1/sqrt(d(v))) / sum_{x in N(u)} 1/sqrt(d(x)), for a simple
    unit-weight graph.
    """
    d = g.degrees.astype(float)
    p = np.zeros((g.n, g.n))
    for u in range(g.n):
        nbrs = g.neighbors(u)
        denom = sum(1.0 / np.sqrt(d[x]) for x in nbrs)
        for v in nbrs:
            p[u, v] = (1.0 / np.sqrt(d[v])) / denom
    return p


def mindeg_kernel_formula(g: Graph) -> np.ndarray:
    """Row form of the min-deg walk matrix: P[u, v] proportional to
    1 / min(d(u), d(v)) over the neighbors of u."""
    d = g.degrees
    p = np.zeros((g.n, g.n))
    for u in range(g.n):
        nbrs = g.neighbors(u)
        denom = sum(1.0 / min(d[u], d[x]) for x in nbrs)
        for v in nbrs:
            p[u, v] = (1.0 / min(d[u], d[v])) / denom
    return p


def censored_kernel(g: Graph, subset) -> np.ndarray:
    """Transition kernel of the walk watched only on `subset`.

    Schur complement of the exterior block:
    P_S = P_SS + P_SX (I - P_XX)^(-1) P_XS.
    """
    p = transition_matrix(g)
    s = sorted(set(subset))
    x = [v for v in range(g.n) if v not in set(s)]
    if not x:
        return p[np.ix_(s, s)]
    pss = p[np.ix_(s, s)]
    psx = p[np.ix_(s, x)]
    pxx = p[np.ix_(x, x)]
    pxs = p[np.ix_(x, s)]
    return pss + psx @ np.linalg.solve(np.eye(len(x)) - pxx, pxs)


def doubling_conductance(kernel) -> tuple[float, tuple[int, ...], float, float]:
    """(phi, subset, pi_mass, cut_flow) from whole 2^n-entry subset tables.

    The tables are built by doubling, the entry index being the bitmask:
    the masks holding b as top bit are those below 2^b plus vertex b.
    Every entry gets its additions in bit order, so a blocked enumeration
    that keeps that order must match this with ==, ties going to the
    smallest mask as np.argmin over the whole table gives them.
    """
    n = kernel.n
    pi = kernel.stationary
    q = pi[:, None] * kernel.matrix
    a = q + q.T
    pisum = np.zeros(1 << n)
    internal = np.zeros(1 << n)
    cross = np.zeros(1 << (n - 1))  # flow between a mask and vertex b
    for b in range(n):
        low, high = slice(0, 1 << b), slice(1 << b, 2 << b)
        for x in range(b):
            np.add(cross[: 1 << x], a[x, b], out=cross[1 << x : 2 << x])
        np.add(internal[low], cross[low], out=internal[high])
        internal[high] += q[b, b]
        np.add(pisum[low], pi[b], out=pisum[high])
    cut = np.maximum(pisum - internal, 0.0)
    valid = (pisum > 0) & (pisum <= 0.5 + 1e-12)
    valid[0] = False
    ratios = np.divide(cut, pisum, out=np.full(1 << n, np.inf), where=valid)
    best = int(np.argmin(ratios))
    members = tuple(v for v in range(n) if best & (1 << v))
    return float(ratios[best]), members, float(pisum[best]), float(cut[best])
