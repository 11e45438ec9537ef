import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import graph
from walklab.electrical import conductance_matrix
from walklab.errors import DisconnectedError, ParameterError
from walklab.graph import (
    Graph,
    binary_tree,
    cartesian_product,
    complete,
    cycle,
    family,
    grid2d,
    lollipop,
    path,
    star,
    torus2d,
)
from walklab.spectral import build_kernel

from helpers import (
    edge_conductances,
    pooled_pairs,
    random_connected_graph,
    scalar_draw_edges,
    sorted_frontier_path,
    transition_matrix,
)

FAMILY_SPECS = [
    "path:7", "cycle:8", "star:6", "complete:6", "binary-tree:9",
    "grid2d:3,4", "torus2d:3,4", "lollipop:10",
]


def _multigraphs(count: int = 30) -> list[Graph]:
    """Seeded connected weighted multigraphs with loops and parallel edges."""
    graphs = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        graphs.append(
            random_connected_graph(
                rng, n, extra=int(rng.integers(0, 12)), weighted=True, loops=True, parallel=True
            )
        )
    return graphs


def test_degree_counts_loop_twice():
    g = Graph(3, [(0, 1), (1, 1), (1, 2)])
    assert g.degree(0) == 1
    assert g.degree(1) == 4
    assert g.degree(2) == 1


def test_weighted_degree_doubles_loop_weight():
    g = Graph(2, [(0, 1, 3.0), (1, 1, 2.0)])
    assert g.weighted_degrees.tolist() == [3.0, 3.0 + 2 * 2.0]
    assert g.volume == pytest.approx(2 * (3.0 + 2.0))


def test_parallel_edges_kept():
    g = Graph(2, [(0, 1), (0, 1), (1, 0)])
    assert g.m == 3
    assert g.degree(0) == 3
    assert not g.is_simple


def test_rejects_bad_edges():
    with pytest.raises(ParameterError):
        Graph(2, [(0, 2)])
    with pytest.raises(ParameterError):
        Graph(2, [(0, 1, 0.0)])
    with pytest.raises(ParameterError):
        Graph(2, [(0, 1, -1.0)])
    with pytest.raises(ParameterError):
        Graph(0, [])


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_rejects_weights_that_are_not_positive_and_finite(w):
    with pytest.raises(ParameterError, match="positive and finite"):
        Graph(2, [(0, 1, w)])
    with pytest.raises(ParameterError, match="positive and finite"):
        Graph.from_text(f"2 1\n0 1 {w}\n")


def test_rejects_weights_whose_volume_is_not_finite():
    # each weight is finite, but pi and the walk tables divide by the volume
    with pytest.raises(ParameterError, match="volume .* is not finite"):
        Graph(3, [(0, 1, 1e308), (0, 1, 1e308), (1, 2, 1.0)])
    with pytest.raises(ParameterError, match="volume .* is not finite"):
        Graph.from_text("3 3\n0 1 1e308\n0 1 1e308\n1 2 1\n")
    with pytest.raises(ParameterError, match="volume .* is not finite"):
        Graph(1, [(0, 0, 1e308)])
    assert Graph(2, [(0, 1, 8e307)]).volume == 1.6e308


def test_equality_ignores_edge_order_and_orientation():
    a = Graph(3, [(0, 1), (1, 2, 2.0)])
    b = Graph(3, [(2, 1, 2.0), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_equality_rounds_weights_to_12_decimals():
    a = Graph(2, [(0, 1, 1.0)])
    b = Graph(2, [(0, 1, 1.0 + 1e-14)])
    c = Graph(2, [(0, 1, 1.0 + 1e-9)])
    assert a == b
    assert a != c


def test_edges_are_immutable_tuple():
    g = path(4)
    assert isinstance(g.edges, tuple)
    with pytest.raises((TypeError, AttributeError)):
        g.edges[0] = (0, 2, 1.0)  # type: ignore[index]


def test_family_diameters():
    # closed-form diameters for the three basic families
    for n in range(2, 9):
        assert path(n).diameter == n - 1
    for n in range(3, 9):
        assert cycle(n).diameter == n // 2
    for n in range(2, 6):
        assert complete(n).diameter == 1
    assert star(7).diameter == 2


def test_binary_tree_shape():
    g = binary_tree(7)
    assert g.m == 6
    assert g.degree(0) == 2
    assert sorted(g.neighbors(1)) == [0, 3, 4]
    assert g.diameter == 4


def test_lollipop_nine_matches_reference_shape():
    g = lollipop(9)
    assert g.n == 9
    assert g.m == 18  # 6-clique (15 edges) plus a 3-vertex path tail
    assert g.degree(5) == 6  # junction: 5 clique edges + 1 path edge
    assert g.degree(8) == 1
    assert sorted(g.neighbors(6)) == [5, 7]


def test_lollipop_ninety_split():
    g = lollipop(90)
    k = 60
    assert g.m == k * (k - 1) // 2 + 30
    assert g.degree(k) == 2  # first pure path vertex


def test_grid_matches_product_of_paths():
    assert grid2d(2, 3) == cartesian_product(path(2), path(3))
    assert grid2d(4, 5) == cartesian_product(path(4), path(5))


def test_torus_matches_product_of_cycles():
    assert torus2d(3, 4) == cartesian_product(cycle(3), cycle(4))
    assert torus2d(5, 3) == cartesian_product(cycle(5), cycle(3))


def test_torus_rejects_sizes_below_three():
    with pytest.raises(ParameterError):
        torus2d(2, 5)


def test_product_encoding_and_counts():
    g, h = path(3), cycle(4)
    f = cartesian_product(g, h)
    assert f.n == 12
    assert f.m == g.n * h.m + h.n * g.m
    # vertex (a, x) = a * 4 + x; (1, 2) must neighbor (1, 1), (1, 3), (0, 2), (2, 2)
    assert sorted(f.neighbors(1 * 4 + 2)) == [2, 5, 7, 10]


def test_product_commutes_up_to_relabeling():
    g, h = path(3), cycle(5)
    a = cartesian_product(g, h)
    b = cartesian_product(h, g)
    # relabel (x, a) -> (a, x)
    perm = {x * g.n + aa: aa * h.n + x for aa in range(g.n) for x in range(h.n)}
    relabeled = Graph(b.n, [(perm[u], perm[v], w) for u, v, w in b.edges])
    assert relabeled == a


def test_product_rejects_weighted_or_multi_factors():
    weighted = Graph(2, [(0, 1, 2.0)])
    multi = Graph(2, [(0, 1), (0, 1)])
    with pytest.raises(ParameterError):
        cartesian_product(weighted, path(2))
    with pytest.raises(ParameterError):
        cartesian_product(path(2), multi)


def test_shortest_path_lowest_label_tie_break():
    g = cycle(4)
    assert g.shortest_path(0, 2) == [0, 1, 2]
    grid = grid2d(2, 2)
    # 0 -> 3 via 1 beats via 2
    assert grid.shortest_path(0, 3) == [0, 1, 3]


def test_shortest_path_disconnected_raises():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected
    with pytest.raises(DisconnectedError):
        g.shortest_path(0, 3)
    with pytest.raises(DisconnectedError):
        g.diameter


def test_text_round_trip_is_byte_identical():
    # weights written with repr parse back to the same doubles, so the text
    # written from the parsed graph is the text read
    def to_text(g):
        return "".join([f"{g.n} {g.m}\n"] + [f"{u} {v} {w!r}\n" for u, v, w in g.edges])

    g = Graph(4, [(0, 1, 0.1), (1, 2, 1.0), (3, 3, 2.5), (1, 2, 1.0 / 3.0)])
    text = to_text(g)
    again = Graph.from_text(text)
    assert again == g and again.edges == g.edges
    assert to_text(again) == text
    assert text.splitlines()[0] == "4 4"


def test_from_text_validates():
    with pytest.raises(ParameterError):
        Graph.from_text("")
    with pytest.raises(ParameterError):
        Graph.from_text("2 2\n0 1 1.0\n")  # promised 2 edges, gave 1
    with pytest.raises(ParameterError):
        Graph.from_text("2 1\n0 1\n")  # missing weight column


def test_family_dispatcher():
    assert family("path:6") == path(6)
    assert family("grid2d:3,4") == grid2d(3, 4)
    with pytest.raises(ParameterError):
        family("hypercube:3")
    with pytest.raises(ParameterError):
        family("path:3,4")
    with pytest.raises(ParameterError):
        family("path:x")


def test_with_weights():
    g = path(3)
    h = g.with_weights([2.0, 3.0])
    assert h.edges == ((0, 1, 2.0), (1, 2, 3.0))
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))  # original untouched
    with pytest.raises(ParameterError):
        g.with_weights([1.0])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_degree_sum_is_twice_edge_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    g = random_connected_graph(rng, n, extra=int(rng.integers(0, 8)), loops=True, parallel=True)
    assert int(g.degrees.sum()) == 2 * g.m
    assert g.volume == pytest.approx(g.weighted_degrees.sum())


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_equality_survives_random_edge_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    g = random_connected_graph(rng, n, extra=3, weighted=True, loops=True, parallel=True)
    shuffled = list(g.edges)
    rng.shuffle(shuffled)
    flipped = [(v, u, w) for u, v, w in shuffled]
    assert Graph(g.n, flipped) == g


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_bfs_distances_match_path_lengths(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    g = random_connected_graph(rng, n, extra=4)
    s = int(rng.integers(0, n))
    t = int(rng.integers(0, n))
    dist = g.bfs_distances(s)
    assert len(g.shortest_path(s, t)) - 1 == dist[t]


# --- the pooled edge table and the code that reads it ---


def test_pooled_table_is_the_dict_pooled_over_the_edges():
    extra = [
        Graph(1, []),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3, [(2, 2, 0.1), (0, 1, 0.1), (1, 0, 0.2), (2, 2, 0.7), (0, 1, 0.3)]),
    ]
    for g in [family(s) for s in FAMILY_SPECS] + _multigraphs() + extra:
        rows, cols, weights = g.pooled
        reference = pooled_pairs(g)
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(reference), g.name
        assert weights.tolist() == [reference[pair] for pair in sorted(reference)], g.name
        counts = [0] * g.n
        for u, v, _ in g.edges:
            counts[u] += 1
            counts[v] += 1
        assert g.degrees.tolist() == counts
        pairs = [(u, v) for u, v, _ in g.edges]
        assert g.is_simple == (len(set(pairs)) == len(pairs) and all(u != v for u, v in pairs))


@pytest.mark.parametrize("lazy", [False, True])
def test_kernels_and_conductances_read_the_pooled_table(lazy):
    for g in [family(s) for s in FAMILY_SPECS] + _multigraphs():
        assert np.array_equal(build_kernel(g, lazy=lazy).matrix, transition_matrix(g, lazy)), g.name
        assert np.array_equal(conductance_matrix(g), edge_conductances(g)), g.name


def test_shortest_path_is_the_sorted_frontier_path():
    graphs = [family(s) for s in FAMILY_SPECS] + _multigraphs()
    graphs.append(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 4), (3, 4)]))
    for g in graphs:
        for s in range(g.n):
            for t in range(g.n):
                expected = sorted_frontier_path(g, s, t)
                if expected is None:
                    with pytest.raises(DisconnectedError):
                        g.shortest_path(s, t)
                else:
                    assert g.shortest_path(s, t) == expected, (g.name, s, t)


@pytest.mark.parametrize("weighted, loops, parallel", [
    (False, False, False), (True, False, False), (True, True, True), (False, True, False),
])
def test_random_connected_graph_reads_the_generator_as_scalar_draws(weighted, loops, parallel):
    # array draws must make the edges one scalar draw a value makes, and
    # leave the generator where those draws leave it
    for seed in range(12):
        for n, extra in [(1, 0), (1, 3), (2, 1), (7, 0), (9, 14), (40, 25)]:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            g = graph.random_connected_graph(
                ours, n, extra=extra, weighted=weighted, loops=loops, parallel=parallel
            )
            expected = scalar_draw_edges(
                theirs, n, extra=extra, weighted=weighted, loops=loops, parallel=parallel
            )
            assert g.edges == tuple(expected), (seed, n, extra)
            assert ours.bit_generator.state == theirs.bit_generator.state
