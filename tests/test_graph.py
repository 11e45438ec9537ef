import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from helpers import random_connected_graph


def test_degree_counts_loop_twice():
    g = Graph(3, [(0, 1), (1, 1), (1, 2)])
    assert g.degree(0) == 1
    assert g.degree(1) == 4
    assert g.degree(2) == 1


def test_weighted_degree_doubles_loop_weight():
    g = Graph(2, [(0, 1, 3.0), (1, 1, 2.0)])
    assert g.weighted_degree(0) == 3.0
    assert g.weighted_degree(1) == 3.0 + 2 * 2.0
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
    g = Graph(4, [(0, 1, 0.1), (1, 2, 1.0), (3, 3, 2.5), (1, 2, 1.0)])
    text = g.to_text()
    again = Graph.from_text(text)
    assert again == g
    assert again.to_text() == text
    first = text.splitlines()[0]
    assert first == "4 4"


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
