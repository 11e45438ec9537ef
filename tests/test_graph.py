import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import graph
from walklab.electrical import conductance_matrix, resistance_matrix, spanning_tree_bound
from walklab.errors import DisconnectedError, ParameterError, SizeCapError, UnsupportedInputError
from walklab.graph import (
    Graph,
    _sum_left_to_right,
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
from walklab.product import local_observation, theorem_main_bounds
from walklab.spectral import build_kernel, mindeg_invariant_report
from walklab.walks import WalkConfig, simulate
from walklab.weighting import apply_scheme

from helpers import (
    edge_conductances,
    edge_list,
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
    # the first faulty edge is named, as given, with a range fault before a weight fault
    refused = [
        (2, [(0, 2)], "edge (0, 2) out of range for n=2"),
        (2, [(0, 1, 0.0)], "edge (0, 1) weight 0.0 is not positive and finite"),
        (2, [(0, 1, -1.0)], "edge (0, 1) weight -1.0 is not positive and finite"),
        (0, [], "graph needs at least one vertex, got n=0"),
        (3, [(0, 1), (2, 1, 0.5), (5, 1), (1, 1, -2.0)], "edge (5, 1) out of range for n=3"),
        (3, [(0, 1), (2, 1, -0.5), (5, 1)], "edge (2, 1) weight -0.5 is not positive and finite"),
        (3, [(1, 0, -1.0), (3, 1, 1.0)], "edge (1, 0) weight -1.0 is not positive and finite"),
        (3, [(-1, 1)], "edge (-1, 1) out of range for n=3"),
        (2, [(0, 1, 1.0, 2.0)], "edge (0, 1, 1.0, 2.0) is not a pair or weighted triple"),
        (2, [(0,)], "edge (0,) is not a pair or weighted triple"),
        (3, [(0, 1), (1, 2, 2.0), [2, 0, 1.0, 1.0]], "edge [2, 0, 1.0, 1.0] is not a pair or weighted triple"),
        (3, np.array([[0, 1], [3, 0]]), "edge (3, 0) out of range for n=3"),
        (3, np.array([[0, 1, 1.0], [1, 2, math.nan]]), "edge (1, 2) weight nan is not positive and finite"),
        (3, [(0, 1e30)], "edge (0, 1000000000000000019884624838656) out of range for n=3"),
        (3, [(2.5, -1.0)], "edge (2, -1) out of range for n=3"),
    ]
    for n, edges, message in refused:
        with pytest.raises(ParameterError, match=re.escape(message)):
            Graph(n, edges)
    # pairs and triples mixed in one list, the pairs at weight 1; an end is read as int() reads it
    assert Graph(3, [(0, 1), (2, 1, 2.0), [1, 1]]) == Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (1, 1, 1.0)])
    assert Graph(3, [(-0.5, 2.9)]) == Graph(3, [(0, 2)])
    assert Graph(3, [("0", "1"), (2, 1, "2.5")]) == Graph(3, [(0, 1), (1, 2, 2.5)])


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


def test_edge_arrays_refuse_writes():
    for g in (path(4), Graph(3, [(2, 0, 0.5), (1, 1)]), path(3).with_weights([2.0, 3.0])):
        assert (g.u.dtype, g.v.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
        assert (g.u <= g.v).all()
        for column in (g.u, g.v, g.w):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1


def test_volume_adds_the_weights_left_to_right():
    # pi and every CSV read the volume, so it adds the weights one at a time
    # in edge order, on every Python; numpy's pairwise sum differs here in
    # the last bits
    weights = np.random.default_rng(0).uniform(0.1, 4.0, 10000)
    g = path(10001).with_weights(weights)
    total = 0.0
    for w in weights.tolist():
        total += w
    assert g.volume == 2.0 * total
    assert float(np.sum(weights)) != total


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 10_000])
def test_float_sums_add_left_to_right_for_lists_and_arrays(size):
    values = np.random.default_rng(size).uniform(-3.0, 4.0, size)
    total = 0.0
    for x in values.tolist():
        total += x
    assert _sum_left_to_right(values) == _sum_left_to_right(values.tolist()) == total
    assert _sum_left_to_right(iter(values.tolist())) == total


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
    relabeled = Graph(b.n, [(perm[u], perm[v], w) for u, v, w in edge_list(b)])
    assert relabeled == a


def test_product_rejects_weighted_or_multi_factors():
    weighted = Graph(2, [(0, 1, 2.0)])
    multi = Graph(2, [(0, 1), (0, 1)])
    with pytest.raises(UnsupportedInputError):
        cartesian_product(weighted, path(2))
    with pytest.raises(UnsupportedInputError):
        cartesian_product(path(2), multi)


# every operation that checks its graph through Graph.require, with the
# faults it refuses; a weighted multigraph is fine for a kernel or a walk
GUARDED = {
    "build_kernel": (build_kernel, {"disconnected"}),
    "resistance_matrix": (resistance_matrix, {"disconnected"}),
    "simulate": (lambda g: simulate(g, WalkConfig(), 2, 0), {"disconnected"}),
    "spanning_tree_bound": (spanning_tree_bound, {"disconnected", "weighted", "multi"}),
    "apply_scheme-mindeg": (lambda g: apply_scheme(g, "mindeg"), {"disconnected", "weighted", "multi"}),
    "apply_scheme-ikeda": (lambda g: apply_scheme(g, "ikeda"), {"disconnected", "weighted", "multi"}),
    "mindeg_invariant_report": (mindeg_invariant_report, {"disconnected", "weighted", "multi"}),
    "local_observation": (lambda g: local_observation(g, [0, 1]), {"disconnected", "weighted"}),
    "theorem_main_bounds-first": (
        lambda g: theorem_main_bounds(g, path(5), 1.0, 1.0), {"disconnected", "weighted", "multi"}
    ),
    "theorem_main_bounds-second": (
        lambda g: theorem_main_bounds(path(5), g, 1.0, 1.0), {"disconnected", "weighted", "multi"}
    ),
    "cartesian_product": (lambda g: cartesian_product(path(2), g), {"weighted", "multi"}),
}
FAULTY = {
    "disconnected": (Graph(4, [(0, 1), (2, 3)], name="two-dashes"), DisconnectedError),
    "weighted": (path(4).with_weights([2.0, 1.0, 1.0]), UnsupportedInputError),
    "multi": (Graph(4, [(0, 1), (1, 2), (1, 2), (2, 3)], name="doubled"), UnsupportedInputError),
}


@pytest.mark.parametrize(
    "operation, fault",
    [(op, fault) for op, (_, faults) in GUARDED.items() for fault in sorted(faults)],
)
def test_every_guarded_operation_refuses_with_one_error_class(operation, fault):
    # a disconnected graph is always DisconnectedError, a weighted graph or a
    # multigraph always UnsupportedInputError itself, whichever operation refuses it
    call, _ = GUARDED[operation]
    g, error = FAULTY[fault]
    with pytest.raises(UnsupportedInputError) as caught:
        call(g)
    assert type(caught.value) is error
    assert g.name in str(caught.value)


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


def test_too_few_edges_prove_a_graph_apart_without_a_search():
    # fewer than n - 1 edges cannot span n vertices, so no adjacency lists
    # are built: near the vertex cap they cost about half a second
    g = Graph(999_999, [(1, 2, 1.0)])
    assert not g.is_connected
    assert "_adjacency_sets" not in vars(g)
    # n - 1 edges or more still take the search, loops and parallel edges
    # counted: a triangle with a loop leaves vertex 3 apart
    apart = Graph(4, [(0, 1), (1, 2), (2, 0), (3, 3)])
    assert not apart.is_connected and "_adjacency_sets" in vars(apart)
    assert Graph(1, []).is_connected and path(5).is_connected


def test_text_round_trip_is_byte_identical():
    # weights written with repr parse back to the same doubles, so the text
    # written from the parsed graph is the text read
    def to_text(g):
        return "".join([f"{g.n} {g.m}\n"] + [f"{u} {v} {w!r}\n" for u, v, w in edge_list(g)])

    g = Graph(4, [(0, 1, 0.1), (1, 2, 1.0), (3, 3, 2.5), (1, 2, 1.0 / 3.0)])
    text = to_text(g)
    again = Graph.from_text(text)
    assert again == g and edge_list(again) == edge_list(g)
    assert to_text(again) == text
    assert text.splitlines()[0] == "4 4"


def test_from_text_validates():
    refused = [
        ("", "empty graph text"),
        ("# only a comment\n\n", "empty graph text"),
        ("2\n", "bad header line '2', expected 'n m'"),
        ("2 x\n", "bad header line '2 x', expected integers 'n m'"),
        ("2 2\n0 1 1.0\n", "header promises 2 edges but 1 lines follow"),
        ("2 1\n0 1\n", "bad edge line '0 1', expected 'u v w'"),
        ("3 2\n0 1 1.0\n1 2 1.0 # note\n", "bad edge line '1 2 1.0 # note', expected 'u v w'"),
        ("2 1\n0 1.0 1.0\n", "bad edge line '0 1.0 1.0', expected integers u v and a number w"),
        ("3 2\n0 1 1\n 1 2 x \n", "bad edge line '1 2 x', expected integers u v and a number w"),
        ("3 2\n0 1 1.0\n1 3 1.0\n", "edge (1, 3) out of range for n=3"),
        ("2 1\n1 0 -1\n", "edge (1, 0) weight -1.0 is not positive and finite"),
        ("0 0\n", "graph needs at least one vertex, got n=0"),
        # the header is refused by the size rule before the body is split
        ("-2000000 -2000000\n", "graph needs at least one vertex, got n=-2000000"),
        ("# sized\n3 -1\n0 1 1\n", "graph needs a non-negative edge count, got m=-1"),
    ]
    for text, message in refused:
        with pytest.raises(ParameterError, match=re.escape(message)):
            Graph.from_text(text)
    oversize = [
        ("1000001 0\n", "graph: graphs are capped at 1000000 vertices, got n=1000001"),
        ("10 4000001\n0 1 1\n", "graph: graphs are capped at 4000000 edges, got m=4000001"),
        ("\n  10 4000001  \r\n0 1 1\n", "capped at 4000000 edges, got m=4000001"),
    ]
    for text, message in oversize:
        with pytest.raises(SizeCapError, match=re.escape(message)):
            Graph.from_text(text)
    with pytest.raises(SizeCapError, match=re.escape("named: graphs are capped at 1000000 vertices")):
        Graph.from_text("2000000 1\n", name="named")
    # int() and float() take underscores, which numpy's parser refuses
    assert Graph.from_text("11 1\n0 1_0 2_5.0\n") == Graph(11, [(0, 10, 25.0)])


def test_from_text_refuses_its_header_before_splitting_the_body():
    # 200 000 body lines would take over 10 MB as split strings
    text = "# too many\n10 4000001\n" + "0 1 1\n" * 200_000
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="capped at 4000000 edges"):
            Graph.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_family_dispatcher():
    assert family("path:6") == path(6)
    assert family("grid2d:3,4") == grid2d(3, 4)
    with pytest.raises(ParameterError):
        family("hypercube:3")
    with pytest.raises(ParameterError):
        family("path:3,4")
    with pytest.raises(ParameterError):
        family("path:x")


def test_graphs_are_refused_above_the_vertex_cap_before_they_are_built():
    with pytest.raises(SizeCapError, match="capped at 1000000 vertices"):
        Graph(10**6 + 1, [])
    # the family's vertex count is the product of its parameters
    for spec in ("path:1000001", "grid2d:1001,1000", "torus2d:2000,2000"):
        with pytest.raises(SizeCapError, match="capped at 1000000 vertices"):
            family(spec)
    with pytest.raises(ParameterError, match="grid2d needs rows"):
        family("grid2d:-2000,-2000")
    with pytest.raises(SizeCapError, match=re.escape("(path:1001)x(path:1000): graphs are capped at 1000000 vertices")):
        cartesian_product(path(1001), path(1000))


def test_edges_are_counted_against_the_cap_as_they_are_read(monkeypatch):
    monkeypatch.setattr(graph, "_EDGE_CAP", 10)
    with pytest.raises(SizeCapError, match="capped at 10 edges"):
        Graph(2, itertools.repeat((0, 1)))  # endless, so read no further than the cap
    assert complete(5).m == 10
    for build in (lambda: complete(6), lambda: lollipop(8), lambda: cartesian_product(path(3), path(3))):
        with pytest.raises(SizeCapError):
            build()


@pytest.mark.parametrize(
    "build, fits, refused",
    [(complete, 2828, 2829), (lollipop, 4242, 4243)],
    ids=["complete", "lollipop"],
)
def test_dense_families_are_refused_above_the_edge_cap_before_they_are_built(
    monkeypatch, build, fits, refused
):
    # n(n - 1)/2 edges, and k(k - 1)/2 + n - k with k = (2n + 1) // 3
    built = []
    monkeypatch.setattr(graph, "Graph", lambda n, edges, name="": built.append(name))
    build(fits)
    assert built == [f"{build.__name__}:{fits}"]
    with pytest.raises(SizeCapError, match="capped at 4000000 edges"):
        build(refused)
    assert len(built) == 1


def test_with_weights():
    g = path(3)
    h = g.with_weights([2.0, 3.0])
    assert edge_list(h) == [(0, 1, 2.0), (1, 2, 3.0)]
    assert edge_list(g) == [(0, 1, 1.0), (1, 2, 1.0)]  # original untouched
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
    shuffled = edge_list(g)
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
        for u, v, _ in edge_list(g):
            counts[u] += 1
            counts[v] += 1
        assert g.degrees.tolist() == counts
        pairs = [(u, v) for u, v, _ in edge_list(g)]
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
            assert edge_list(g) == expected, (seed, n, extra)
            assert ours.bit_generator.state == theirs.bit_generator.state
