import concurrent.futures
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import walks
from walklab.configmodel import regular_sequence, sample_simple
from walklab.errors import DisconnectedError, ParameterError, SizeCapError
from walklab.graph import Graph, complete, cycle, family, lollipop, path, star
from walklab.rng import substream
from walklab.spectral import build_kernel, exact_cover_time, exact_hitting
from walklab.walks import (
    EstimateRecord,
    WalkConfig,
    blanket_cover_reference,
    simulate,
)

from helpers import bucket_row, edge_list, random_connected_graph, reference_walk


def trial_value(g, config, seed, trial_index):
    """(stopping step, censored flag) of trial `trial_index` of a simulate run."""
    plan = walks._plan(g, config)
    [value] = walks._trial_values((plan, seed, trial_index, trial_index + 1))
    return (None, True) if value is None else (float(value), False)


def st_answer(g, s, t, seed, index=0):
    """Repetition `index` of the s-t probe, from a plan of its own."""
    [answer] = walks._st_answers(g, s, t, seed, index, index + 1)
    return answer


def visit_frequencies(g, steps, seed, scheme="uniform", lazy=False, start=0):
    """Visit frequencies N_v(T) / (T + 1) of one walk of T = steps steps.

    `_plan` builds the tables and checks the start, and it checks T + 1 as a
    budget, so a negative T or one above the cap is refused and T = 0 is
    not. A hit set-up whose target is its start owes no visit; `_walk` then
    counts every vertex, the start at time zero included, for all T steps
    of stream (seed, 1). The n sentinel markers follow the counts in left,
    as `_plan` lays them out.
    """
    config = WalkConfig(stop="hit", start=start, target=start, budget=steps + 1, scheme=scheme, lazy=lazy)
    tables, _, _, planned, _ = walks._plan(g, config)
    left = [-1] * g.n + planned[g.n :]
    left[start] = -2
    walks._walk(tables, start, substream(seed, 1), steps, left, 1)
    assert left[g.n :] == [True] * g.n
    return np.array([-c - 1 for c in left[: g.n]]) / float(steps + 1)


def test_simulate_is_reproducible():
    g = complete(5)
    cfg = WalkConfig(stop="cover")
    a = simulate(g, cfg, trials=300, seed=11)
    b = simulate(g, cfg, trials=300, seed=11)
    assert a == b
    c = simulate(g, cfg, trials=300, seed=12)
    assert c.mean != a.mean


def test_worker_count_does_not_change_estimates():
    g = complete(5)
    cfg = WalkConfig(stop="cover")
    serial = simulate(g, cfg, trials=600, seed=3, workers=1)
    parallel = simulate(g, cfg, trials=600, seed=3, workers=3)
    assert serial == parallel


def test_single_trial_matches_trial_value():
    g = path(6)
    cfg = WalkConfig(stop="hit", target=5)
    value, censored = trial_value(g, cfg, seed=7, trial_index=0)
    rec = simulate(g, cfg, trials=1, seed=7)
    assert not censored
    assert rec.mean == value
    assert rec.trials == 1


def test_trials_use_disjoint_streams():
    g = path(6)
    cfg = WalkConfig(stop="hit", target=5)
    values = [trial_value(g, cfg, seed=7, trial_index=i)[0] for i in range(5)]
    assert len(set(values)) > 1


def test_blanket_cover_dominates_cover_trialwise():
    g = complete(5)
    ref = blanket_cover_reference(g)
    assert ref == pytest.approx(4 * (1 + 1 / 2 + 1 / 3 + 1 / 4))
    for i in range(10):
        cover_value, _ = trial_value(g, WalkConfig(stop="cover"), seed=9, trial_index=i)
        bcover_value, _ = trial_value(g, WalkConfig(stop="blanket-cover"), seed=9, trial_index=i)
        assert bcover_value >= cover_value


def test_blanket_cover_reference_large_graph_uses_hitting_bound():
    g = cycle(20)
    kernel = build_kernel(g)
    max_hit = float(exact_hitting(kernel).max())
    expected = max_hit * sum(1 / i for i in range(1, 21))
    assert blanket_cover_reference(g) == pytest.approx(expected)


def test_hitting_estimate_matches_exact_value():
    g = path(5)
    kernel = build_kernel(g)
    exact = exact_hitting(kernel)[0, 4]
    assert exact == 16.0
    rec = simulate(g, WalkConfig(stop="hit", start=0, target=4), trials=4000, seed=2)
    assert rec.censored == 0
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_cover_estimate_matches_exact_value():
    g = complete(5)
    exact = exact_cover_time(build_kernel(g), start=0)
    rec = simulate(g, WalkConfig(stop="cover"), trials=4000, seed=4)
    assert abs(rec.mean - exact) <= 5 * rec.stderr


@pytest.mark.parametrize(
    "spec, config, trials, seed",
    [
        # star:12's centre has eleven equal entries
        ("star:12", WalkConfig(stop="cover"), 4000, 6),
        # lollipop:40's clique vertices have 26 or 27 entries, unequal at the
        # one that joins the path
        ("lollipop:40", WalkConfig(stop="hit", target=39, scheme="mindeg"), 3000, 12),
        # the hub of HUB_TEXT has 12 weighted entries, its hold folded into its loop
        ("hub", WalkConfig(stop="hit", start=5, target=14, lazy=True), 3000, 14),
    ],
    ids=["star:12-cover", "lollipop:40-mindeg-hit", "hub-lazy-hit"],
)
def test_wide_vertex_walks_match_exact_values(spec, config, trials, seed):
    # walks through vertices of more than 8 table entries against the exact
    # cover or hitting time of their kernel
    g = Graph.from_text(HUB_TEXT, name="hub") if spec == "hub" else family(spec)
    kernel = build_kernel(g, scheme=config.scheme, lazy=config.lazy)
    if config.stop == "cover":
        exact = exact_cover_time(kernel, start=config.start)
    else:
        exact = exact_hitting(kernel)[config.start, config.target]
    rec = simulate(g, config, trials=trials, seed=seed)
    assert rec.censored == 0
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_lazy_walk_doubles_hitting_time():
    g = complete(3)
    exact = exact_hitting(build_kernel(g, lazy=True))[0, 1]
    assert exact == pytest.approx(4.0)
    rec = simulate(g, WalkConfig(stop="hit", target=1, lazy=True), trials=4000, seed=8)
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_scheme_walk_matches_scheme_kernel():
    g = lollipop(8)
    exact = exact_hitting(build_kernel(g, scheme="mindeg"))[0, 7]
    rec = simulate(
        g, WalkConfig(stop="hit", start=0, target=7, scheme="mindeg"), trials=3000, seed=10
    )
    assert rec.scheme == "mindeg"
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_budget_censors_trials():
    g = path(10)
    rec = simulate(g, WalkConfig(stop="cover", budget=3), trials=50, seed=1)
    assert rec.censored == 50
    assert math.isnan(rec.mean)


def test_partial_censoring_excludes_censored_trials():
    g = path(6)
    budget = 40
    cfg = WalkConfig(stop="cover", budget=budget)
    values = []
    for i in range(200):
        value, censored = trial_value(g, cfg, seed=13, trial_index=i)
        if not censored:
            values.append(value)
    rec = simulate(g, cfg, trials=200, seed=13)
    assert 0 < rec.censored < 200
    assert rec.mean == pytest.approx(np.mean(values))
    assert rec.var == pytest.approx(np.var(values, ddof=1))


def test_st_connectivity_budget_and_one_sided_error():
    g = path(6)
    budget = 8 * g.n * g.m
    hits = 0
    for seed in range(20):
        out = st_answer(g, 0, 5, seed=seed)
        assert out["budget"] == budget
        if out["connected"]:
            assert out["steps"] <= budget
            hits += 1
    assert hits >= 10  # error is one-sided with probability at most 1/2


def test_st_connectivity_never_claims_separated_pair():
    g = Graph(4, [(0, 1), (2, 3)], name="two-parts")
    for seed in range(5):
        out = st_answer(g, 0, 3, seed=seed)
        assert out["connected"] is False
        assert out["steps"] is None
    same = st_answer(g, 2, 2, seed=0)
    assert same["connected"] is True and same["steps"] == 0
    # vertex 2 is isolated: as a target it is never reached, as a start it
    # is answered without a walk
    g = Graph(3, [(0, 1)], name="one-edge")
    assert st_answer(g, 0, 1, seed=0)["connected"] is True
    for s, t in ((0, 2), (2, 0)):
        out = st_answer(g, s, t, seed=0)
        assert out["connected"] is False and out["steps"] is None
    same = st_answer(g, 2, 2, seed=0)
    assert same["connected"] is True and same["steps"] == 0


def test_st_connectivity_keeps_its_recorded_walks():
    # step counts of the probe before it became a hit-mode trial; star:12
    # walks through an eleven-entry table at its centre
    for spec, s, t, expected in (
        ("star:12", 3, 5, [42, 6, 2, 62, 4, 2]),
        ("lollipop:20", 0, 19, [3667, 3712, 960, 854, 122, 1324]),
    ):
        g = family(spec)
        got = [st_answer(g, s, t, seed=4, index=i)["steps"] for i in range(6)]
        assert got == expected, spec


def test_weighted_st_budget_walks_past_a_light_edge():
    # cover of this path is dominated by the 1e-3 edge; the unweighted
    # 8nm = 48 steps almost never cross it
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1e-3)], name="light-edge")
    answers = [st_answer(g, 0, 2, seed=0, index=i) for i in range(50)]
    # 2 * volume 2.002 * tree sum (1 + 1000), rounded up
    assert {a["budget"] for a in answers} == {4009}
    assert sum(a["connected"] for a in answers) >= 25


def test_st_budget_merges_parallel_edges_and_skips_loops():
    # vertex 3 lies outside s's component and adds nothing; the two 1e-3
    # edges act as one of weight 2e-3 and the loop adds only volume:
    # 2 * (1 + 1.002 + 10.002) * (1 + 500)
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1e-3), (1, 2, 1e-3), (2, 2, 5.0), (3, 3, 1.0)])
    assert st_answer(g, 0, 2, seed=1)["budget"] == math.ceil(2 * 12.004 * 501)


def test_st_budget_above_the_walk_cap_is_refused(monkeypatch):
    # with a 1e-308 edge the weighted budget overflows to inf, and is
    # refused rather than rounded
    for light in (1e-300, 1e-308):
        g = Graph(3, [(0, 1, 1.0), (1, 2, light)])
        with pytest.raises(SizeCapError):
            st_answer(g, 0, 2, seed=0)

    # unweighted, 8nm alone passes the cap at about 11 200 vertices, and is
    # refused from n and m before the BFS and the spanning tree are built
    def no_work(*args, **kwargs):
        raise AssertionError("the budget built a search before checking 8nm")

    monkeypatch.setattr(walks, "_kruskal", no_work)
    monkeypatch.setattr(Graph, "bfs_distances", no_work)
    for g in (path(11_200), cycle(11_200)):
        with pytest.raises(SizeCapError, match="above the cap"):
            st_answer(g, 0, 1, seed=0)


def test_st_repetitions_from_one_plan_match_single_probes():
    for spec, s, t in (("star:12", 3, 5), ("lollipop:20", 0, 19), ("path:6", 2, 2)):
        g = family(spec)
        single = [st_answer(g, s, t, seed=4, index=i) for i in range(2, 8)]
        assert walks._st_answers(g, s, t, 4, 2, 8) == single, spec


PINNED_TRIALS = {
    # trial_value(g, config, seed=3, trial_index=i) for i in 0..5; path:10
    # has at most three entries a table, star:12 eleven or twelve at its
    # centre
    "path:10": {
        "cover": [163, 59, 65, 147, 67, 13],
        "hit": [19, 37, 13, 27, 13, 9],
        "blanket-cover": [338, 205, 291, 206, 125, 220],
        "lazy-hit": [27, 45, 28, 72, 101, 27],
        "mindeg-cover": [165, 61, 69, 143, 67, 13],
    },
    "star:12": {
        "cover": [37, 51, 67, 85, 77, 97],
        "hit": [13, 3, 33, 19, 5, 21],
        "blanket-cover": [103, 129, 163, 113, 185, 165],
        "lazy-hit": [39, 18, 4, 3, 142, 15],
        "mindeg-cover": [37, 51, 67, 85, 77, 97],
    },
}

PINNED_CONFIGS = {
    "cover": WalkConfig(stop="cover"),
    "hit": WalkConfig(stop="hit", target=5),
    "blanket-cover": WalkConfig(stop="blanket-cover"),
    "lazy-hit": WalkConfig(stop="hit", target=5, lazy=True),
    "mindeg-cover": WalkConfig(stop="cover", scheme="mindeg"),
}


@pytest.mark.parametrize("spec", sorted(PINNED_TRIALS))
@pytest.mark.parametrize("mode", sorted(PINNED_CONFIGS))
def test_trial_values_keep_their_recorded_walks(spec, mode):
    g = family(spec)
    got = [trial_value(g, PINNED_CONFIGS[mode], seed=3, trial_index=i) for i in range(6)]
    assert got == [(float(v), False) for v in PINNED_TRIALS[spec][mode]]


# trial_value(g, config, seed=3, trial_index=i) for i in 0..5 at vertices
# of degree above 8: every vertex of complete:12 (degree 12 once lazy),
# star:40's centre, and the hub of a weighted graph read as a graph file,
# whose hub has eleven unequal spokes, a doubled spoke and a loop
HUB_TEXT = """15 28
0 1 0.25
0 2 3.0
0 3 1.0
0 4 0.5
0 5 2.5
0 6 1.75
0 7 0.125
0 8 4.0
0 9 1.5
0 10 0.75
0 11 2.0
0 0 0.6
0 3 0.9
1 2 1.0
2 3 1.0
3 4 1.0
4 5 1.0
5 6 1.0
6 7 1.0
7 8 1.0
8 9 1.0
9 10 1.0
10 11 1.0
11 1 1.0
11 12 0.3
6 12 5.0
12 13 1.0
13 14 2.0
"""

PINNED_WIDE_TRIALS = [
    ("complete:12", WalkConfig(stop="cover", lazy=True), [73, 121, 87, 44, 39, 91]),
    ("complete:12", WalkConfig(stop="cover", scheme="mindeg"), [27, 39, 23, 33, 18, 23]),
    ("star:40", WalkConfig(stop="cover", lazy=True), [614, 655, 870, 726, 477, 643]),
    ("star:40", WalkConfig(stop="cover", scheme="mindeg"), [271, 259, 323, 289, 313, 285]),
    ("hub", WalkConfig(stop="hit", start=0, target=14), [70, 64, 124, 27, 11, 12]),
    ("hub", WalkConfig(stop="hit", start=5, target=14, lazy=True), [67, 203, 91, 220, 402, 883]),
]


@pytest.mark.parametrize("spec, config, values", PINNED_WIDE_TRIALS)
def test_wide_vertex_trials_keep_their_recorded_walks(spec, config, values):
    g = Graph.from_text(HUB_TEXT, name="hub") if spec == "hub" else family(spec)
    got = [trial_value(g, config, seed=3, trial_index=i) for i in range(6)]
    assert got == [(float(v), False) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 9),
    st.integers(0, 12),
    st.booleans(),
    st.sampled_from(["cover", "hit"]),
    st.integers(0, 2**63),
)
def test_trials_walk_as_the_reference_walker(graph_seed, n, extra, lazy, stop, seed):
    # weighted multigraphs with loops and parallel edges, walked plain and
    # lazy, against a walker that bisects at every step
    g = random_connected_graph(
        np.random.default_rng(graph_seed), n, extra=extra, weighted=True, loops=True, parallel=True
    )
    target = n - 1 if stop == "hit" else None
    plan = walks._plan(g, WalkConfig(stop=stop, target=target, lazy=lazy, budget=20_000))
    got = walks._trial_values((plan, seed, 0, 3))
    assert got == [reference_walk(g, seed, i, 0, target, lazy, budget=20_000) for i in range(3)]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(1e-3, 1e3) | st.integers(1, 5).map(float), min_size=1, max_size=40),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.integers(0, 2**63),
)
def test_hub_trials_walk_as_the_reference_walker(spokes, lazy, seed):
    # hubs of up to 40 unequal spokes, whose rows have many impure buckets;
    # hit walks from the first hub to its last leaf, censored at 2000 steps
    g = _hub_graph(spokes)
    target = len(spokes) + len(spokes[0]) - 1
    plan = walks._plan(g, WalkConfig(stop="hit", target=target, lazy=lazy, budget=2000))
    got = walks._trial_values((plan, seed, 0, 3))
    assert got == [reference_walk(g, seed, i, 0, target, lazy, budget=2000) for i in range(3)]


def test_vertex_tables_hold_running_sums_of_merged_weights():
    # every vertex's table, wide or not, against exact running sums of the
    # weights merged from g's edges: complete:12 lazy (degree 12 with the
    # hold) and the weighted hub with its loop and doubled spoke
    for g, lazy in [(family("complete:12"), True), (Graph.from_text(HUB_TEXT), False)]:
        nbrs, cum, _, _ = walks._vertex_tables(g, "uniform", lazy)
        for v in range(g.n):
            merged: dict[int, Fraction] = {}
            for a, b, w in edge_list(g):
                for end, other in ((a, b), (b, a)):  # a loop adds twice
                    if end == v:
                        merged[other] = merged.get(other, 0) + Fraction(w)
            assert not (lazy and v in merged)  # no loop to fold the hold into
            out = sorted(merged)
            probs = [merged[x] / sum(merged.values()) for x in out]
            if lazy:
                out, probs = out + [v], [p / 2 for p in probs] + [Fraction(1, 2)]
            assert nbrs[v] == out + [g.n + v]  # the sentinel, at index len(cum[v])
            assert cum[v][-1] == 1.0
            running = Fraction(0)
            for c, p in zip(cum[v], probs):
                running += p
                assert abs(Fraction(c) - running) <= len(out) * Fraction(2) ** -52, (v, c)


def _hub_graph(spokes: list[list[float]]) -> Graph:
    """One star per weight list, hubs first: hub h has a spoke of each weight."""
    hubs = len(spokes)
    edges, leaf = [], hubs
    for h, weights in enumerate(spokes):
        for w in weights:
            edges.append((h, leaf, w))
            leaf += 1
    return Graph(leaf, edges)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(1e-3, 1e3) | st.integers(1, 5).map(float), min_size=1, max_size=40),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_bucket_rows_pick_as_the_bisection(spokes, lazy, seed):
    # the oracle rows of hubs of up to 40 spokes, the lazy hold included, at
    # every power of two from 1 to 1024
    nbrs, cum, _, _ = walks._vertex_tables(_hub_graph(spokes), "uniform", lazy)
    interior = np.random.default_rng(seed)
    for r in [2**j for j in range(11)]:
        for v in range(len(spokes)):
            row = bucket_row(cum[v], r)
            assert len(row) == r
            assert row.count(None) <= len(cum[v]) - 1
            edges = np.arange(r + 1) / r
            probes = [edges[:-1], np.nextafter(edges[1:], 0.0)]
            probes.append((np.arange(r) + interior.random(r)) / r)
            up = down = np.array(cum[v])
            for _ in range(4):
                up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
                probes += [up, down]
            u = np.concatenate(probes)
            u = u[(u >= 0.0) & (u < 1.0)]
            keys = (u * r).astype(np.intp).tolist()  # the walk's keys w >> shift, for u from w
            for x, k in zip(u.tolist(), keys):
                assert k / r <= x < (k + 1) / r
                assert row[k] is None or row[k] == bisect_left(cum[v], x), (v, r, x)


def _rows_at(nbrs, cum, r):
    """The plan's rows at r buckets.

    cuts = r / _SHARE asks for r from 32 to 256 and from 4096 up; 512 to
    2048 are reached only by halving the capped resolution under _SLOTS, so
    there distinct one-entry lists pad the plan to _SLOTS / r rows.
    """
    pad, cuts = [], r / walks._SHARE
    if 256 < r < 4096:
        distinct = len({id(c) for c in cum})
        pad, cuts = [[1.0] for _ in range(walks._SLOTS // r - distinct)], float(walks._MAX_BUCKETS)
    rows, shift = walks._step_tables(nbrs + [None] * len(pad), cum + pad, cuts)[2:]
    assert 2 ** (64 - int(shift)) == r
    return rows[: len(cum)]


def _oracle_row(bounds, r):
    return [len(bounds) if i is None else i for i in bucket_row(bounds, r)]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(1e-3, 1e3) | st.integers(1, 5).map(float), min_size=1, max_size=40),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
)
def test_numpy_rows_are_the_oracle_rows(spokes, lazy):
    # every resolution a plan can pick, from 32 to 2^14 buckets; an impure
    # bucket holds the sentinel's index, the row's length
    nbrs, cum, _, _ = walks._vertex_tables(_hub_graph(spokes), "uniform", lazy)
    for r in [2**j for j in range(5, 15)]:
        rows = _rows_at(nbrs, cum, r)
        for v in range(len(cum)):
            assert rows[v] == _oracle_row(cum[v], r), (v, r)
            assert nbrs[v][len(cum[v])] == len(cum) + v


def test_step_tables_share_one_row_per_distinct_cum_list():
    g = Graph.from_text(HUB_TEXT)
    nbrs, cum, _, cuts = walks._vertex_tables(g, "uniform", True)
    tables = walks._step_tables(nbrs, cum, cuts)
    assert tables[:2] == (nbrs, cum)
    rows, shift = tables[2:]
    r = 2 ** (64 - int(shift))
    for v in range(g.n):
        assert rows[v] == _oracle_row(cum[v], r)
        for w in range(v):
            # equal cum lists are one list, and so share one row
            assert (cum[v] is cum[w]) == (cum[v] == cum[w])
            assert (rows[v] is rows[w]) == (cum[v] == cum[w])
    # a regular graph walked uniformly holds one row however large it is
    nbrs, cum, _, cuts = walks._vertex_tables(family("cycle:5000"), "uniform", False)
    rows = walks._step_tables(nbrs, cum, cuts)[2]
    assert all(row is rows[0] for row in rows)


def _resolution(cum, cuts):
    return 2 ** (64 - int(walks._step_tables([None] * len(cum), cum, cuts)[3]))


@pytest.mark.parametrize(
    "spec, scheme, lazy, r",
    [
        ("path:10", "uniform", False, 128),  # cuts 8/9: two entries inside, one at each end
        ("cycle:8", "uniform", False, 128),  # cuts exactly 1
        ("regular:3", "uniform", False, 256),  # cuts exactly 2 at n = 2000
        ("torus2d:50,40", "uniform", False, 256),  # cuts exactly 3: 512 would allocate keys
        ("complete:12", "uniform", True, 256),  # eleven neighbours and the hold: cuts 11
        ("lollipop:40", "uniform", False, 4096),
        ("lollipop:40", "mindeg", False, 4096),
        ("star:3000", "uniform", False, 2**14),  # cuts 1499: capped
    ],
)
def test_resolution_bounds_the_stationary_bisecting_share(spec, scheme, lazy, r):
    if spec == "regular:3":
        g = sample_simple(regular_sequence(2000, 3), 1).graph
    else:
        g = family(spec)
    nbrs, cum, pi, cuts = walks._vertex_tables(g, scheme, lazy)
    assert cuts == pytest.approx(sum(p * (len(c) - 1) for p, c in zip(pi, cum)), rel=1e-12)
    rows, shift = walks._step_tables(nbrs, cum, cuts)[2:]
    assert 2 ** (64 - int(shift)) == _resolution(cum, cuts) == r
    # the least power of two from 32 up whose impure buckets can take at
    # most 1/128 of the stationary steps, unless it is capped, or held at
    # 256 buckets, whose keys need no allocation, while at most 1/16 of the
    # steps can bisect there
    assert (walks._SHARE, walks._SMALL_INTS, walks._STAY) == (128, 256, 16)
    held = r == 256 and cuts <= 16
    assert cuts <= r / 128 or r == walks._MAX_BUCKETS or held
    assert r == 32 or cuts > r / 256
    # and the impure buckets the rows really have take no more than that
    share = math.fsum(p * row.count(len(c)) for p, c, row in zip(pi, cum, rows)) / r
    assert share <= cuts / r * (1 + 1e-12)


def test_resolution_halves_for_many_distinct_rows_down_to_32():
    def wide(count):  # distinct rows of 20 entries
        return [[k / 2**20 + j / 64 for j in range(19)] + [1.0] for k in range(count)]

    # cuts 19 asks for 4096 buckets, which 64 rows hold within _SLOTS
    assert _resolution(wide(64), 19.0) == 4096
    assert _resolution(wide(65), 19.0) == 2048  # 4096 would pass _SLOTS
    assert _resolution(wide(9000), 19.0) == 32  # past _SLOTS / 32 rows the floor holds
    # one distinct row, however many vertices share it
    assert _resolution([[0.5, 1.0]] * 100_000, 1.0) == 128
    assert _resolution([[1.0]], 0.0) == 32


@pytest.mark.parametrize(
    "spec, counts",
    [
        ("cycle:8", [105, 117, 139, 119, 118, 129, 147, 127]),
        ("star:5", [509, 93, 124, 157, 118]),
    ],
)
def test_visit_counts_keep_their_recorded_walk(spec, counts):
    steps = 1000
    freq = visit_frequencies(family(spec), steps=steps, seed=0, lazy=True)
    assert (freq * (steps + 1)).tolist() == [float(c) for c in counts]


# lollipop:30's clique vertices have tables of 19 to 21 entries; 50 000
# steps from vertex 0 at seed 0
PINNED_LONG_VISITS = [
    (
        {"lazy": True},
        [2396, 2341, 2315, 2478, 2347, 2309, 2532, 2343, 2458, 2299, 2408, 2397, 2383, 2354, 2372,
         2339, 2286, 2311, 2331, 2427, 216, 253, 200, 227, 235, 302, 353, 367, 305, 117],
    ),
    (
        {"scheme": "mindeg"},
        [1643, 1691, 1612, 1672, 1649, 1565, 1635, 1668, 1620, 1703, 1598, 1637, 1691, 1619, 1701,
         1635, 1641, 1628, 1607, 2448, 1628, 1625, 1625, 1599, 1459, 1460, 1523, 1527, 2332, 1560],
    ),
]


@pytest.mark.parametrize("kwargs, counts", PINNED_LONG_VISITS)
def test_long_visit_counts_keep_their_recorded_walk(kwargs, counts):
    steps = 50_000
    freq = visit_frequencies(family("lollipop:30"), steps=steps, seed=0, **kwargs)
    assert freq.tolist() == (np.array(counts) / float(steps + 1)).tolist()


def test_hub_of_thousands_keeps_its_recorded_hit_walks():
    # star:3000's centre has a 2999-entry step table
    g = family("star:3000")
    config = WalkConfig(stop="hit", start=1, target=2)
    got = [trial_value(g, config, seed=3, trial_index=i) for i in range(6)]
    assert got == [(float(v), False) for v in [5020, 652, 1836, 5406, 5428, 7398]]


def test_long_walks_keep_their_recorded_values():
    # walks that read past 8192 uniforms, into the full BUFFER blocks;
    # cycle:200's tables have two entries, lollipop:30's clique vertices up
    # to 20
    cycle200 = family("cycle:200")
    got = [trial_value(cycle200, WalkConfig(stop="cover"), seed=3, trial_index=i) for i in range(3)]
    assert got == [(38446.0, False), (40569.0, False), (15901.0, False)]
    lollipop30 = family("lollipop:30")
    got = [trial_value(lollipop30, WalkConfig(stop="cover"), seed=3, trial_index=i) for i in range(4)]
    assert got == [(2070.0, False), (4942.0, False), (7399.0, False), (8862.0, False)]


def test_two_chunk_simulate_keeps_its_recorded_estimate():
    # 300 trials span two chunks; seven of them walk past 4096 steps
    rec = simulate(family("cycle:60"), WalkConfig(stop="cover"), trials=300, seed=3, workers=1)
    assert rec == EstimateRecord(
        quantity="cover",
        graph_id="cycle:60",
        scheme="uniform",
        start=0,
        trials=300,
        seed=3,
        mean=1702.4466666666667,
        var=829636.9168784838,
        stderr=52.58760680611874,
        censored=0,
    )


@pytest.mark.parametrize(
    "spec, config, trials, seed",
    [
        # Welford moments merged per chunk gave mean 9.396999999999998 here
        ("complete:10", WalkConfig(stop="hit", target=9), 1000, 3),
        ("path:6", WalkConfig(stop="cover", budget=40), 300, 13),  # partly censored
        ("star:12", WalkConfig(stop="cover", lazy=True), 2 * walks.CHUNK + 7, 1),
    ],
)
def test_simulate_moments_are_exact_once_rounded(spec, config, trials, seed):
    g = family(spec)
    runs = [trial_value(g, config, seed, i) for i in range(trials)]
    values = [Fraction(int(v)) for v, censored in runs if not censored]
    k = len(values)
    mean = sum(values) / k
    var = sum((v - mean) ** 2 for v in values) / (k - 1)
    rec = simulate(g, config, trials=trials, seed=seed)
    assert rec.censored == trials - k
    assert rec.mean == float(mean)
    assert rec.var == float(var)
    assert rec.stderr == math.sqrt(float(var) / k)


def test_negative_trial_index_is_refused():
    # index -1 would draw from stream (seed, 0), which is reserved for
    # setup-level choices
    g = path(6)
    with pytest.raises(ParameterError):
        st_answer(g, 0, 5, seed=7, index=-1)
    with pytest.raises(ParameterError):
        st_answer(g, 2, 2, seed=7, index=-1)


def test_trial_index_must_keep_its_stream_key_in_range():
    # trial i reads stream (seed, 1 + i), and a Philox key word is below 2^64
    g = path(6)
    config = WalkConfig(stop="hit", target=5)
    value, censored = trial_value(g, config, seed=7, trial_index=2**64 - 2)
    assert value is not None and not censored
    with pytest.raises(ParameterError):
        trial_value(g, config, seed=7, trial_index=2**64 - 1)


@pytest.mark.parametrize("seed, index", [(0, 1), (7, 2**63), (2**64 - 1, 2**64 - 1)])
def test_each_trial_of_a_chunk_draws_its_own_substream(monkeypatch, seed, index):
    # the chunk holds the trial with stream key (seed, index) and its
    # in-range neighbours; every fake trial reads 10 000 raw words and then
    # leaves the shared generator part way through a block, with a cached
    # 32-bit half word, for the next trial to reset
    drawn = []

    def fake_walk(tables, pos, rng, *rest):
        drawn.append(rng.bit_generator.random_raw(10_000).tolist())
        rng.random(37)
        rng.integers(2**32, dtype=np.uint32)
        return None

    monkeypatch.setattr(walks, "_walk", fake_walk)
    plan = walks._plan(path(4), WalkConfig())
    lo, hi = max(0, index - 2), min(index + 1, 2**64 - 1)
    assert walks._trial_values((plan, seed, lo, hi)) == [None] * (hi - lo)
    assert len(drawn) == hi - lo
    for i, values in zip(range(lo, hi), drawn):
        assert values == substream(seed, 1 + i).bit_generator.random_raw(10_000).tolist(), i


def test_growing_blocks_read_the_uniforms_of_one_draw():
    # the block sizes _walk draws: 64, 128, ..., 4096, then 4096 again, of
    # raw Philox words, each the source of one uniform
    sizes = [64 << k for k in range(7)] + [walks.BUFFER]
    assert sizes[-2:] == [4096, 4096]
    blocked = substream(5, 9).bit_generator
    parts = [blocked.random_raw(size) for size in sizes]
    whole = substream(5, 9).bit_generator.random_raw(sum(sizes))
    assert np.concatenate(parts).tolist() == whole.tolist()


@pytest.mark.parametrize("seed, index", [(5, 9), (7, 2**64 - 1)])
def test_each_word_makes_the_double_random_returns(seed, index):
    words = substream(seed, index).bit_generator.random_raw(10_000).tolist()
    doubles = substream(seed, index).random(10_000).tolist()
    assert [(w >> 11) * 2**-53 for w in words] == doubles


@pytest.mark.parametrize("b", range(5, 11))
def test_top_bits_of_a_word_are_its_bucket(b):
    # w >> (64 - b) is int(u 2^b) for the double u of w, at both ends of the
    # word range and on each side of every bucket edge: the words whose
    # double is k / 2^b (the first 2^11 above k 2^(64 - b)) and the last
    # 2^11 below it, whose double is the one just below the edge
    edges = [k << (64 - b) for k in range(2**b + 1)]
    words = {0, 2**64 - 1}
    for e in edges:
        words.update({e - 2048, e - 1, e, e + 2047})
    words = sorted(w for w in words if 0 <= w < 2**64)
    doubles = [(w >> 11) * 2**-53 for w in words]
    assert [w >> (64 - b) for w in words] == [int(u * 2**b) for u in doubles]
    # and what numpy computes from a block, as the walk reads it
    block = np.array(words, dtype=np.uint64)
    keys = block >> np.array(64 - b, dtype=np.uint64)
    assert keys.tolist() == (np.array(doubles) * 2**b).astype(np.intp).tolist()


def test_a_chunk_builds_one_generator(monkeypatch):
    built = []

    def counting_substream(seed, index=0):
        built.append(index)
        return substream(seed, index)

    monkeypatch.setattr(walks, "substream", counting_substream)
    simulate(path(6), WalkConfig(stop="cover"), trials=walks.CHUNK + 44, seed=2)
    assert built == [1, 1 + walks.CHUNK]



@pytest.mark.parametrize("kwargs", [{"steps": -1}, {"steps": 10, "start": 9}, {"steps": 10, "start": -1}])
def test_visit_frequencies_refuse_bad_walk_inputs(kwargs):
    with pytest.raises(ParameterError):
        visit_frequencies(path(6), seed=0, **kwargs)


def test_visit_frequencies_with_no_steps_sit_at_the_start():
    assert visit_frequencies(path(6), steps=0, seed=0, start=2).tolist() == [
        0.0, 0.0, 1.0, 0.0, 0.0, 0.0
    ]


def test_simulate_refuses_disconnected_graph_before_walking():
    g = Graph(4, [(0, 1), (2, 3)], name="two-parts")
    with pytest.raises(DisconnectedError):
        simulate(g, WalkConfig(stop="cover"), trials=3, seed=0)
    # a single trial is refused too wherever every vertex carries a quota,
    # instead of walking to its budget
    for config in (
        WalkConfig(stop="cover", budget=1000),
        WalkConfig(stop="blanket-cover", budget=1000),
    ):
        with pytest.raises(DisconnectedError):
            trial_value(g, config, seed=0, trial_index=0)
    # hit mode still runs to its budget when the target is out of reach
    hit = WalkConfig(stop="hit", start=0, target=3, budget=1000)
    assert trial_value(g, hit, seed=0, trial_index=0) == (None, True)


def test_budgets_above_the_cap_are_refused_before_walking(monkeypatch):
    cap = WalkConfig().budget
    assert trial_value(path(4), WalkConfig(budget=cap), seed=0, trial_index=0) == (3.0, False)

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(walks, "_walk", no_walk)
    # a hit walk to a target in another component would walk its whole budget
    apart = Graph(4, [(0, 1), (2, 3)], name="two-parts")
    with pytest.raises(SizeCapError, match="cap"):
        trial_value(apart, WalkConfig(stop="hit", target=3, budget=10**15), seed=0, trial_index=0)
    with pytest.raises(SizeCapError, match="cap"):
        simulate(path(4), WalkConfig(budget=cap + 1), trials=1, seed=0)
    with pytest.raises(SizeCapError, match="cap"):
        visit_frequencies(path(4), steps=cap + 1, seed=0)


def test_worker_count_is_clamped_to_chunks_and_cpus(monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # simulate imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    g = path(4)
    cfg = WalkConfig(stop="cover")
    trials = 3 * walks.CHUNK + 1  # four chunks
    serial = simulate(g, cfg, trials=trials, seed=2, workers=1)
    monkeypatch.setattr(walks.os, "cpu_count", lambda: 64)
    assert simulate(g, cfg, trials=trials, seed=2, workers=100_000) == serial
    monkeypatch.setattr(walks.os, "cpu_count", lambda: 2)
    assert simulate(g, cfg, trials=trials, seed=2, workers=100_000) == serial
    monkeypatch.setattr(walks.os, "cpu_count", lambda: None)
    assert simulate(g, cfg, trials=trials, seed=2, workers=100_000) == serial
    assert pools == [4, 2]  # one usable CPU runs in-process


def test_visit_frequencies_sum_to_one_and_track_stationary():
    g = cycle(8)
    freq = visit_frequencies(g, steps=10**6, seed=0, lazy=True)
    assert freq.sum() == pytest.approx(1.0)
    pi = np.full(8, 1 / 8)
    tv = 0.5 * np.abs(freq - pi).sum()
    assert tv <= 0.01


def test_visit_frequencies_weighted_stationary():
    g = star(5)
    kernel = build_kernel(g, lazy=True)
    freq = visit_frequencies(g, steps=2 * 10**5, seed=1, lazy=True)
    tv = 0.5 * np.abs(freq - kernel.stationary).sum()
    assert tv <= 0.02


def test_config_validation():
    g = path(4)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="wander"), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="hit"), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="hit", target=9), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(budget=0), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(start=4), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(), trials=0, seed=0)


def test_hit_own_start_is_zero():
    g = path(4)
    rec = simulate(g, WalkConfig(stop="hit", start=2, target=2), trials=5, seed=0)
    assert rec.mean == 0.0 and rec.var == 0.0


def test_quantity_labels():
    assert WalkConfig(stop="hit", target=3).quantity() == "hit:3"
    assert WalkConfig(stop="cover").quantity() == "cover"
    assert WalkConfig(stop="blanket-cover").quantity() == "blanket-cover"
