import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.errors import UnsupportedInputError
from walklab.graph import Graph, complete, cycle, lollipop, path, star
from walklab.spectral import build_kernel, mindeg_invariant_report
from walklab.walks import speedup
from walklab.weighting import apply_scheme

from helpers import edge_list, ikeda_kernel_formula, mindeg_kernel_formula, random_connected_graph


def test_uniform_scheme_is_identity():
    g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5), (2, 2, 1.0)])
    assert apply_scheme(g, "uniform") is g


def test_schemes_reject_multigraphs_and_weighted_input():
    loopy = Graph(2, [(0, 1), (1, 1)])
    weighted = Graph(2, [(0, 1, 2.0)])
    disconnected = Graph(3, [(0, 1)])
    for scheme in ("ikeda", "mindeg"):
        with pytest.raises(UnsupportedInputError):
            apply_scheme(loopy, scheme)
        with pytest.raises(UnsupportedInputError):
            apply_scheme(weighted, scheme)
        with pytest.raises(UnsupportedInputError):
            apply_scheme(disconnected, scheme)
    with pytest.raises(UnsupportedInputError):
        apply_scheme(path(3), "resistor")


def test_ikeda_weights_on_star():
    g = star(5)  # center degree 4, leaves degree 1
    w = apply_scheme(g, "ikeda")
    for _, _, weight in edge_list(w):
        assert weight == pytest.approx(1.0 / math.sqrt(4.0), rel=1e-15)


def test_mindeg_weights_use_smaller_degree():
    g = star(4)
    w = apply_scheme(g, "mindeg")
    assert all(weight == 1.0 for _, _, weight in edge_list(w))
    h = apply_scheme(path(4), "mindeg")
    assert h.w[0] == 1.0  # endpoint edge: min(1, 2)
    assert h.w[1] == 0.5  # interior edge: min(2, 2)


def test_ikeda_kernel_matches_row_formula():
    for g in (path(6), cycle(7), star(6), lollipop(9), complete(5)):
        k = build_kernel(g, scheme="ikeda")
        np.testing.assert_allclose(k.matrix, ikeda_kernel_formula(g), atol=1e-12)


def test_mindeg_kernel_matches_row_formula():
    rng = np.random.default_rng(5)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(3, 12)), extra=5)
        k = build_kernel(g, scheme="mindeg")
        np.testing.assert_allclose(k.matrix, mindeg_kernel_formula(g), atol=1e-12)


def test_complete_graph_mindeg_total_weight_is_n():
    # every edge gets 1/(n-1); volume = 2 * binom(n,2) / (n-1) = n
    for n in (3, 6, 10):
        w = apply_scheme(complete(n), "mindeg")
        assert w.volume == pytest.approx(float(n), rel=1e-12)


def test_mindeg_invariant_report_on_families():
    for g in (path(9), cycle(10), star(8), lollipop(12), complete(7)):
        report = mindeg_invariant_report(g, seed=7)
        assert report["all_passed"], report
        n = g.n
        assert n - 1e-9 <= report["checks"]["total_weight"]["observed"] <= 2 * n + 1e-9
        assert report["checks"]["max_hitting"]["observed"] <= 6 * n * n


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_property_mindeg_vertex_weights_in_band(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 16)), extra=int(rng.integers(0, 10)))
    w = apply_scheme(g, "mindeg")
    n = g.n
    assert n - 1e-9 <= w.volume <= 2 * n + 1e-9
    wd = w.weighted_degrees
    assert (wd >= 1.0 - 1e-9).all()
    assert (wd <= g.degrees + 1e-9).all()


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_property_ikeda_edge_weight_sandwich(seed):
    # 1/(d(u)+d(v)) <= 1/sqrt(d(u)d(v)) ... loose sanity on the scheme choice
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 12)), extra=4)
    w = apply_scheme(g, "ikeda")
    d = g.degrees
    for u, v, weight in edge_list(w):
        assert weight == pytest.approx(1.0 / math.sqrt(d[u] * d[v]), rel=1e-15)


def test_speedup_is_exactly_one_on_regular_graphs():
    out = speedup(cycle(8), trials=40, seed=3)
    assert out["ratio"] == 1.0
    assert out["z_score"] == 0.0


@pytest.mark.parametrize(
    "edges", [[(0, 1, 2.0), (1, 2, 1.0)], [(0, 1), (1, 2), (1, 2)]], ids=["weighted", "multi"]
)
def test_speedup_refuses_an_unschemable_graph_before_walking(monkeypatch, edges):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the scheme refused the graph")

    monkeypatch.setattr("walklab.walks._trial_values", no_walk)
    with pytest.raises(UnsupportedInputError):
        speedup(Graph(3, edges), trials=5, seed=0)


def test_speedup_favors_mindeg_on_lollipop():
    out = speedup(lollipop(24), trials=150, seed=7)
    assert out["ratio"] > 1.0
    assert out["z_score"] > 3.0
    assert out["uniform_mean"] > out["mindeg_mean"]
