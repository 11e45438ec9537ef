"""Rejection samples, p-simple counts and exact conductances recorded from
the Graph-per-attempt sampler and the concatenating subset tables; the
n = 21 and 22 conductances were recorded from the whole-table doubling
enumeration, the last one to hold 2^n entries.

Simple samples come from stub shuffles and integer tests, and conductances
from elementwise sums and one division per subset (no BLAS), so every value
below is compared with ==: a rewrite of either path must reproduce every
bit, including the number of attempts a rejection sample took.
"""

from __future__ import annotations

import numpy as np
import pytest
from click.testing import CliRunner

from walklab.cli import main
from walklab.conductance import _pair_flow, conductance_exact, jerrum_sinclair_check
from walklab.configmodel import random_band_sequence, regular_sequence, sample_simple
from walklab.graph import Graph, family
from walklab.spectral import build_kernel
from walklab.weighting import apply_scheme

from helpers import edge_list

SEQUENCES = {
    "regular:3,50": regular_sequence(50, 3),
    "regular:4,100": regular_sequence(100, 4),
    "band:20,3..6": random_band_sequence(20, 3, 6, seed=5),
}

# (sequence, seed) -> (attempts, name, edges of sample_simple as "u v u v ...")
PINNED_SIMPLE = {
    ("regular:3,50", 3): (
        10,
        "cm-50v-s3i9",
        "21 41 11 14 47 48 39 41 26 45 10 49 22 27 13 40 40 41 2 39 5 36 36 43 3 47 15 28 10 29 "
        "28 38 32 38 16 37 0 22 17 43 15 38 8 27 9 37 9 24 26 36 16 45 4 25 18 19 1 5 19 23 5 23 "
        "20 29 6 12 7 17 6 49 42 46 18 33 30 46 3 35 10 22 0 32 16 19 24 31 12 48 15 21 11 33 3 "
        "42 30 32 4 37 44 45 2 42 25 26 35 39 17 18 11 24 8 21 14 28 29 48 8 35 31 47 20 34 6 14 "
        "25 44 4 27 2 30 7 13 34 44 40 46 34 43 0 33 12 20 9 23 13 49 1 31 1 7",
    ),
    ("regular:3,50", 5): (
        13,
        "cm-50v-s5i12",
        "27 49 27 30 13 24 4 45 5 39 38 40 23 24 21 22 0 7 41 46 11 21 33 38 26 36 20 46 9 37 7 "
        "22 28 39 36 48 3 46 3 14 5 7 6 47 14 27 4 35 10 24 3 18 19 37 17 31 4 48 19 49 26 44 12 "
        "34 23 25 13 16 26 33 20 42 21 36 42 48 37 41 12 20 10 11 16 29 0 47 11 44 33 40 15 32 35 "
        "45 1 43 1 34 0 8 2 18 12 42 13 25 8 23 31 47 32 49 18 39 6 41 9 19 16 22 28 35 15 25 8 "
        "40 2 31 30 44 2 10 17 30 9 28 32 38 14 34 5 29 1 45 29 43 6 15 17 43",
    ),
    ("regular:3,50", 8): (
        1,
        "cm-50v-s8i0",
        "9 19 24 30 15 28 31 36 36 48 45 46 21 38 17 35 11 40 12 16 33 35 6 13 0 12 16 31 8 44 37 "
        "46 3 29 10 26 4 32 34 49 27 30 35 40 15 38 2 4 22 25 6 23 14 39 2 21 6 34 26 28 7 41 37 "
        "40 7 43 18 47 10 19 16 48 14 44 38 47 12 19 42 48 1 18 24 37 8 21 17 23 18 34 3 13 4 39 "
        "9 26 22 45 7 33 15 29 1 20 0 23 20 42 36 43 31 42 13 20 29 33 25 44 32 41 22 27 11 45 8 "
        "41 3 9 11 49 2 43 10 47 5 49 25 46 17 24 5 30 28 39 1 5 14 27 0 32",
    ),
    ("regular:4,100", 2): (
        97,
        "cm-100v-s2i96",
        "38 61 74 92 69 96 34 71 48 95 45 86 10 47 36 40 23 73 19 29 37 41 55 98 5 6 46 82 10 36 "
        "11 84 94 97 32 53 17 75 24 58 11 64 15 33 20 67 28 40 78 86 32 58 42 64 39 85 61 65 24 "
        "26 16 55 57 84 2 85 28 83 7 61 49 90 43 68 67 89 6 13 35 71 22 54 8 20 44 81 60 94 51 76 "
        "16 63 50 83 26 88 26 86 76 79 13 91 19 30 9 73 18 44 52 95 32 34 47 82 87 99 8 27 27 62 "
        "54 59 4 84 6 70 16 83 72 75 30 81 38 55 5 54 50 66 5 72 56 69 43 96 31 53 15 46 19 96 46 "
        "97 68 99 46 56 21 29 61 78 14 94 87 97 26 58 12 52 21 77 0 64 74 88 50 85 17 91 18 79 18 "
        "39 23 90 0 5 23 52 0 22 27 33 66 71 67 78 47 75 33 43 3 10 1 17 59 98 31 64 58 63 9 81 "
        "22 68 1 93 13 59 25 88 90 99 24 68 12 77 50 51 28 59 37 40 11 89 22 66 63 82 4 91 1 7 69 "
        "89 35 48 56 77 29 52 42 80 7 54 80 94 16 30 8 34 21 41 60 96 15 21 43 65 14 80 20 45 67 "
        "97 25 48 63 74 3 88 90 98 57 95 60 69 41 57 45 65 2 81 19 48 51 56 33 39 2 71 73 92 87 "
        "92 27 35 40 80 14 62 41 72 30 49 70 79 29 70 12 31 3 23 9 49 25 45 34 76 25 93 55 93 92 "
        "98 89 93 44 99 53 91 11 60 2 17 6 12 3 39 73 75 7 20 14 51 24 42 4 86 53 95 36 74 9 32 "
        "36 78 4 66 1 62 37 38 70 82 72 79 15 83 18 57 44 49 65 77 31 47 38 62 10 13 85 87 8 84 0 "
        "35 28 76 37 42",
    ),
    ("regular:4,100", 6): (
        129,
        "cm-100v-s6i128",
        "9 29 20 34 80 97 52 86 53 63 5 44 41 73 15 18 50 68 49 83 36 74 38 94 22 78 91 93 19 39 "
        "55 90 4 5 52 76 51 92 50 51 32 77 66 68 13 98 83 89 60 80 38 86 1 43 49 79 20 47 17 82 6 "
        "9 27 28 42 72 43 90 34 40 0 81 58 73 16 18 85 92 50 57 57 79 19 83 12 17 8 52 77 99 14 "
        "25 65 85 83 93 46 82 1 3 63 84 62 64 3 55 18 48 53 84 15 30 92 98 31 58 56 88 37 81 21 "
        "54 21 91 45 66 37 65 11 85 5 16 23 60 0 62 73 93 11 82 2 4 33 95 54 60 7 8 23 37 14 75 "
        "10 25 8 14 24 38 3 16 24 47 7 67 6 8 14 23 61 64 4 30 16 36 12 46 66 80 17 32 49 71 38 "
        "99 21 86 47 58 27 96 76 98 51 53 67 90 20 90 39 68 59 84 67 74 6 91 9 62 31 72 22 75 33 "
        "81 15 57 31 80 35 42 58 84 13 59 47 60 4 64 12 22 71 87 7 24 70 96 17 39 19 45 63 72 20 "
        "61 7 78 40 69 11 26 87 88 46 97 57 65 25 77 41 61 78 95 36 88 59 89 5 27 44 54 44 99 42 "
        "78 27 56 45 97 24 70 43 69 35 97 2 9 40 41 33 70 82 94 34 46 25 43 39 44 0 63 12 28 2 48 "
        "10 28 19 61 0 79 59 93 32 85 18 55 2 40 91 96 15 76 52 75 56 75 26 81 22 86 94 99 13 95 "
        "6 23 13 36 35 87 28 77 29 53 37 94 71 88 26 29 65 71 10 51 49 96 32 76 1 74 35 69 21 31 "
        "68 89 55 64 30 48 45 62 10 92 41 66 79 98 67 89 11 87 72 73 3 26 50 54 1 70 42 74 29 33 "
        "30 56 48 69 34 95",
    ),
    ("regular:4,100", 11): (
        222,
        "cm-100v-s11i221",
        "77 82 59 90 0 13 37 62 47 57 40 99 16 68 30 64 22 70 11 43 49 57 29 94 5 16 12 17 11 53 "
        "1 27 14 47 27 84 16 37 37 83 24 80 43 75 64 86 5 58 4 78 36 64 62 92 72 82 14 35 50 92 2 "
        "76 39 96 12 21 52 73 67 74 49 84 28 75 23 66 7 55 61 72 44 46 69 95 29 50 36 93 35 71 23 "
        "62 21 54 23 36 3 73 1 20 22 45 13 35 10 56 29 53 9 31 3 80 25 83 29 83 9 55 6 97 20 31 "
        "76 96 22 47 8 17 70 91 23 34 33 60 45 99 15 82 50 64 13 25 36 53 4 46 25 75 26 32 76 88 "
        "11 66 42 93 85 90 41 90 18 27 73 79 7 74 54 72 15 86 59 75 21 48 84 99 24 31 7 77 3 87 "
        "86 91 66 87 48 98 2 40 39 81 11 33 30 63 2 65 37 95 0 34 21 49 45 67 35 96 74 81 93 99 "
        "56 76 6 38 34 61 9 68 1 59 51 52 38 71 27 88 0 71 85 94 60 74 54 81 38 94 5 41 22 26 51 "
        "89 10 58 19 25 17 32 42 52 41 65 50 78 20 69 14 85 15 52 65 96 39 46 32 73 92 93 8 67 32 "
        "89 18 87 8 48 38 48 55 68 19 28 6 34 5 61 12 43 18 56 24 30 58 88 51 53 55 57 57 63 46 "
        "70 44 95 28 54 42 98 6 33 51 82 45 84 42 60 20 39 44 77 43 69 83 91 26 60 7 98 4 44 72 "
        "94 30 81 62 71 69 89 15 24 18 91 40 79 12 98 40 61 78 85 59 67 0 41 3 31 49 70 33 97 56 "
        "63 19 80 13 68 17 89 78 87 26 86 65 90 8 19 10 97 28 79 77 95 79 97 4 66 58 63 16 88 10 "
        "92 47 80 9 14 1 2",
    ),
    ("band:20,3..6", 2): (
        15,
        "cm-20v-s2i14",
        "6 13 10 11 14 18 12 19 1 5 1 2 4 12 14 16 0 3 6 10 5 13 1 10 5 12 8 9 3 10 1 18 4 13 1 4 "
        "15 19 2 15 0 17 7 18 11 14 13 17 7 8 10 15 3 16 4 15 9 15 16 18 7 15 9 13 7 17 3 4 3 11 "
        "2 17 6 11 8 17 0 11 4 17 10 19",
    ),
    ("band:20,3..6", 3): (
        540,
        "cm-20v-s3i539",
        "6 14 18 19 2 3 0 3 15 18 0 4 1 13 4 17 4 16 9 10 1 8 10 19 14 18 4 10 8 9 3 17 5 10 11 "
        "14 15 17 1 6 5 18 12 17 4 13 3 7 11 15 2 17 5 7 1 17 10 11 1 15 4 8 2 11 12 16 9 13 12 "
        "15 6 7 11 16 3 13 15 19 7 13 0 10",
    ),
    ("band:20,3..6", 8): (
        10,
        "cm-20v-s8i9",
        "3 11 3 5 11 14 9 10 1 4 4 18 10 11 0 14 8 15 6 17 2 17 4 7 2 13 3 12 11 12 17 19 13 17 1 "
        "15 4 8 2 10 12 14 4 15 10 18 7 16 4 5 13 15 16 17 5 6 0 19 0 3 3 16 10 13 9 17 15 18 1 6 "
        "1 11 7 19 1 10 9 13 8 18 7 15",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_SIMPLE))
def test_simple_samples_keep_their_recorded_edges_and_attempts(key):
    name, seed = key
    attempts, graph_name, flat = PINNED_SIMPLE[key]
    ends = [int(t) for t in flat.split()]
    sam = sample_simple(SEQUENCES[name], seed)
    assert sam.attempts == attempts
    assert sam.graph.name == graph_name
    assert edge_list(sam.graph) == [(u, v, 1.0) for u, v in zip(ends[::2], ends[1::2])]


def test_p_simple_counts_keep_their_recorded_values(tmp_path):
    # simple pairings per cell out of 1000: 148, 120, 29 and 23
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main,
        ["run", "p-simple", "--trials", "1000", "--seed", "1", "--out", str(out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert out.with_suffix(".csv").read_text().split("\n", 1)[1] == (
        "r,n,attempts,empirical,predicted,abs_gap,ok\n"
        "3,50,1000,0.148,0.1353352832366127,0.01266471676338729,true\n"
        "3,100,1000,0.12,0.1353352832366127,0.015335283236612707,true\n"
        "4,50,1000,0.029,0.023517745856009107,0.0054822541439908945,true\n"
        "4,100,1000,0.023,0.023517745856009107,0.0005177458560091074,true\n"
    )


def _band_sample():
    return sample_simple(SEQUENCES["band:20,3..6"], 2).graph


WEIGHTED_LOOPS_7 = Graph(
    7,
    [
        (0, 1, 1.5), (1, 2, 0.25), (2, 3, 2.0), (3, 0, 1.0), (2, 2, 0.75),
        (3, 4, 3.0), (4, 5, 0.5), (5, 6, 1.25), (6, 4, 1.0), (4, 5, 2.0),
    ],
    name="w7",
)

def _mindeg_with_loop(spec, loop):
    h = apply_scheme(family(spec), "mindeg")
    return Graph(h.n, edge_list(h) + [loop], name=f"{h.name}+loop")


KERNELS = {
    "lollipop:12": lambda: build_kernel(family("lollipop:12")),
    "cycle:9 lazy": lambda: build_kernel(family("cycle:9"), lazy=True),
    "grid2d:4,5 mindeg": lambda: build_kernel(family("grid2d:4,5"), scheme="mindeg"),
    "band-sample": lambda: build_kernel(_band_sample()),
    "band-sample lazy": lambda: build_kernel(_band_sample(), lazy=True),
    "band-sample mindeg lazy": lambda: build_kernel(_band_sample(), scheme="mindeg", lazy=True),
    "weighted-loops:7": lambda: build_kernel(WEIGHTED_LOOPS_7),
    "path:22": lambda: build_kernel(family("path:22")),
    "binary-tree:21 lazy": lambda: build_kernel(family("binary-tree:21"), lazy=True),
    "lollipop:22 mindeg+loop": lambda: build_kernel(_mindeg_with_loop("lollipop:22", (3, 3, 0.75))),
    "grid2d:3,7 mindeg+loop lazy": lambda: build_kernel(
        _mindeg_with_loop("grid2d:3,7", (10, 10, 0.5)), lazy=True
    ),
}

# kernel -> (phi, subset, pi_mass, cut_flow) of conductance_exact
PINNED_CONDUCTANCE = {
    "lollipop:12": (0.14285714285714285, (8, 9, 10, 11), 0.109375, 0.015625),
    "cycle:9 lazy": (0.1249999999999998, (0, 1, 2, 3), 0.4444444444444444, 0.05555555555555547),
    "grid2d:4,5 mindeg": (0.12781954887218042, (0, 1, 2, 5, 6, 7, 10, 11, 15, 16), 0.49999999999999994, 0.0639097744360902),
    "band-sample": (0.24324324324324312, (0, 1, 3, 6, 10, 11, 14, 16, 18), 0.4512195121951219, 0.10975609756097554),
    "band-sample lazy": (0.12162162162162125, (0, 1, 3, 6, 10, 11, 14, 16, 18), 0.4512195121951219, 0.05487804878048763),
    "band-sample mindeg lazy": (0.1115107913669065, (0, 3, 6, 10, 11, 14, 16, 18), 0.39376770538243616, 0.043909348441926344),
    "weighted-loops:7": (0.23999999999999994, (4, 5, 6), 0.4716981132075472, 0.1132075471698113),
    "path:22": (0.04761904761904757, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.49999999999999994, 0.02380952380952378),
    "binary-tree:21 lazy": (0.033333333333333354, (0, 2, 5, 6, 11, 12, 13, 14), 0.3750000000000001, 0.012500000000000011),
    "lollipop:22 mindeg+loop": (0.06666666666666654, (15, 16, 17, 18, 19, 20, 21), 0.3061224489795919, 0.02040816326530609),
    "grid2d:3,7 mindeg+loop lazy": (0.04545454545454524, (4, 5, 6, 11, 12, 13, 18, 19, 20), 0.41438356164383555, 0.018835616438356073),
}


@pytest.mark.parametrize("case", sorted(PINNED_CONDUCTANCE))
def test_exact_conductance_keeps_its_recorded_values(case):
    res = conductance_exact(KERNELS[case]())
    assert (res.phi, res.subset, res.pi_mass, res.cut_flow) == PINNED_CONDUCTANCE[case]


@pytest.mark.parametrize(
    "graph, scheme",
    [
        (_band_sample, "uniform"),
        (_band_sample, "mindeg"),
        (lambda: _mindeg_with_loop("grid2d:3,7", (10, 10, 0.5)), "uniform"),
    ],
    ids=["band-sample", "band-sample mindeg", "grid2d:3,7 mindeg+loop"],
)
def test_lazy_conductance_is_half_the_plain_one(graph, scheme):
    # (P + I) / 2 keeps pi, so every off-diagonal lazy flow is exactly half
    # the plain one; jerrum_sinclair_check enumerates the plain kernel once
    g = graph()
    plain = build_kernel(g, scheme=scheme)
    lazy = build_kernel(g, scheme=scheme, lazy=True)
    off = ~np.eye(g.n, dtype=bool)
    assert (_pair_flow(lazy)[off] == 0.5 * _pair_flow(plain)[off]).all()
    rep = jerrum_sinclair_check(apply_scheme(g, scheme))
    assert rep["phi"] == conductance_exact(plain).phi
    assert rep["phi_lazy"] == rep["phi"] / 2
    assert rep["phi_lazy"] == pytest.approx(conductance_exact(lazy).phi, rel=1e-12, abs=0)
