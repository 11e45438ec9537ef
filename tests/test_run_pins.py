"""CSV bodies and stub pairings recorded before the walk set-up became one function.

Each value below comes from integer step counts, stub shuffles and closed
forms, not from dense linear algebra, so it does not depend on the BLAS
build and is compared with ==. The CSV bodies are the lines after the
`# spec` comment, as written by `walklab run`.
"""

from __future__ import annotations

import pytest
from click.testing import CliRunner

from walklab.cli import main
from walklab.configmodel import regular_sequence, sample_configuration

PINNED_CSV = {
    "st-connect-demo --family lollipop:8 --trials 6 --seed 3": (
        0,
        "run,connected,steps,budget\n"
        "0,true,64,832\n"
        "1,true,105,832\n"
        "2,true,61,832\n"
        "3,true,28,832\n"
        "4,true,45,832\n"
        "5,true,13,832\n",
    ),
    "st-connect-demo --family star:12 --trials 4 --seed 5": (
        0,
        "run,connected,steps,budget\n"
        "0,true,35,1056\n"
        "1,true,47,1056\n"
        "2,true,23,1056\n"
        "3,true,11,1056\n",
    ),
    "p-simple --trials 25 --seed 2": (
        1,
        "r,n,attempts,empirical,predicted,abs_gap,ok\n"
        "3,50,25,0.2,0.1353352832366127,0.06466471676338731,false\n"
        "3,100,25,0.08,0.1353352832366127,0.0553352832366127,false\n"
        "4,50,25,0.0,0.023517745856009107,0.023517745856009107,true\n"
        "4,100,25,0.0,0.023517745856009107,0.023517745856009107,true\n",
    ),
    "degseq-cover --n 16,24 --trials 8 --seed 1": (
        1,
        "n,avg_degree,trials,mean_cover,stderr,censored,predicted,ratio,resamples\n"
        "16,3.0,8,91.0,13.098527725337249,0,88.722839111673,1.0256660056319975,0\n"
        "24,3.0,8,138.875,10.966568515264928,0,152.5465838567014,0.9103776465453716,0\n",
    ),
    "scheme-speedup --family lollipop:10 --trials 12 --seed 4": (
        1,
        "metric,value\n"
        "graph,lollipop:10\n"
        "trials,12\n"
        "seed,4\n"
        "start,0\n"
        "uniform_mean,136.0\n"
        "uniform_stderr,35.693561086424296\n"
        "mindeg_mean,76.75\n"
        "mindeg_stderr,15.750480993136415\n"
        "ratio,1.771986970684039\n"
        "stderr,0.5903558050466587\n"
        "z_score,1.3076638936802274\n",
    ),
}


@pytest.mark.parametrize("args", sorted(PINNED_CSV))
def test_csv_bodies_keep_their_recorded_values(tmp_path, args):
    exit_code, body = PINNED_CSV[args]
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["run", *args.split(), "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == exit_code
    spec_line, got = out.with_suffix(".csv").read_text().split("\n", 1)
    assert spec_line.startswith("# spec {")
    assert got == body


# (r, n, seed, index) -> edges of sample_configuration(regular_sequence(n, r), seed, index)
PINNED_PAIRINGS = {
    (3, 8, 0, 0): [(4, 4), (1, 3), (5, 6), (5, 6), (2, 6), (0, 3), (2, 7), (3, 4), (0, 2), (0, 5), (1, 7), (1, 7)],
    (3, 8, 0, 3): [(1, 4), (3, 7), (3, 7), (5, 6), (0, 5), (1, 4), (0, 4), (1, 2), (3, 5), (2, 2), (6, 7), (0, 6)],
    (3, 10, 7, 1): [
        (6, 8), (5, 8), (3, 4), (0, 5), (0, 7), (1, 4), (2, 6), (3, 9),
        (1, 6), (0, 7), (2, 3), (9, 9), (1, 7), (5, 8), (2, 4),
    ],
    (4, 7, 1, 0): [
        (2, 4), (0, 5), (3, 4), (3, 4), (0, 2), (1, 2), (0, 4),
        (3, 6), (1, 6), (5, 6), (2, 3), (1, 5), (0, 5), (1, 6),
    ],
    (4, 7, 5, 2): [
        (4, 4), (2, 6), (1, 1), (3, 4), (3, 5), (2, 5), (0, 1),
        (2, 6), (1, 6), (0, 3), (3, 5), (0, 2), (4, 5), (0, 6),
    ],
}


@pytest.mark.parametrize("key", sorted(PINNED_PAIRINGS))
def test_configuration_pairings_keep_their_recorded_edges(key):
    r, n, seed, index = key
    g = sample_configuration(regular_sequence(n, r), seed, index=index)
    assert g.edges == tuple((u, v, 1.0) for u, v in PINNED_PAIRINGS[key])
    assert g.name == f"cm-{n}v-s{seed}i{index}"
