"""End-to-end checks of the command-line surface.

Everything runs through click's CliRunner inside an isolated directory, so
artifact writes never touch the repository. The heavyweight default
invocations are covered by the acceptance suite; here the experiments run
at toy sizes to pin behavior, exit codes, and output formats.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import re
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import rng as walklab_rng
from walklab.cli import EXPERIMENTS, main
from walklab.configmodel import regular_sequence
from walklab.graph import Graph
from walklab.spectral import build_kernel, exact_cover_times

from helpers import all_sets_cover_times


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_closed_forms_passes_and_writes_artifacts(runner, tmp_path):
    base = tmp_path / "forms"
    result = _run(
        runner, ["run", "closed-forms", "--n", "2..6", "--seed", "7", "--out", str(base)]
    )
    assert result.exit_code == 0
    assert "closed-forms: 3/3 checks passed" in result.output
    csv_text = (base.with_suffix(".csv")).read_text()
    first, header = csv_text.splitlines()[:2]
    assert first.startswith("# spec {")
    spec = json.loads(first[len("# spec ") :])
    assert spec["experiment"] == "closed-forms"
    assert spec["seed"] == 7
    assert spec["n"] == [2, 3, 4, 5, 6]
    assert "out" not in spec and "workers" not in spec
    assert header == "family,n,quantity,observed,expected,rel_err"
    summary = json.loads(base.with_suffix(".json").read_text())
    assert set(summary) == {"spec", "checks", "runtime_seconds"}
    assert all(ch["passed"] for ch in summary["checks"])
    for ch in summary["checks"]:
        assert set(ch) == {"name", "passed", "observed", "expected", "tolerance"}


def test_rerun_is_byte_identical_even_across_destinations(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["run", "st-connect-demo", "--family", "path:12", "--trials", "40", "--seed", "3"]
    r1 = _run(runner, args + ["--out", str(a)])
    r2 = _run(runner, args + ["--out", str(b)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
    # with the kernel and two CPUs, the second run walks each of its runs'
    # 300 trials on two threads
    c, d = tmp_path / "c", tmp_path / "d"
    args = ["run", "product-theorem", "--trials", "300", "--seed", "3"]
    r3 = _run(runner, args + ["--out", str(c)])
    r4 = _run(runner, args + ["--out", str(d), "--workers", "2"])
    assert r3.exit_code == 0 and r4.exit_code == 0
    assert c.with_suffix(".csv").read_bytes() == d.with_suffix(".csv").read_bytes()


def test_scheme_speedup_csv_is_the_same_for_any_worker_count(runner, tmp_path, monkeypatch):
    # every experiment that takes --workers, on a box of two CPUs: the
    # default and --workers 2 walk each run on two threads wherever the
    # kernel is built, --workers 1 on one, and no run starts a pool
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr("walklab.walks.threading.Thread", Recorded)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    runs = {
        "scheme-speedup": ["--family", "lollipop:12", "--trials", "300"],
        "product-theorem": ["--trials", "300"],
        "degseq-cover": ["--n", "30,60", "--trials", "60"],
    }
    assert sorted(runs) == sorted(name for name, entry in EXPERIMENTS.items() if "workers" in entry["flags"])
    for name, extra in runs.items():
        bodies, codes, threads = [], [], []
        for workers in ([], ["--workers", "1"], ["--workers", "2"]):
            started.clear()
            base = tmp_path / f"{name}{len(bodies)}"
            result = _run(runner, ["run", name, "--seed", "3", "--out", str(base), *extra, *workers])
            bodies.append(base.with_suffix(".csv").read_bytes())
            codes.append(result.exit_code)
            threads.append(len(started))
        assert codes[0] in (0, 1) and codes == [codes[0]] * 3, name
        assert bodies == [bodies[0]] * 3, name
        assert not any(thread.is_alive() for thread in started)
        assert threads[0] == threads[2] > 0 and threads[1] == 0, (name, threads)


def test_format_flag_selects_artifacts(runner, tmp_path):
    base = tmp_path / "sel"
    _run(
        runner,
        ["run", "closed-forms", "--n", "2..3", "--seed", "1", "--out", str(base), "--format", "csv"],
    )
    assert base.with_suffix(".csv").exists()
    assert not base.with_suffix(".json").exists()
    _run(
        runner,
        ["run", "closed-forms", "--n", "2..3", "--seed", "1", "--out", str(base), "--format", "json"],
    )
    assert base.with_suffix(".json").exists()


def test_unknown_experiment_exits_2_and_lists_ids(runner):
    result = _run(runner, ["run", "warp-drive", "--seed", "1"])
    assert result.exit_code == 2
    assert "unknown experiment" in result.output
    assert "closed-forms" in result.output


def test_missing_seed_is_a_usage_error(runner):
    result = runner.invoke(main, ["run", "closed-forms"])
    assert result.exit_code == 2
    assert "--seed" in result.output


def test_bad_size_spec_exits_2(runner):
    result = _run(runner, ["run", "closed-forms", "--n", "x..y", "--seed", "1"])
    assert result.exit_code == 2
    assert "--n" in result.output


def test_size_cap_exits_2(runner, tmp_path):
    result = _run(
        runner,
        ["run", "grid-resistance", "--n", "45", "--seed", "1", "--out", str(tmp_path / "g")],
    )
    assert result.exit_code == 2
    assert "capped" in result.output


@pytest.mark.parametrize("sizes, message", [("2..14", "capped at n=13"), ("5,1", ">= 2")])
def test_closed_forms_rejects_sizes_before_any_work(runner, tmp_path, monkeypatch, sizes, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a kernel was built before the sizes were checked")

    monkeypatch.setattr("walklab.cli.build_kernel", no_work)
    result = _run(
        runner,
        ["run", "closed-forms", "--n", sizes, "--seed", "1", "--out", str(tmp_path / "c")],
    )
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "experiment, sizes, message, heavy",
    [
        ("closed-forms", "2..100000000", "capped at n=13", "build_kernel"),
        ("grid-resistance", "2..41", "capped at n=40", "grid_resistance_monitor"),
        ("degseq-cover", "4..100000000", "capped at n=1000000", "regular_sequence"),
    ],
)
def test_a_long_ladder_is_refused_before_it_is_expanded(
    runner, tmp_path, monkeypatch, experiment, sizes, message, heavy
):
    # the whole ladder is checked at its ends before the first size is solved
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the sizes were checked")

    monkeypatch.setattr(f"walklab.cli.{heavy}", no_work)
    started = time.perf_counter()
    result = _run(
        runner, ["run", experiment, "--n", sizes, "--seed", "1", "--out", str(tmp_path / "x")]
    )
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "experiment, heavy",
    [
        ("closed-forms", "build_kernel"),
        ("grid-resistance", "grid_resistance_monitor"),
        ("degseq-cover", "regular_sequence"),
    ],
)
def test_a_size_list_with_no_sizes_is_refused(runner, tmp_path, monkeypatch, experiment, heavy):
    # an empty list would otherwise fall back to the default ladder
    def no_work(*args, **kwargs):
        raise AssertionError("work started on an empty size list")

    monkeypatch.setattr(f"walklab.cli.{heavy}", no_work)
    result = _run(
        runner, ["run", experiment, "--n", ",", "--seed", "1", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == 2
    assert "--n: expected an int" in result.output


def test_degseq_cover_refuses_a_huge_regular_ladder_at_once(runner, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a degree sequence was built before the sizes were checked")

    monkeypatch.setattr("walklab.cli.regular_sequence", no_work)
    started = time.perf_counter()
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", "regular:4", "--n", "2..100000000",
            "--seed", "0", "--out", str(tmp_path / "d"),
        ],
    )
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2
    assert "needs sizes >= 5" in result.output


def test_degseq_cover_refuses_an_odd_degree_sum_before_any_walk(runner, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before every rung was checked")

    monkeypatch.setattr("walklab.cli._connected_simple_sample", no_work)
    result = _run(
        runner, ["run", "degseq-cover", "--n", "10,11", "--seed", "0", "--out", str(tmp_path / "d")]
    )
    assert result.exit_code == 2
    assert "3-regular on 11 vertices has odd degree sum" in result.output


def test_degseq_cover_caps_a_degree_file(runner, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the size was checked")

    # reading stops at the sixth degree, one past the cap, so the junk token
    # after it is never read, and the cap refuses the file before the odd
    # sum of the six degrees read could
    monkeypatch.setattr("walklab.configmodel._VERTEX_CAP", 5)
    monkeypatch.setattr("walklab.cli._connected_simple_sample", no_work)
    degfile = tmp_path / "six.txt"
    degfile.write_text("3 3 3 3 3\n4 x\n")
    result = _run(
        runner,
        ["run", "degseq-cover", "--degseq", str(degfile), "--seed", "0", "--out", str(tmp_path / "d")],
    )
    assert result.exit_code == 2
    assert "more than 5 degrees; degree sequences are capped at n=5" in result.output


def test_degseq_cover_builds_each_sequence_when_its_rung_runs(runner, tmp_path, monkeypatch):
    built = []

    def counted(n, r):
        built.append(n)
        return regular_sequence(n, r)

    def stop(*args, **kwargs):
        raise AssertionError("stop at the first rung")

    monkeypatch.setattr("walklab.cli.regular_sequence", counted)
    monkeypatch.setattr("walklab.cli._connected_simple_sample", stop)
    with pytest.raises(AssertionError, match="first rung"):
        _run(
            runner,
            ["run", "degseq-cover", "--n", "10,12,14", "--seed", "0", "--out", str(tmp_path / "d")],
        )
    assert built == [10]


def test_summary_with_an_undefined_check_value_is_strict_json(runner, tmp_path):
    # one trial has no standard error, so the lower-bound margin is NaN; the
    # summary writes it as its CSV cell, and parses without NaN or Infinity
    def refuse(name):
        raise ValueError(f"{name} in a strict JSON summary")

    base = tmp_path / "pt"
    result = _run(
        runner, ["run", "product-theorem", "--trials", "1", "--seed", "0", "--out", str(base)]
    )
    assert result.exit_code == 1  # NaN >= 0 is false
    summary = json.loads(base.with_suffix(".json").read_text(), parse_constant=refuse)
    observed = {ch["name"]: ch["observed"] for ch in summary["checks"]}
    assert observed["lower-below-mc-cover"] == "nan"
    assert "observed=nan" in result.output


def test_degree_pole_exits_2(runner, tmp_path):
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", "regular:2", "--n", "50",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "d"),
        ],
    )
    assert result.exit_code == 2
    assert "effective minimum degree" in result.output


def test_unrealizable_degrees_exit_3(runner, tmp_path):
    # every degree is below n, yet the two 3s need the 1s to have degree 2
    degfile = tmp_path / "deg.txt"
    degfile.write_text("3\n3\n1\n1\n")
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", str(degfile), "--trials", "5",
            "--seed", "1", "--out", str(tmp_path / "d"),
        ],
    )
    assert result.exit_code == 3
    assert "numeric failure" in result.output


@pytest.mark.parametrize(
    "degrees, message",
    [
        (["regular:15", "--n", "16"], "capped at"),
        (["file"], "has a degree of 2 or more"),
        (["regular:60", "--n", "62"], "capped at"),
    ],
    ids=["regular-15", "degrees-1e12", "regular-60"],
)
def test_hopeless_rejection_budget_exits_2(runner, tmp_path, monkeypatch, degrees, message):
    # p is about 5e-25 for 15-regular on 16 vertices and underflows to 0 for
    # 60-regular on 62, so the default budget would run for hours or divide
    # by zero; no simple graph has a file's two degrees 10^12 on 2 vertices
    def no_pairing(*args, **kwargs):
        raise AssertionError("a pairing was drawn before the budget was checked")

    monkeypatch.setattr("walklab.configmodel._pairing", no_pairing)
    monkeypatch.setattr("walklab.configmodel._simple_flags", no_pairing)  # the kernel draws without _pairing
    if degrees == ["file"]:
        degfile = tmp_path / "deg.txt"
        degfile.write_text("1000000000000\n1000000000000\n")
        degrees = [str(degfile)]
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", *degrees, "--trials", "4",
            "--seed", "1", "--out", str(tmp_path / "d"),
        ],
    )
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "degrees", ["5\n5\n5\n5\n", f"{10**400}\n{10**400}\n"], ids=["degree-n", "degree-401-digits"]
)
def test_degree_of_n_or_more_exits_2_in_one_line(runner, tmp_path, monkeypatch, degrees):
    # no simple graph has such a degree; a 401-digit one also overflowed
    # the float in the predicted simple probability
    def no_pairing(*args, **kwargs):
        raise AssertionError("a pairing was drawn for a degree sequence no simple graph has")

    monkeypatch.setattr("walklab.configmodel._pairing", no_pairing)
    monkeypatch.setattr("walklab.configmodel._simple_flags", no_pairing)  # the kernel draws without _pairing
    degfile = tmp_path / "deg.txt"
    degfile.write_text(degrees)
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", str(degfile), "--trials", "4",
            "--seed", "1", "--out", str(tmp_path / "d"),
        ],
    )
    assert result.exit_code == 2
    assert result.output.count("\n") == 1
    assert "or more" in result.output
    assert "Traceback" not in result.output


def test_failed_check_exits_1_on_regular_graph_speedup(runner, tmp_path):
    result = _run(
        runner,
        [
            "run", "scheme-speedup", "--family", "cycle:12", "--trials", "30",
            "--seed", "8", "--out", str(tmp_path / "s"),
        ],
    )
    assert result.exit_code == 1
    assert "FAIL three-sigma-speedup" in result.output
    body = (tmp_path / "s.csv").read_text()
    assert "ratio,1.0" in body  # identical kernels, identical trajectories


def test_speedup_passes_on_lollipop(runner, tmp_path):
    result = _run(
        runner,
        [
            "run", "scheme-speedup", "--family", "lollipop:30", "--trials", "60",
            "--seed", "8", "--out", str(tmp_path / "s"),
        ],
    )
    assert result.exit_code == 0


def test_graph_file_input_and_one_sided_error(runner, tmp_path):
    # two islands; an isolated target; an isolated start
    for text in ("4 2\n0 1 1.0\n2 3 1.0\n", "3 1\n0 1 1.0\n", "3 1\n1 2 1.0\n"):
        gfile = tmp_path / "separated.txt"
        gfile.write_text(text)
        result = _run(
            runner,
            [
                "run", "st-connect-demo", "--graph-file", str(gfile), "--trials", "50",
                "--seed", "2", "--out", str(tmp_path / "st"),
            ],
        )
        assert result.exit_code == 0, text
        assert "no-false-positives" in result.output


def test_walk_from_an_isolated_vertex_exits_2_without_numeric_warnings(runner, tmp_path):
    # path:1 has no edge, so its volume is 0; the start is refused before
    # the stationary distribution divides by it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _run(
            runner,
            ["run", "scheme-speedup", "--family", "path:1", "--seed", "1", "--out", str(tmp_path / "s")],
        )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_edgeless_product_factor_exits_2_without_numeric_warnings(runner, tmp_path):
    # complete:1 has no edge; its kernel is refused before c(v) = 0 divides
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _run(
            runner,
            [
                "run", "product-theorem", "--product", "complete:1,cycle:4",
                "--seed", "1", "--out", str(tmp_path / "pt"),
            ],
        )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "experiment, flag, takes",
    [
        ("commute-identity", ["--family", "path:6"], "--trials"),
        ("closed-forms", ["--workers", "2"], "--n"),
        ("st-connect-demo", ["--workers", "2"], "--graph-file"),
        ("scheme-speedup", ["--n", "5"], "--workers"),
    ],
    ids=["commute-identity-family", "closed-forms-workers", "st-connect-demo-workers",
         "scheme-speedup-n"],
)
def test_flag_the_experiment_never_reads_is_rejected(runner, tmp_path, experiment, flag, takes):
    result = _run(runner, ["run", experiment, *flag, "--seed", "1", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert f"{flag[0]} does not apply" in result.output
    assert takes in result.output  # the message names what the experiment takes
    # nothing was written
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_spec_holds_exactly_the_flags_the_experiment_takes(runner, tmp_path, experiment):
    # a key the experiment never reads would make the CSV look like a
    # function of a value it ignores; small sizes change values, not keys
    flags = EXPERIMENTS[experiment]["flags"]
    args = ["--trials", "2"] if "trials" in flags else []
    if "n" in flags:
        args += ["--n", "10,12" if experiment == "degseq-cover" else "2..3"]
    base = tmp_path / "out"
    result = _run(runner, ["run", experiment, *args, "--seed", "0", "--out", str(base)])
    assert result.exit_code in (0, 1)
    expected = {"experiment", "seed"} | (flags.keys() - {"workers"})
    if "family" in flags:
        expected.add("graph")
    first = base.with_suffix(".csv").read_text().splitlines()[0]
    assert set(json.loads(first[len("# spec ") :])) == expected
    summary = json.loads(base.with_suffix(".json").read_text())
    assert set(summary["spec"]) == expected
    # every declared check is judged, in declared order, and a `*` name once
    # per rung; no-false-positives applies only to a separated pair
    rungs = {"*-closed-forms": ["complete", "path", "cycle"], "cover-ratio-n*": summary["spec"].get("n")}
    names = [
        name.replace("*", str(rung))
        for name in EXPERIMENTS[experiment]["checks"]
        if name != "no-false-positives"
        for rung in rungs.get(name, [""])
    ]
    assert [ch["name"] for ch in summary["checks"]] == names


def test_product_factor_of_one_vertex_is_refused_before_any_walk(runner, tmp_path, monkeypatch):
    # the second factor's walks took seconds before the first factor was refused
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the factor was refused")

    monkeypatch.setattr("walklab.cli.simulate", no_walk)
    for product in ("path:1,cycle:200", "cycle:200,path:1"):
        result = _run(
            runner,
            ["run", "product-theorem", "--product", product, "--seed", "0", "--out", str(tmp_path / "pt")],
        )
        assert result.exit_code == 2
        assert "factor path:1 needs at least two vertices" in result.output
        assert not list(tmp_path.iterdir())


def test_degseq_cover_has_no_lazy_flag(runner, tmp_path):
    # a lazy walk's cover time is twice the simple walk's, which
    # predicted_cover gives, so the flag failed every cover-ratio check
    result = _run(runner, ["run", "degseq-cover", "--lazy", "--seed", "0", "--out", str(tmp_path / "d")])
    assert result.exit_code == 2
    assert "--lazy" in result.output
    assert not list(tmp_path.iterdir())


def _degseq_cover_bodies(runner, tmp_path, degrees):
    degfile = tmp_path / "deg.txt"
    degfile.write_text(" ".join(map(str, degrees)) + "\n")
    bodies, codes = {}, {}
    for scheme in ("uniform", "mindeg", "ikeda"):
        base = tmp_path / scheme
        result = _run(
            runner,
            [
                "run", "degseq-cover", "--degseq", str(degfile), "--scheme", scheme,
                "--trials", "20", "--seed", "0", "--out", str(base),
            ],
        )
        codes[scheme] = result.exit_code
        first, *rest = base.with_suffix(".csv").read_text().splitlines()
        assert json.loads(first[len("# spec ") :])["scheme"] == scheme
        bodies[scheme] = rest
    return bodies, codes


def test_degseq_cover_walks_each_scheme_on_a_degree_file(runner, tmp_path):
    bodies, codes = _degseq_cover_bodies(runner, tmp_path, [3] * 20 + [5] * 20)
    # at 40 vertices the mean cover is 0.57-0.62 of the asymptotic
    # prediction under every scheme, outside [0.8, 1.2]; exit 1 is that
    # verdict, not an error
    assert set(codes.values()) <= {0, 1}
    means = {}
    for scheme, (header, row) in bodies.items():
        means[scheme] = float(row.split(",")[header.split(",").index("mean_cover")])
    assert means == {"uniform": 243.25, "mindeg": 225.6, "ikeda": 232.05}


def test_degseq_cover_schemes_agree_on_a_regular_degree_file(runner, tmp_path):
    # every scheme weights a regular graph uniformly, so the walks coincide
    bodies, codes = _degseq_cover_bodies(runner, tmp_path, [3] * 40)
    assert codes["mindeg"] == codes["ikeda"] == codes["uniform"]
    assert bodies["mindeg"] == bodies["ikeda"] == bodies["uniform"]


def test_degseq_cover_refuses_sizes_beside_a_degree_file(runner, tmp_path, monkeypatch):
    # the file fixes n, so --n could not change the result
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before --n was refused")

    monkeypatch.setattr("walklab.cli._connected_simple_sample", no_work)
    degfile = tmp_path / "ten.txt"
    degfile.write_text("3 " * 10 + "\n")
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", str(degfile), "--n", "500,1000",
            "--trials", "2", "--seed", "0", "--out", str(tmp_path / "d"),
        ],
    )
    assert result.exit_code == 2
    assert "--n does not apply" in result.output and "--degseq" in result.output
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("missing", ["no-such-dir/x", "a-file/x"])
def test_out_into_a_missing_directory_exits_2_before_any_work(runner, tmp_path, monkeypatch, missing):
    def no_work(*args, **kwargs):
        raise AssertionError("a kernel was built before the destination was checked")

    monkeypatch.setattr("walklab.cli.build_kernel", no_work)
    (tmp_path / "a-file").write_text("")
    base = tmp_path / missing
    result = _run(runner, ["run", "closed-forms", "--seed", "1", "--out", str(base)])
    assert result.exit_code == 2
    assert f"input error: --out needs an existing directory; {base.parent} is not one" in result.output


def test_out_into_an_unwritable_directory_exits_2(runner, tmp_path, monkeypatch):
    # a permission bit cannot refuse root, so the access check is stood in for
    monkeypatch.setattr("walklab.cli.os.access", lambda path, mode: False)
    result = _run(runner, ["run", "closed-forms", "--seed", "1", "--out", str(tmp_path / "c")])
    assert result.exit_code == 2
    assert f"input error: --out directory {tmp_path} is not writable" in result.output


def test_artifact_that_cannot_be_written_exits_2(runner, tmp_path):
    # the directory exists, but a directory stands where the CSV would go
    base = tmp_path / "c"
    (tmp_path / "c.csv").mkdir()
    result = _run(runner, ["run", "closed-forms", "--n", "2..4", "--seed", "1", "--out", str(base)])
    assert result.exit_code == 2
    assert f"input error: cannot write {base}.csv: Is a directory" in result.output
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_stream_key_range_exits_2(runner, tmp_path, seed):
    result = _run(
        runner,
        ["run", "st-connect-demo", "--trials", "5", "--seed", seed, "--out", str(tmp_path / "st")],
    )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert not (tmp_path / "st.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_refuses_a_seed_outside_the_key_range(runner, tmp_path, experiment, seed):
    # refused before the runner starts, so an experiment that draws no
    # stream cannot write the seed into its spec line
    base = tmp_path / "out"
    result = _run(runner, ["run", experiment, "--seed", seed, "--out", str(base)])
    assert result.exit_code == 2
    assert "seed must lie in [0, 2^64)" in result.output
    assert not base.with_suffix(".csv").exists()
    assert not base.with_suffix(".json").exists()


def test_largest_seed_draws_its_own_streams(runner, tmp_path):
    # 2^64 - 1 is a valid key word; it must not fold onto seed 0's streams
    bodies = {}
    for seed in ("0", str(2**64 - 1)):
        base = tmp_path / f"st{seed}"
        result = _run(
            runner,
            ["run", "st-connect-demo", "--trials", "5", "--seed", seed, "--out", str(base)],
        )
        assert result.exit_code == 0
        bodies[seed] = base.with_suffix(".csv").read_text().splitlines()[1:]
    assert bodies["0"] != bodies[str(2**64 - 1)]


TOP_SEED = 2**64 - 1

# experiment, toy arguments, the first offset past --seed that overflows
SUB_SEED_OVERFLOWS = [
    ("p-simple", ["--trials", "2"], 1000),
    ("conductance-survey", ["--trials", "1"], 1000),
    ("product-theorem", ["--trials", "2"], 1),
    ("degseq-cover", ["--n", "10,12", "--trials", "2"], 101),
]


@pytest.mark.parametrize(
    "experiment, args, offset", SUB_SEED_OVERFLOWS, ids=[case[0] for case in SUB_SEED_OVERFLOWS]
)
def test_sub_seed_overflow_names_the_given_seed_and_offset(runner, tmp_path, experiment, args, offset):
    # the runner adds offsets to --seed; the refusal must name what the user
    # gave, not the sum, which no one typed
    base = tmp_path / "out"
    result = _run(runner, ["run", experiment, *args, "--seed", str(TOP_SEED), "--out", str(base)])
    assert result.exit_code == 2
    assert f"--seed {TOP_SEED} plus sub-seed offset {offset} passes 2^64 - 1" in result.output
    assert str(TOP_SEED + offset) not in result.output
    assert not base.with_suffix(".csv").exists()


def test_seed_whose_offsets_all_fit_is_accepted(runner, tmp_path):
    # product-theorem on cycle:4,cycle:16 adds offsets 1 and 3 at most
    result = _run(
        runner,
        ["run", "product-theorem", "--trials", "2", "--seed", str(TOP_SEED - 3),
         "--out", str(tmp_path / "pt")],
    )
    assert result.exit_code in (0, 1)
    assert (tmp_path / "pt.csv").exists()


def test_probe_budget_past_the_walk_cap_exits_2(runner, tmp_path):
    # the 1e-300 edge makes the weighted cover bound about 4e300 steps
    gfile = tmp_path / "light.txt"
    gfile.write_text("3 2\n0 1 1.0\n1 2 1e-300\n")
    result = _run(
        runner,
        [
            "run", "st-connect-demo", "--graph-file", str(gfile), "--trials", "5",
            "--seed", "1", "--out", str(tmp_path / "st"),
        ],
    )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert "cap" in result.output
    assert not (tmp_path / "st.csv").exists()


def test_graph_file_whose_volume_overflows_exits_2(runner, tmp_path):
    # every weight is finite, but twice their sum is not: pi would be NaN
    # and each trial would walk the whole step budget
    gfile = tmp_path / "heavy.txt"
    gfile.write_text("3 3\n0 1 1e308\n0 1 1e308\n1 2 1\n")
    result = _run(
        runner,
        [
            "run", "scheme-speedup", "--graph-file", str(gfile), "--trials", "3",
            "--seed", "1", "--out", str(tmp_path / "heavy"),
        ],
    )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert "not finite" in result.output
    assert not (tmp_path / "heavy.csv").exists()


@pytest.mark.parametrize(
    "text", ["x 1\n0 1 1.0\n", "2 1\n0 1 abc\n"], ids=["bad-header", "bad-weight"]
)
def test_malformed_graph_file_exits_2(runner, tmp_path, text):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    result = _run(
        runner,
        [
            "run", "st-connect-demo", "--graph-file", str(gfile), "--trials", "5",
            "--seed", "1", "--out", str(tmp_path / "st"),
        ],
    )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert "bad " in result.output


@pytest.mark.parametrize(
    "experiment, flag, unreadable",
    [
        pytest.param("st-connect-demo", "--graph-file", False, id="st-connect-demo---graph-file"),
        pytest.param("degseq-cover", "--degseq", False, id="degseq-cover---degseq"),
        pytest.param("st-connect-demo", "--graph-file", True, id="st-connect-demo---graph-file-unreadable"),
        pytest.param("degseq-cover", "--degseq", True, id="degseq-cover---degseq-unreadable"),
    ],
)
def test_non_utf8_input_file_exits_2(runner, tmp_path, monkeypatch, experiment, flag, unreadable):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\n")
    if unreadable:
        # root reads through chmod 000, so each reader's open fails by hand
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_text", refuse)
        monkeypatch.setattr(Path, "open", refuse)  # a graph file's header is read first
        monkeypatch.setattr("walklab.configmodel.open", refuse, raising=False)
    result = _run(
        runner,
        [
            "run", experiment, flag, str(path), "--trials", "2",
            "--seed", "0", "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert ("Permission denied" if unreadable else "UTF-8") in result.output
    assert "bin.txt" in result.output
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "experiment, flags, message",
    [
        ("scheme-speedup", ["--family", ""], "unknown family ''"),
        ("st-connect-demo", ["--graph-file", ""], "no such file ''"),
        ("product-theorem", ["--product", ""], "expected two family specs"),
        ("degseq-cover", ["--degseq", ""], "or a degree file, got ''"),
        # the empty value gives no degree file, so "the file fixes n" would
        # name one that does not exist
        ("degseq-cover", ["--degseq", "", "--n", "100"], "or a degree file, got ''"),
    ],
    ids=["family", "graph-file", "product", "degseq", "degseq-with-n"],
)
def test_an_empty_flag_value_is_refused_not_defaulted(runner, tmp_path, experiment, flags, message):
    result = _run(runner, ["run", experiment, *flags, "--seed", "0", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert message in result.output
    assert not (tmp_path / "out.csv").exists()


# graph files refused from their header lines; "edges" has one body line
# where its header promises 4000001, and "twelve" eleven, a full body
GRAPH_FILES = {
    "header": "1000001 0\n",
    "edges": "10 4000001\n0 1 1\n",
    "negative": "-2000000 -2000000\n",
    "twelve": "10 11\n" + "0 1 1\n" * 11,
}


@pytest.mark.parametrize(
    "experiment, args, edge_cap, message",
    [
        ("st-connect-demo", ["--family", "grid2d:1001,1000"], None, "capped at 1000000 vertices"),
        ("scheme-speedup", ["--graph-file", "{header}"], None, "capped at 1000000 vertices, got n=1000001"),
        ("st-connect-demo", ["--family", "lollipop:30"], 100, "capped at 100 edges"),
        ("product-theorem", ["--product", "cycle:1000,cycle:1001"], None, "capped at 1000000 vertices, got n=1001000"),
        *[
            (experiment, ["--graph-file", f"{{{file}}}"], edge_cap, message)
            for file, edge_cap, message in [
                ("edges", None, "capped at 4000000 edges"),
                ("negative", None, "negative needs at least one vertex, got n=-2000000"),
                ("twelve", 10, "twelve: graphs are capped at 10 edges, got m=11"),
            ]
            for experiment in ("scheme-speedup", "st-connect-demo")
        ],
    ],
    ids=[
        "family", "graph-file", "edges", "product",
        *[f"{file}-header-{experiment}" for file in ("edges", "negative", "twelve") for experiment in ("scheme", "st")],
    ],
)
def test_oversize_graphs_are_refused_before_any_walk(
    runner, tmp_path, monkeypatch, experiment, args, edge_cap, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("a walk started, or a graph file's body was parsed, before the graph was checked")

    for name in ("simulate", "speedup", "_st_answers"):
        monkeypatch.setattr(f"walklab.cli.{name}", no_work)
    monkeypatch.setattr(Graph, "from_text", no_work)
    if edge_cap is not None:
        monkeypatch.setattr("walklab.graph._EDGE_CAP", edge_cap)
    for file, text in GRAPH_FILES.items():
        (tmp_path / f"{file}.txt").write_text(text)
    args = [a.format(**{file: tmp_path / f"{file}.txt" for file in GRAPH_FILES}) for a in args]
    started = time.perf_counter()
    result = _run(runner, ["run", experiment, *args, "--seed", "0", "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2
    assert "input error: " in result.output and message in result.output
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.json").exists()


def test_an_over_budget_probe_is_refused_before_its_family_is_built(runner, tmp_path):
    # path:1000000 fits both graph caps, but its 8 n m steps pass the walk
    # budget cap; its closed-form size refuses it with no edge built
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        result = _run(
            runner, ["run", "st-connect-demo", "--family", "path:1000000", "--seed", "0", "--out", str(out)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2
    assert "input error: s-t probe needs 8e+12 steps on path:1000000, above the cap 1000000000" in result.output
    assert peak < 5 * 2**20
    assert not out.with_suffix(".csv").exists()


def test_an_over_budget_probe_is_refused_from_its_graph_files_header(runner, tmp_path):
    # a 10^6-vertex path file: its header's n and m refuse the probe's
    # 8 n m steps before the body is read
    n = 10**6
    gfile = tmp_path / "long.txt"
    gfile.write_text(f"# a long path\n{n} {n - 1}\n" + "".join(f"{i} {i + 1} 1\n" for i in range(n - 1)))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        result = _run(runner, ["run", "st-connect-demo", "--graph-file", str(gfile), "--seed", "0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2
    assert "input error: s-t probe needs 8e+12 steps on long, above the cap 1000000000" in result.output
    assert peak < 5 * 2**20
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "text, rows, check",
    [
        ("999999 0\n", ["0,false,,0", "1,false,,0"], "no-false-positives"),
        ("4 1\n1 2 1\n", ["0,false,,32", "1,false,,32"], "no-false-positives"),
        ("1 0\n", ["0,true,0,0", "1,true,0,0"], "success-fraction"),
    ],
    ids=["no-edges", "edge-elsewhere", "one-vertex"],
)
def test_an_isolated_start_is_answered_without_a_bfs(runner, tmp_path, monkeypatch, text, rows, check):
    # vertex 0 touches no edge, so its component is {0}: the budget is the
    # plain 8 n m, and t = n - 1 is reached only when it is 0
    def no_bfs(self, source):
        raise AssertionError("an isolated start needs no BFS")

    monkeypatch.setattr(Graph, "bfs_distances", no_bfs)
    gfile = tmp_path / "apart.txt"
    gfile.write_text(text)
    out = tmp_path / "st"
    result = _run(runner, ["run", "st-connect-demo", "--graph-file", str(gfile), "--trials", "2", "--seed", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.with_suffix(".csv").read_text().splitlines()[1:] == ["run,connected,steps,budget", *rows]
    assert [ch["name"] for ch in json.loads(out.with_suffix(".json").read_text())["checks"]] == [check]


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph text"),
        ("# a comment\n\n", "empty graph text"),
        ("1000000\n0 1 1\n", "bad header line '1000000', expected 'n m'"),
        ("1000000 x\n0 1 1\n", "bad header line '1000000 x', expected integers 'n m'"),
    ],
    ids=["empty", "comment-only", "one-field", "not-integers"],
)
def test_a_screened_graph_file_keeps_its_header_messages(runner, tmp_path, text, message):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    result = _run(runner, ["run", "st-connect-demo", "--graph-file", str(gfile), "--seed", "0", "--out", str(tmp_path / "st")])
    assert result.exit_code == 2
    assert f"input error: {message}\n" in result.output


# header counts: signs, the caps and one past them, int64's edge, a number
# no float holds, and tokens int() refuses or reads in an unusual form
HEADER_COUNTS = st.sampled_from(
    [-2000000, -1, 0, 1, 2, 999_999, 1_000_000, 1_000_001, 3_999_999, 4_000_000, 4_000_001, 2**63, 10**30]
).map(str) | st.sampled_from(["", "x", "1.5", "1e3", "0x10", "1_0", "+3", "\u0663", "nan"])
# no body line joins vertex 0, the probe's start, so a graph near the
# vertex cap answers without walking its 8 n m steps
BODY_LINES = st.lists(st.sampled_from(["1 2 1", "2 1 0.5", "1 1 1", "1 2 x", "1 2", "# note", ""]), max_size=3)


@given(n=HEADER_COUNTS, m=HEADER_COUNTS, body=BODY_LINES)
@settings(max_examples=60, deadline=None)
def test_any_graph_file_header_keeps_the_exit_code_contract(n, m, body):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        gfile = Path(tmp) / "g.txt"
        gfile.write_text("\n".join([f"{n} {m}", *body]) + "\n", encoding="utf-8")
        for experiment in ("st-connect-demo", "scheme-speedup"):
            out = Path(tmp) / experiment
            args = ["run", experiment, "--graph-file", str(gfile), "--trials", "2", "--seed", "0", "--out", str(out)]
            result = _run(runner, args)
            assert result.exit_code in (0, 1, 2, 3), result.output
            assert "Traceback" not in result.output
            if result.exit_code == 2:
                assert "input error:" in result.output
                assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


def test_trials_past_the_cap_exit_2_before_any_work(runner, tmp_path):
    # a trillion trials once died in simulate's chunk list with a MemoryError
    # traceback and exit 1
    base = tmp_path / "pt"
    args = ["run", "product-theorem", "--trials", str(10**12), "--seed", "0", "--out", str(base)]
    result = _run(runner, args)
    assert result.exit_code == 2
    assert result.output.startswith("input error: --trials 1000000000000 is above product-theorem's cap")
    assert "Traceback" not in result.output
    assert not base.with_suffix(".csv").exists() and not base.with_suffix(".json").exists()


TRIALS_EXPERIMENTS = sorted(name for name, entry in EXPERIMENTS.items() if "trials" in entry["flags"])


@pytest.mark.parametrize("experiment", TRIALS_EXPERIMENTS)
def test_every_trials_flag_is_capped_above_its_default(runner, tmp_path, experiment):
    entry = EXPERIMENTS[experiment]
    cap = entry["caps"]["trials"]
    assert entry["flags"]["trials"] <= cap
    base = tmp_path / experiment
    result = _run(runner, ["run", experiment, "--trials", str(cap + 1), "--seed", "0", "--out", str(base)])
    assert result.exit_code == 2
    assert result.output.startswith(f"input error: --trials {cap + 1} is above {experiment}'s cap of {cap}")
    assert not base.with_suffix(".csv").exists()
    assert f"Caps: --trials {cap}." in _run(runner, ["describe", experiment]).output


def test_documented_and_benchmarked_trials_are_inside_every_cap():
    root = Path(__file__).resolve().parents[1]
    smallest = min(EXPERIMENTS[name]["caps"]["trials"] for name in TRIALS_EXPERIMENTS)
    for name in ("README.md", "perfbench/workloads.py"):
        counts = [int(x) for x in re.findall(r"--trials\W+(\d+)", (root / name).read_text())]
        assert counts and max(counts) <= smallest, name


@pytest.mark.parametrize("seed", ["0", "5"])
def test_pinned_bodies_hold(runner, tmp_path, seed):
    # the four experiments of tests/default-bodies.sha256, at both pinned
    # seeds, as CI's digest step runs them
    root = Path(__file__).resolve().parents[1]
    pinned = dict(line.split()[::-1] for line in (root / "tests" / "default-bodies.sha256").read_text().splitlines())
    for experiment in ("p-simple", "st-connect-demo", "degseq-cover", "scheme-speedup"):
        base = tmp_path / experiment
        assert _run(runner, ["run", experiment, "--seed", seed, "--out", str(base)]).exit_code == 0
        body = base.with_suffix(".csv").read_text().split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == pinned[f"{experiment}-{seed}.body"], experiment


@pytest.mark.parametrize("seed", ["0", "5"])
@pytest.mark.parametrize("experiment", ["closed-forms", "bounds-sandwich"])
def test_cover_bodies_are_the_same_with_the_kernel_on_and_off(runner, tmp_path, monkeypatch, experiment, seed):
    # both run the exact cover recursion, whose connected sets and per-layer
    # systems the kernel builds; off, helpers.all_sets_cover_times solves
    # every one of the 2^n sets in numpy in its place
    extra = {"closed-forms": ["--n", "2..13"], "bounds-sandwich": []}[experiment]
    bodies, codes = [], []
    for cover in (exact_cover_times, lambda kernel: all_sets_cover_times(kernel.matrix)):
        monkeypatch.setattr("walklab.cli.exact_cover_times", cover)
        base = tmp_path / f"{experiment}-{len(bodies)}"
        codes.append(_run(runner, ["run", experiment, "--seed", seed, "--out", str(base), *extra]).exit_code)
        bodies.append(base.with_suffix(".csv").read_text().split("\n", 1)[1])
    assert codes == [0, 0]
    assert bodies[0] == bodies[1]


# one experiment for each job of the kernel: walks, pairing checks, exact
# conductance and the exact cover recursion
KERNEL_RUNS = {
    "st-connect-demo": ["--family", "path:12", "--trials", "10"],
    "p-simple": ["--trials", "200"],
    "conductance-survey": ["--trials", "2"],
    "closed-forms": ["--n", "2..5"],
}


@pytest.mark.parametrize("fault", ["no compiler", "a failed build", "a missing entry point"])
def test_a_run_without_the_kernel_exits_3_in_one_line(runner, tmp_path, monkeypatch, fault):
    source = tmp_path / "_walk.c"
    text = Path(walklab_rng._SOURCE).read_text()
    source.write_text({"a failed build": "this is not C\n", "a missing entry point": text.replace("walklab_simple(", "walklab_gone(")}.get(fault, text))
    monkeypatch.setattr(walklab_rng, "_SOURCE", str(source))
    if fault == "no compiler":
        monkeypatch.setattr(walklab_rng.sysconfig, "get_config_var", lambda name: "no-such-compiler-for-walklab")
    kernel = walklab_rng._load_kernel()
    monkeypatch.setattr(walklab_rng, "_KERNEL", kernel)
    for experiment, extra in KERNEL_RUNS.items():
        base = tmp_path / experiment
        result = _run(runner, ["run", experiment, "--seed", "0", "--out", str(base), *extra])
        assert result.exit_code == 3, (experiment, result.output)
        assert result.output == f"numeric failure: walklab's compiled kernel is unavailable: {kernel.reason}\n"
        assert not base.with_suffix(".csv").exists() and not base.with_suffix(".json").exists()


class StarvedKernel:
    """The kernel, but `entry` finds no memory: it returns -1, as each of
    walklab_trials, walklab_simple and walklab_conductance does then."""

    def __init__(self, entry):
        self.kernel, self.entry = walklab_rng._KERNEL, entry

    def __getattr__(self, name):
        return (lambda *args: -1) if name == self.entry else getattr(self.kernel, name)


@pytest.mark.parametrize(
    "entry, experiment, extra, what",
    [
        ("walklab_trials", "scheme-speedup", ["--family", "lollipop:12", "--trials", "30"], "the walk's quotas"),
        ("walklab_simple", "p-simple", ["--trials", "200"], "the pairing check's tables"),
        ("walklab_conductance", "conductance-survey", ["--trials", "2"], "the conductance tables"),
    ],
    ids=["walks", "pairings", "conductance"],
)
def test_a_kernel_without_memory_exits_3_in_one_line(runner, tmp_path, monkeypatch, entry, experiment, extra, what):
    monkeypatch.setattr(walklab_rng, "_KERNEL", StarvedKernel(entry))
    base = tmp_path / experiment
    result = _run(runner, ["run", experiment, "--seed", "0", "--out", str(base), *extra])
    assert result.exit_code == 3
    assert result.output == f"numeric failure: no memory for {what}\n"
    assert not base.with_suffix(".csv").exists() and not base.with_suffix(".json").exists()


# one small spec an experiment; together they reach every float reduction
# the library makes: harmonic numbers, volumes and the walk's row totals
TRIPWIRE_SPECS = {
    "closed-forms": ["--n", "2..13"],
    "bounds-sandwich": [],
    "commute-identity": ["--trials", "20"],
    "grid-resistance": ["--n", "2..6"],
    "product-theorem": ["--trials", "20"],
    "degseq-cover": ["--n", "40,80", "--trials", "10"],
    "conductance-survey": ["--trials", "4"],
    "p-simple": ["--trials", "200"],
    "scheme-speedup": ["--family", "lollipop:12", "--trials", "30"],
    "st-connect-demo": ["--family", "path:12", "--trials", "10"],
}


def _sum_of_no_floats(items, start=0):
    """The builtin sum over ints, refusing a float item: Python 3.12 made the
    builtin's float sum compensated, so a float summed by it moves the last
    bits of a CSV cell between Python versions."""
    total = start
    for item in items:
        if isinstance(item, float):
            raise AssertionError(f"the builtin sum added the float {item!r}")
        total = total + item
    return total


@pytest.mark.parametrize("experiment", sorted(TRIPWIRE_SPECS))
def test_no_experiment_adds_floats_with_the_builtin_sum(runner, tmp_path, monkeypatch, experiment):
    assert sorted(TRIPWIRE_SPECS) == sorted(EXPERIMENTS)
    for name, module in list(sys.modules.items()):
        if name == "walklab" or name.startswith("walklab."):
            monkeypatch.setattr(module, "sum", _sum_of_no_floats, raising=False)
    base = tmp_path / experiment
    result = _run(runner, ["run", experiment, *TRIPWIRE_SPECS[experiment], "--seed", "3", "--out", str(base)])
    assert result.exit_code in (0, 1), result.output
    assert base.with_suffix(".csv").exists()


def test_family_and_graph_file_conflict(runner, tmp_path):
    gfile = tmp_path / "g.txt"
    gfile.write_text("2 1\n0 1 1.0\n")
    result = _run(
        runner,
        [
            "run", "st-connect-demo", "--family", "path:5", "--graph-file", str(gfile),
            "--seed", "1", "--out", str(tmp_path / "st"),
        ],
    )
    assert result.exit_code == 2
    assert "at most one" in result.output


def test_product_theorem_small_product(runner, tmp_path):
    result = _run(
        runner,
        [
            "run", "product-theorem", "--product", "complete:2,path:4",
            "--trials", "50", "--seed", "4", "--out", str(tmp_path / "p"),
        ],
    )
    assert result.exit_code == 0
    body = (tmp_path / "p.csv").read_text()
    assert "cov-h-method,exact" in body
    assert "precondition-ok,true" in body


def test_conductance_survey_small(runner, tmp_path):
    result = _run(
        runner,
        ["run", "conductance-survey", "--trials", "4", "--seed", "2", "--out", str(tmp_path / "c")],
    )
    assert result.exit_code == 0
    body = (tmp_path / "c.csv").read_text()
    assert "sweep-only" in body  # larger sizes reported without assertion


def test_conductance_survey_builds_each_kernel_once(runner, tmp_path, monkeypatch):
    # each n = 20 sample's plain kernel serves both its exact enumeration
    # and its sweep, and its lazy kernel the spectral gap; each larger
    # graph's plain kernel serves its sweep
    built = []

    def counted(g, scheme="uniform", lazy=False):
        built.append((g.n, lazy))
        return build_kernel(g, scheme=scheme, lazy=lazy)

    monkeypatch.setattr("walklab.cli.build_kernel", counted)
    monkeypatch.setattr("walklab.conductance.build_kernel", counted)
    result = _run(
        runner,
        ["run", "conductance-survey", "--trials", "4", "--seed", "2", "--out", str(tmp_path / "c")],
    )
    assert result.exit_code == 0
    assert sorted(built) == sorted([(20, False), (20, True)] * 4 + [(100, False), (200, False)])


def test_p_simple_small(runner, tmp_path):
    result = _run(
        runner,
        ["run", "p-simple", "--trials", "800", "--seed", "11", "--out", str(tmp_path / "ps")],
    )
    assert result.exit_code == 0


def test_describe_lists_and_details(runner):
    listing = _run(runner, ["describe"])
    assert listing.exit_code == 0
    for name in EXPERIMENTS:
        assert name in listing.output
    detail = _run(runner, ["describe", "grid-resistance"])
    assert detail.exit_code == 0
    assert "claim:" in detail.output
    assert "inputs:" in detail.output
    assert "pass rule:" in detail.output
    missing = _run(runner, ["describe", "nope"])
    assert missing.exit_code == 2


def test_every_experiment_has_documentation():
    for name, entry in EXPERIMENTS.items():
        assert entry["claim"] and entry["inputs"] and entry["checks"], name


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_describe_prints_each_threshold_and_default_from_the_tables(runner, experiment):
    entry = EXPERIMENTS[experiment]
    result = _run(runner, ["describe", experiment])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    for name, (statistic, comparison, threshold) in entry["checks"].items():
        (line,) = [line for line in lines if line.strip().startswith(f"{name}: ")]
        assert statistic in line and comparison in line
        for bound in threshold if comparison == "in" else [] if threshold is None else [threshold]:
            assert str(bound) in line, (name, bound)
    (inputs,) = [line for line in lines if line.startswith("  inputs: ")]
    # a default is stated by the table alone, never again in the prose
    prose = {word.strip(".,") for word in re.split(r"[\s;()]+", entry["inputs"])}
    for flag, default in entry["flags"].items():
        if default is not None:
            assert f"--{flag.replace('_', '-')} {default}" in inputs, flag
            assert str(default) not in prose, flag
