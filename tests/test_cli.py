"""End-to-end checks of the command-line surface.

Everything runs through click's CliRunner inside an isolated directory, so
artifact writes never touch the repository. The heavyweight default
invocations are covered by the acceptance suite; here the experiments run
at toy sizes to pin behavior, exit codes, and output formats.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from walklab.cli import EXPERIMENTS, main


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
    r2 = _run(runner, args + ["--out", str(b), "--workers", "2"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()


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
    degfile = tmp_path / "deg.txt"
    degfile.write_text("5\n5\n5\n5\n")
    result = _run(
        runner,
        [
            "run", "degseq-cover", "--degseq", str(degfile), "--trials", "5",
            "--seed", "1", "--out", str(tmp_path / "d"),
        ],
    )
    assert result.exit_code == 3
    assert "numeric failure" in result.output


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


def test_flag_the_experiment_never_reads_is_rejected(runner, tmp_path):
    result = _run(
        runner,
        [
            "run", "commute-identity", "--family", "path:6",
            "--seed", "1", "--out", str(tmp_path / "ci"),
        ],
    )
    assert result.exit_code == 2
    assert "does not apply" in result.output
    assert "--trials" in result.output  # the message names what the experiment takes
    # nothing was written
    assert not (tmp_path / "ci.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_stream_key_range_exits_2(runner, tmp_path, seed):
    result = _run(
        runner,
        ["run", "st-connect-demo", "--trials", "5", "--seed", seed, "--out", str(tmp_path / "st")],
    )
    assert result.exit_code == 2
    assert "input error" in result.output
    assert not (tmp_path / "st.csv").exists()


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
        assert entry["claim"] and entry["inputs"] and entry["rule"], name
