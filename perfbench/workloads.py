"""The four benchmark workloads: seeded inputs, tasks, checks, walk steps.

A workload is a list of tasks run one after another by a single client
(a closed loop). A task is one operation: either one `walklab run`
experiment, invoked in-process through the click entry point, or one
library case calling the top-level `walklab` functions. Every input is a
function of the benchmark seed.

Each task's `run` returns an Outcome holding the raw result; its `verify`
then checks that result and leaves `problems` empty when the operation
succeeded. Only `run` is timed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import walklab as wl
import walklab.cli
from walklab import WalkConfig

WORKLOADS = ("exact", "mc-short", "mc-long", "sampling")

# Monte Carlo budget per trial (WalkConfig's default); a censored trial
# walked exactly this many steps.
BUDGET = WalkConfig().budget
CALIBRATION_TRIALS = 1000
# Per-case tolerance for the calibration set, in standard errors. Five
# puts the chance of a false failure near 1e-5 per pass of 20 cases.
CALIBRATION_SIGMAS = 5.0
EXACT_REL_TOL = 1e-8


@dataclass
class Outcome:
    """What one operation produced."""

    problems: list[str] = field(default_factory=list)
    sha256: str | None = None  # digest of the CSV body or estimate record
    walk_steps: int = 0
    seconds: float = 0.0
    value: object = None  # kept for verify(); never serialized


@dataclass
class Task:
    """One operation. `run` is timed; `verify` fills in the outcome's
    problems, digest and walk steps afterwards, outside every timing."""

    name: str
    run: Callable[[], Outcome]
    verify: Callable[[Outcome], None]


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list[Task]


# --- CLI experiments ---


def _csv_rows(body: str) -> list[dict]:
    # first line is "# spec {...}", then a header and the rows
    return list(csv.DictReader(io.StringIO(body.split("\n", 1)[1])))


def _steps(mean: float, trials: int, censored: int) -> int:
    """Total steps of a Monte Carlo estimate from its reported moments."""
    return round(float(mean) * (trials - censored)) + censored * BUDGET


def _steps_st_connect(rows):
    return sum(int(r["steps"]) if r["connected"] == "true" else int(r["budget"]) for r in rows)


def _steps_product_theorem(rows):
    vals = {r["metric"]: r["value"] for r in rows}
    trials = int(vals["mc-trials"])
    steps = _steps(float(vals["bcov-h"]), trials, 0)
    steps += _steps(float(vals["mc-cover-mean"]), trials, int(vals["mc-censored"]))
    if vals["cov-h-method"] == "mc":
        steps += _steps(float(vals["cov-h"]), trials, 0)
    return steps


def _steps_degseq_cover(rows):
    return sum(_steps(float(r["mean_cover"]), int(r["trials"]), int(r["censored"])) for r in rows)


def _steps_scheme_speedup(rows):
    vals = {r["metric"]: r["value"] for r in rows}
    trials = int(vals["trials"])
    return _steps(float(vals["uniform_mean"]), trials, 0) + _steps(float(vals["mindeg_mean"]), trials, 0)


# walk steps of the experiments that walk, computed from their CSV rows
STEPS_FROM_CSV = {
    "st-connect-demo": _steps_st_connect,
    "product-theorem": _steps_product_theorem,
    "degseq-cover": _steps_degseq_cover,
    "scheme-speedup": _steps_scheme_speedup,
}


def run_cli(args: list[str]) -> tuple[int, str]:
    """Invoke `walklab <args>` in this process; (exit code, captured output)."""
    captured = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            walklab.cli.main.main(args=args, prog_name="walklab", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, captured.getvalue()


def cli_task(experiment: str, seed: int, out_dir: Path, extra: list[str] = ()) -> Task:
    base = out_dir / experiment
    args = ["run", experiment, "--seed", str(seed), "--out", str(base), *extra]

    def run() -> Outcome:
        return Outcome(value=run_cli(args))

    def verify(out: Outcome) -> None:
        code, text = out.value
        if code != 0:
            out.problems.append(f"exit {code}: {text.strip()[-300:]}")
            return
        summary = json.loads(Path(f"{base}.json").read_text())
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        if failed:
            out.problems.append(f"checks failed: {failed}")
        body = Path(f"{base}.csv").read_text()
        out.sha256 = hashlib.sha256(body.encode()).hexdigest()
        if experiment in STEPS_FROM_CSV:
            out.walk_steps = STEPS_FROM_CSV[experiment](_csv_rows(body))

    return Task(f"cli:{experiment}", run, verify)


# --- library cases ---


def _rel_err(observed: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(observed - expected) / np.abs(expected)))


def torus_case() -> Task:
    """exact_hitting, resistance_matrix and matthews_upper on torus2d:20,20."""
    g = wl.family("torus2d:20,20")

    def run() -> Outcome:
        hit = wl.exact_hitting(wl.build_kernel(g))
        res = wl.resistance_matrix(g)
        return Outcome(value=(hit, res, wl.matthews_upper(g, hitting=hit)))

    def verify(out: Outcome) -> None:
        hit, res, upper = out.value
        off = ~np.eye(g.n, dtype=bool)
        # commute identity: H + H^T = volume * R off the diagonal
        gap = _rel_err((hit + hit.T)[off], g.volume * res[off])
        if not gap <= EXACT_REL_TOL:
            out.problems.append(f"commute identity rel err {gap:.3e} > {EXACT_REL_TOL}")
        expected = float(hit.max()) * math.fsum(1.0 / k for k in range(1, g.n + 1))
        if not abs(upper - expected) <= EXACT_REL_TOL * expected:
            out.problems.append(f"matthews_upper {upper!r} != max H * h(n) = {expected!r}")

    return Task("lib:torus2d:20,20", run, verify)


def cycle_case(n: int = 100) -> Task:
    """exact_hitting on a cycle against the closed form H[0, r] = r (n - r)."""
    g = wl.family(f"cycle:{n}")
    r = np.arange(1, n)
    expected = (r * (n - r)).astype(float)

    def run() -> Outcome:
        return Outcome(value=wl.exact_hitting(wl.build_kernel(g)))

    def verify(out: Outcome) -> None:
        err = _rel_err(out.value[0, 1:], expected)
        if not err <= EXACT_REL_TOL:
            out.problems.append(f"cycle closed form rel err {err:.3e} > {EXACT_REL_TOL}")

    return Task(f"lib:cycle:{n}", run, verify)


def calibration_graphs(seed: int) -> list:
    """Criterion 4's calibration set: 15 fixed graphs plus 5 seeded random ones."""
    graphs = [
        wl.family(spec)
        for spec in (
            "path:6", "path:10", "cycle:7", "cycle:10", "complete:6", "complete:10",
            "star:8", "star:10", "binary-tree:7", "binary-tree:10", "lollipop:7",
            "lollipop:10", "grid2d:2,4", "grid2d:3,3", "torus2d:3,3",
        )
    ]
    for i in range(5):
        rng = wl.substream(seed, 1 + i)
        n = int(rng.integers(4, 11))
        graphs.append(wl.random_connected_graph(rng, n, extra=int(rng.integers(0, n))))
    return graphs


def calibration_case(g, idx: int, seed: int) -> Task:
    """simulate() on one calibration graph, checked against its exact value."""
    if idx % 2 == 0:
        config = WalkConfig(stop="cover", start=0)
    else:
        config = WalkConfig(stop="hit", start=0, target=g.n - 1)
    sim_seed = 1000 * seed + idx

    def run() -> Outcome:
        return Outcome(value=wl.simulate(g, config, CALIBRATION_TRIALS, sim_seed))

    reference: list[float] = []  # exact value, computed on first verify

    def verify(out: Outcome) -> None:
        est = out.value
        out.sha256 = hashlib.sha256(repr(est).encode()).hexdigest()
        out.walk_steps = _steps(est.mean, est.trials, est.censored)
        if est.censored:
            out.problems.append(f"{est.censored} censored trials")
        if not reference:
            kernel = wl.build_kernel(g)
            if config.stop == "cover":
                reference.append(float(wl.exact_cover_time(kernel, 0)))
            else:
                reference.append(float(wl.exact_hitting(kernel)[0, g.n - 1]))
        if not abs(est.mean - reference[0]) <= CALIBRATION_SIGMAS * est.stderr:
            out.problems.append(
                f"mean {est.mean:.4f} misses exact {reference[0]:.4f} by more than "
                f"{CALIBRATION_SIGMAS} x stderr {est.stderr:.4f}"
            )

    return Task(f"lib:simulate:{idx}:{g.name}:{config.quantity()}", run, verify)


# --- workloads ---


def build(name: str, seed: int, out_dir: Path, workers: int) -> Workload:
    """The seeded inputs and task list of one workload."""
    if name == "exact":
        tasks = [
            cli_task(e, seed, out_dir)
            for e in ("closed-forms", "bounds-sandwich", "commute-identity", "grid-resistance")
        ]
        tasks += [torus_case(), cycle_case()]
        return Workload(name, seed, tasks)
    if name == "mc-short":
        tasks = [calibration_case(g, i, seed) for i, g in enumerate(calibration_graphs(seed))]
        tasks += [cli_task(e, seed, out_dir) for e in ("st-connect-demo", "product-theorem")]
        return Workload(name, seed, tasks)
    if name == "mc-long":
        # one size: at the default 500,1000,2000 ladder the experiment's
        # ratio-moves-toward-one check fails on about a third of seeds
        degseq = ["--n", "2000", "--trials", "100", "--workers", str(workers)]
        # lollipop:90 at 150 trials has a 9 % relative standard error in its
        # cover time, which made wall_s spread 0.23 across seeds
        speedup = ["--family", "lollipop:40", "--trials", "400"]
        tasks = [
            cli_task("degseq-cover", seed, out_dir, degseq),
            cli_task("scheme-speedup", seed, out_dir, speedup),
        ]
        return Workload(name, seed, tasks)
    if name == "sampling":
        tasks = [
            cli_task("p-simple", seed, out_dir, ["--trials", "4000"]),
            cli_task("conductance-survey", seed, out_dir, ["--trials", "10"]),
        ]
        return Workload(name, seed, tasks)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def warm_up() -> None:
    """Pay first-call costs (lazy BLAS and LAPACK set-up) outside every timing.

    With two OpenBLAS threads a fresh process's first dense solve stalled
    for 0.4-0.8 s in some runs. Runs now use one thread; any first-call
    cost left lands here, in `warmup_s`, not in `wall_s` or `setup_s`.
    """
    wl.exact_hitting(wl.build_kernel(wl.family("cycle:100")))
    wl.simulate(wl.family("path:6"), WalkConfig(stop="cover"), 64, 0)


def clear(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
