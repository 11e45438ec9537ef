"""The measured process of one benchmark run.

Usage: python3 perfbench/measure.py --workload NAME --seed N
           [--seconds S] [--trace 0|1] [--setup-only]

Started by run.py in a fresh interpreter. It imports walklab from the
checkout's `src/`, builds the workload's seeded inputs and prints `ready`
(run.py times set-up up to that line). With --setup-only it stops there.
Otherwise it warms up, runs the workload's tasks in a closed loop until
--seconds have passed (at least once), checks every output, and prints one
JSON line with the timings, counts and failures. With --trace 1 it then
runs the tasks once more under the tracer and adds per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# worker processes per workload; mc-long is the one multi-process workload
WORKERS = {"mc-long": 2}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(workload: str) -> int:
    return min(WORKERS.get(workload, 1), nproc())


def single_blas_thread() -> None:
    """One BLAS thread per process; must run before numpy is imported.

    With two OpenBLAS threads on two cores the idle thread spins, which
    nearly doubled CPU time on walklab's small dense solves and made the
    exact workload's passes swing between 6 and 9 s. A single thread also
    removes the first-solve stall described in workloads.warm_up().
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def run_pass(tasks, tracer=None):
    """Run every task once, in order; (wall seconds, outcomes).

    Wall time runs from the first task's start to the last task's verdict.
    """
    from workloads import Outcome

    outcomes = []
    started = time.perf_counter()
    for run_id, task in enumerate(tasks):
        task_started = time.perf_counter()
        try:
            if tracer is None:
                out = task.run()
            else:
                tracer.run_id = run_id
                if task.name.startswith("cli:"):
                    with tracer.span("cli." + task.name[4:]):
                        out = task.run()
                else:
                    out = task.run()
        except Exception as exc:  # one failed operation must not end the run
            out = Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
        out.seconds = time.perf_counter() - task_started
        outcomes.append(out)
    return time.perf_counter() - started, outcomes


def check_pass(tasks, outcomes, digests: dict, errors: list) -> int:
    """Verify one pass's outputs; returns the number of failed operations."""
    failed = 0
    for task, out in zip(tasks, outcomes):
        if not out.problems:
            try:
                task.verify(out)
            except Exception as exc:
                out.problems.append(f"verify raised {type(exc).__name__}: {exc}")
        if out.sha256 is not None:
            first = digests.setdefault(task.name, out.sha256)
            if out.sha256 != first:
                out.problems.append("output digest differs from the first pass")
        if out.problems:
            failed += 1
            errors.append(f"{task.name}: {'; '.join(out.problems)}")
    return failed


def environment(workers: int) -> dict:
    """Versions, BLAS and core count this run measured with."""
    from importlib import metadata
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": workers,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are pool workers, if any ran
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(work, seconds: float, trace: bool, trace_path: Path) -> dict:
    import workloads

    warm = time.perf_counter()
    workloads.warm_up()
    warmup_s = time.perf_counter() - warm

    digests: dict[str, str] = {}
    errors: list[str] = []
    passes = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        wall, outcomes = run_pass(work.tasks)
        attempted += len(outcomes)
        failed += check_pass(work.tasks, outcomes, digests, errors)
        passes.append({
            "wall_s": wall,
            "walk_steps": sum(o.walk_steps for o in outcomes),
            "tasks": {t.name: [o.seconds, o.walk_steps] for t, o in zip(work.tasks, outcomes)},
        })
        if time.perf_counter() - started >= seconds:
            break
    # measured before the traced pass, whose span list would inflate it
    rss = peak_rss_mb()

    # Averaged over the run's passes: this machine's speed drifts over
    # seconds to minutes, and on two or three passes the mean followed that
    # drift less than the median did.
    busy = sum(p["wall_s"] for p in passes)
    result = {
        "workload": work.name,
        "seed": work.seed,
        "passes": passes,
        "wall_s": busy / len(passes),
        "walk_steps_per_s": sum(p["walk_steps"] for p in passes) / busy,
        "peak_rss_mb": rss,
        "warmup_s": warmup_s,
        "digests": digests,
    }
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, outcomes = run_pass(work.tasks, tracer)
        finally:
            tracer.uninstall()
        attempted += len(outcomes)
        failed += check_pass(work.tasks, outcomes, digests, errors)
        tracer.write(trace_path)
        result["layers"] = tracer.layer_metrics(traced_wall, result["wall_s"])
        result["trace_file"] = str(trace_path.relative_to(HERE.parent))
    result.update(attempted=attempted, failed=failed, errors=errors[:20])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "walklab" / "__init__.py").is_file():
        print(f"measure: no walklab sources under {SRC}", file=sys.stderr)
        return 2
    workers = workers_for(args.workload)
    single_blas_thread()
    sys.path.insert(0, str(SRC))
    import workloads

    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir = WORK / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.build(args.workload, args.seed, out_dir, workers)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(work, args.seconds, bool(args.trace), WORK / f"trace-{tag}.tsv")
    finally:
        workloads.clear(out_dir)
    result["env"] = environment(workers)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
