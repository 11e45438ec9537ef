"""walklab benchmark: one seeded run of a workload, plus sweep/summary/compare.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

It times set-up in several fresh interpreters, runs the workload in one
more (perfbench/measure.py), checks every output, prints each metric by
name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
--save FILE appends the full record (timings, digests, environment) to a
JSON-lines result set.

Result sets:

    python3 perfbench/run.py sweep --seeds 1..10 --save set.jsonl [--workloads a,b]
    python3 perfbench/run.py summary set.jsonl
    python3 perfbench/run.py compare parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
WORKLOADS = ("exact", "mc-short", "mc-long", "sampling")
# set-up probes on each side of the measuring process, so that the median
# covers the run's whole window rather than a burst at its start
SETUP_PROBES = (2, 2)
# the whole run, set-up probes included, must end well inside 180 s
DEADLINE_S = 170.0


class RunError(Exception):
    """The run could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise RunError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text())


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start measure.py; (seconds until it printed `ready`, rest of stdout)."""
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise RunError("out of time before starting a measured process")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(MEASURE), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(budget, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        detail = (err or first).strip().splitlines()[-3:]
        raise RunError(f"measure.py {' '.join(args)} failed (exit {proc.returncode}): {detail}")
    return ready_s, rest


def single_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples plus one measured process; the full result record."""
    if workload not in WORKLOADS:
        raise RunError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise RunError("--seed must be non-negative")
    if not (ROOT / "src" / "walklab" / "__init__.py").is_file():
        raise RunError(f"no walklab sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    before, after = SETUP_PROBES
    setup = [spawn(base + ["--setup-only"], deadline)[0] for _ in range(before)]
    ready_s, rest = spawn(
        base + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline
    )
    setup.append(ready_s)
    setup += [spawn(base + ["--setup-only"], deadline)[0] for _ in range(after)]
    record = json.loads(rest.strip().splitlines()[-1])
    record.update(
        seconds=seconds,
        trace=trace,
        setup_samples=setup,
        setup_s=statistics.median(setup),
    )
    return record


def metrics_of(record: dict, spec: dict) -> dict:
    """The record's metrics for the run's mode, named and united as in the spec."""
    if record["trace"]:
        values = dict(record["layers"], warmup_s=record["warmup_s"])
        listed = spec["per_layer"]
    else:
        values = record
        listed = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def report(record: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    env = record["env"]
    print(
        f"workload {record['workload']} seed {record['seed']}: "
        f"{len(record['passes'])} pass(es), {record['attempted']} operations, "
        f"{record['failed']} failed"
    )
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<32} {rate:>16.6g} ratio ({record['failed']}/{record['attempted']})")
    print(f"  {'walk_steps_per_s':<32} {record['walk_steps_per_s']:>16.6g} 1/s")
    if "warmup_s" not in metrics:
        print(f"  {'warmup_s':<32} {record['warmup_s']:>16.6g} s (first-call stalls land here)")
    print(f"  setup samples: {', '.join(f'{s:.4f}' for s in record['setup_samples'])}")
    print(
        f"  env: nproc {env['nproc']}, {env['cpu']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, click {env['click']}, "
        f"{env['blas']}, {env['blas_threads']}, workers {env['workers']}"
    )
    for line in record["errors"]:
        print(f"  error: {line}")


# --- result sets ---


def read_set(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest_conflicts(records: list[dict]) -> list[str]:
    """Tasks whose output digest differs between runs of one workload and seed."""
    seen: dict[tuple, str] = {}
    bad = []
    for r in records:
        for task, digest in r["digests"].items():
            key = (r["workload"], r["seed"], task)
            if seen.setdefault(key, digest) != digest:
                bad.append(f"{r['workload']} seed {r['seed']} {task}")
    return sorted(set(bad))


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for r in records:
        if not r["trace"]:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def summary(path: str, spec: dict) -> int:
    records = read_set(path)
    print(f"{'workload':<9} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for workload, runs in by_workload(records).items():
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(
                f"{workload:<9} {m['name']:<12} {len(values):>3} {med:>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {spread:>8.4f} {m['bound']:>6}{flag}"
            )
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"operations: {attempted} attempted, {failed} failed")
    for conflict in digest_conflicts(records):
        print(f"digest mismatch: {conflict}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], better: str, bound: float):
    """better / worse / same / unresolved for change b against parent a."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    won = wins / len(pairs)
    if (q3 - q1) / med_a > bound:
        beats_all = min(sign * y for y in b) > max(sign * x for x in a)
        return ("better" if beats_all else "unresolved"), won
    if sign * (med_a - med_b) / med_a > bound:
        return "worse", won
    if won >= 0.9 and sign * (med_b - med_a) > q3 - q1:
        return "better", won
    return "same", won


def compare(path_a: str, path_b: str, spec: dict) -> int:
    set_a, set_b = read_set(path_a), read_set(path_b)
    groups_a, groups_b = by_workload(set_a), by_workload(set_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(
        f"{'workload':<9} {'metric':<12} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
        f"{'won':>5} {'bound':>6} verdict"
    )
    for workload in WORKLOADS:
        runs_a, runs_b = groups_a.get(workload), groups_b.get(workload)
        if not runs_a or not runs_b:
            continue
        seeds_b = {r["seed"]: r for r in runs_b}
        paired = [(r, seeds_b[r["seed"]]) for r in runs_a if r["seed"] in seeds_b]
        if not paired:  # no common seeds: every cross pair
            paired = [(x, y) for x in runs_a for y in runs_b]
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r[name] for r in runs_a]
            b = [r[name] for r in runs_b]
            pairs = [(x[name], y[name]) for x, y in paired]
            result, won = verdict(a, b, pairs, m["better"], m["bound"])
            qa, qb = quartiles(a), quartiles(b)
            cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a)}"
            cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b)}"
            print(
                f"{workload:<9} {name:<12} {cell_a:>34} {cell_b:>34} {won:>5.2f} "
                f"{m['bound']:>6} {result}"
            )
    for conflict in digest_conflicts(set_a + set_b):
        print(f"digest mismatch: {conflict}")
    for label, records in (("A", set_a), ("B", set_b)):
        failed = sum(r["failed"] for r in records)
        print(f"{label}: {sum(r['attempted'] for r in records)} operations, {failed} failed")
    return 0


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def sweep(args: argparse.Namespace) -> int:
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            started = time.perf_counter()
            record = single_run(workload, seed, args.seconds, trace=False)
            append(args.save, record)
            print(
                f"{workload} seed {seed}: wall_s {record['wall_s']:.4f} setup_s "
                f"{record['setup_s']:.4f} failed {record['failed']}/{record['attempted']} "
                f"run {time.perf_counter() - started:.1f} s",
                flush=True,
            )
    return 0


def append(path: str | None, record: dict) -> None:
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


def main(argv: list[str]) -> int:
    try:
        spec = load_spec()
        if argv[:1] == ["summary"] and len(argv) == 2:
            return summary(argv[1], spec)
        if argv[:1] == ["compare"] and len(argv) == 3:
            return compare(argv[1], argv[2], spec)
        if argv[:1] == ["sweep"]:
            parser = argparse.ArgumentParser(prog="run.py sweep")
            parser.add_argument("--seeds", required=True, help="1..10 or 1,4,9")
            parser.add_argument("--workloads", default=None, help="comma list; default all")
            parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
            parser.add_argument("--save", required=True)
            return sweep(parser.parse_args(argv[1:]))
        parser = argparse.ArgumentParser(description="One seeded benchmark run.")
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--save", default=None, help="append the full record to this file")
        args = parser.parse_args(argv)
        record = single_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    append(args.save, record)
    metrics = metrics_of(record, spec)
    report(record, metrics)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
