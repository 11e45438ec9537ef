"""Layer tracing from outside the program.

`Tracer.install()` replaces public walklab functions with wrappers that
record a span (name, start, end, parent, run id) per call and update
work counters. Modules import names directly (`from .rng import
substream`), so every walklab module namespace that holds the original
object is patched, not only the defining module. `uninstall()` restores
the originals. Spans stay in memory until the run ends; `layer_metrics`
derives each layer's self time from them: a span's duration minus the
part of it that its child spans cover.

Work done in pool worker processes is not traced; the parent's span
around the call covers its wall time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _hitting_work(args, kwargs, result):
    n = args[0].n
    targets = kwargs.get("targets", args[1] if len(args) > 1 else None)
    width = n if targets is None else len(targets)
    return {"spectral.hitting_solve_work": width * n**3}


def _lower_subsets(args, kwargs, result):
    g = args[0]
    subset = kwargs.get("subset", args[1] if len(args) > 1 else None)
    if subset is not None:
        return {"electrical.lower_subsets": 1}
    max_size = kwargs.get("max_size", args[2] if len(args) > 2 else 12)
    top = min(max_size, g.n)
    return {"electrical.lower_subsets": sum(math.comb(g.n, k) for k in range(2, top + 1))}


def _simulate_counts(args, kwargs, result):
    done = result.trials - result.censored
    budget = (kwargs.get("config") or args[1]).budget
    return {
        "walks.trials": result.trials,
        "walks.censored": result.censored,
        "walks.steps": round(result.mean * done) + result.censored * budget,
    }


def _st_steps(args, kwargs, result):
    steps = result["steps"] if result["connected"] else result["budget"]
    return {"walks.steps": steps}


# (module, attribute, layer bucket, counter hook). A bucket's self time is
# reported as "<bucket>_s"; hooks map (args, kwargs, result) to counts.
# "Class.method" names patch the class attribute.
TARGETS = [
    ("walklab.graph", "Graph.__init__", "graph.construct", lambda a, k, r: {"graph.construct_calls": 1}),
    ("walklab.graph", "Graph.from_text", "graph.construct", None),
    *[
        ("walklab.graph", name, "graph.construct", None)
        for name in (
            "family", "path", "cycle", "complete", "star", "binary_tree", "grid2d",
            "torus2d", "lollipop", "cartesian_product", "random_connected_graph",
        )
    ],
    ("walklab.rng", "substream", "rng.substream", lambda a, k, r: {"rng.substreams": 1}),
    ("walklab.spectral", "build_kernel", "spectral.build_kernel", None),
    ("walklab.spectral", "exact_hitting", "spectral.exact_hitting", _hitting_work),
    ("walklab.spectral", "exact_cover_times", "spectral.exact_cover",
     lambda a, k, r: {"spectral.cover_sets": 2 ** a[0].n}),
    ("walklab.spectral", "exact_cover_time", "spectral.exact_cover",
     lambda a, k, r: {"spectral.cover_sets": 2 ** (a[0].n - 1)}),
    *[
        ("walklab.electrical", name, "electrical.resistance", None)
        for name in (
            "effective_resistance", "resistance_matrix", "commute_time", "commute_matrix",
            "grid_resistance_monitor",
        )
    ],
    ("walklab.electrical", "matthews_lower", "electrical.matthews_lower", _lower_subsets),
    *[
        ("walklab.electrical", name, "electrical.bounds", None)
        for name in ("merst_bound", "spanning_tree_bound", "matthews_upper")
    ],
    ("walklab.walks", "simulate", "walks.simulate", _simulate_counts),
    ("walklab.walks", "st_connectivity", "walks.st_connectivity", _st_steps),
    ("walklab.configmodel", "sample_configuration", "configmodel.pairing",
     lambda a, k, r: {"configmodel.pairings": 1}),
    ("walklab.configmodel", "is_simple", "configmodel.simple_test",
     lambda a, k, r: {"configmodel.accepted": int(bool(r))}),
    ("walklab.configmodel", "sample_simple", "configmodel.sample_simple",
     lambda a, k, r: {"configmodel.accepted": 1}),
    ("walklab.conductance", "conductance_exact", "conductance.exact",
     lambda a, k, r: {"conductance.subsets": 2 ** a[0].n}),
    ("walklab.conductance", "conductance_sweep", "conductance.sweep", None),
    ("walklab.product", "theorem_main_bounds", "product.bounds", None),
    ("walklab.weighting", "apply_scheme", "weighting.apply_scheme", None),
    ("walklab.weighting", "speedup", "weighting.speedup", None),
]

BUCKETS = sorted({t[2] for t in TARGETS})
COUNTS = (
    "graph.construct_calls", "rng.substreams", "spectral.hitting_solve_work",
    "spectral.cover_sets", "electrical.lower_subsets", "walks.trials", "walks.steps",
    "walks.censored", "configmodel.pairings", "conductance.subsets",
)


class Tracer:
    """Spans and counters for one traced pass; create, install, run, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, run id)
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _end(self, index: int, name_id: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name_id, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name: str):
        name_id = self._name_id(name)
        index, parent = self._begin(name_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._end(index, name_id, parent, start)

    def _wrap(self, fn, bucket: str, hook):
        name_id = self._name_id(bucket)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = self._begin(name_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index, name_id, parent, start)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "walklab" or name.startswith("walklab.")]
        for module_name, attr, bucket, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__.get(method)
                if raw is None:  # removed by a later version: its time goes to the caller
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, bucket, hook))
                else:
                    new = self._wrap(raw, bucket, hook)
                self._patches.append((cls, method, raw))
                setattr(cls, method, new)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, bucket, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def self_seconds(self) -> dict[str, float]:
        """Busy self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            totals[self.names[name_id]] += (end - start - child_ns[i]) / 1e9
        return totals

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0) / 1e9

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated text: a name table, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# names\t" + "\t".join(self.names) + "\n")
            handle.write("# name_id\tstart_ns\tend_ns\tparent\trun_id\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer self times and counts, named as in BENCHMARK.json."""
        from walklab.cli import EXPERIMENTS

        selfs = self.self_seconds()
        buckets = BUCKETS + [f"cli.{e}" for e in sorted(EXPERIMENTS)]
        out: dict[str, float] = {f"{b}_s": selfs.get(b, 0.0) for b in buckets}
        out["cli.self_s"] = traced_wall - self.root_seconds()
        out.update({c: self.counts.get(c, 0) for c in COUNTS})
        pairings = self.counts.get("configmodel.pairings", 0)
        out["configmodel.simple_accept_ratio"] = (
            self.counts.get("configmodel.accepted", 0) / pairings if pairings else 0.0
        )
        busy = out["walks.simulate_s"] + out["walks.st_connectivity_s"]
        out["walks.busy_steps_per_s"] = out["walks.steps"] / busy if busy else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.spans"] = len(self.spans)
        return out
