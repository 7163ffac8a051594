"""Per-layer tracing for the closed-loop benchmark, from outside the package.

The tracer wraps functions of each lanempc module at the place where the
caller looks the name up (``harness`` and ``mpc`` import most of them by
name; the kernel is fetched as ``kernels.active().horizon_cost`` on every
solve, so it is patched on the backend module).  Every wrapped call records
a span (name, start, end, parent span, run id) in memory; the spans are
written out once, after the measured runs.  A span's self time is its
duration minus the time its child spans cover.

``Tracer.metrics()`` turns one traced run into the per-layer metrics named
in NOTES.md.  Nothing in ``src/lanempc`` is changed.
"""

import gzip
import importlib
import statistics
import time
from array import array

# (module, attribute, span name).  A name patched in two modules shares one
# span name, so every call is counted once whichever caller made it.
PATCH_SITES = (
    ("lanempc.harness", "run", "harness.run"),
    ("lanempc.harness", "compute_metrics", "harness.compute_metrics"),
    ("lanempc.harness", "solve_step", "mpc.solve_step"),
    ("lanempc.harness", "build_lane_change_path",
     "dubins.build_lane_change_path"),
    ("lanempc.dubins", "build_lane_change_path",
     "dubins.build_lane_change_path"),
    ("lanempc.dubins", "_validate", "dubins._validate"),
    ("lanempc.harness", "reference_for_horizon",
     "dubins.reference_for_horizon"),
    ("lanempc.mpc", "reference_for_horizon", "dubins.reference_for_horizon"),
    ("lanempc.harness", "nearest_arclength", "dubins.nearest_arclength"),
    ("lanempc.dubins", "nearest_arclength", "dubins.nearest_arclength"),
    ("lanempc.harness", "min_obstacle_clearance",
     "scenario.min_obstacle_clearance"),
    ("lanempc.mpc", "minimize_box", "optimize.minimize_box"),
    ("lanempc.dynamics", "step", "dynamics.step"),
    ("lanempc.cli", "write_trajectory_csv", "cli.write"),
    ("lanempc.cli", "write_metrics_csv", "cli.write"),
    ("lanempc.cli", "write_path_csvs", "cli.write"),
)
KERNEL_SPAN = "kernels.horizon_cost"

# Calls whose return values the metrics read (SolveResult, BoxResult,
# SimulationLog).
_KEEP_RESULTS = ("mpc.solve_step", "optimize.minimize_box", "harness.run")

# Per-layer metrics: name -> unit.  The order is the order of the report.
PER_LAYER_UNITS = {
    "kernels.horizon_cost.calls": "count",
    "kernels.horizon_cost.s": "s",
    "kernels.horizon_cost.us_per_call": "us",
    "optimize.minimize_box.calls": "count",
    "optimize.minimize_box.self_s": "s",
    "optimize.n_eval_per_call": "count",
    "optimize.iterations_mean": "count",
    "optimize.iter_cap_hits": "count",
    "optimize.second_start_win_frac": "frac",
    "mpc.solve_step.calls": "count",
    "mpc.solve_step.s": "s",
    "mpc.solve_step.p50_ms": "ms",
    "mpc.solve_step.p99_ms": "ms",
    "mpc.n_eval_per_step": "count",
    "mpc.converged_frac": "frac",
    "mpc.fallback_count": "count",
    "dubins.build_lane_change_path.calls": "count",
    "dubins.build_lane_change_path.s": "s",
    "dubins.build_lane_change_path.failed": "count",
    "dubins._validate.s": "s",
    "dubins.reference_for_horizon.s": "s",
    "dubins.nearest_arclength.calls": "count",
    "dubins.nearest_arclength.s": "s",
    "harness.run.s": "s",
    "harness.compute_metrics.s": "s",
    "harness.steps": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "dynamics.step.calls": "count",
    "dynamics.step.s": "s",
    "scenario.min_obstacle_clearance.calls": "count",
    "scenario.min_obstacle_clearance.s": "s",
    "trace.overhead": "ratio",
}

# Counts that do not depend on the machine: two traced runs of one input
# must give exactly these values twice.
DETERMINISTIC_COUNTS = (
    "kernels.horizon_cost.calls",
    "optimize.minimize_box.calls",
    "optimize.iter_cap_hits",
    "optimize.iterations_mean",
    "mpc.solve_step.calls",
    "mpc.n_eval_per_step",
    "dubins.build_lane_change_path.calls",
    "dubins.build_lane_change_path.failed",
    "dubins.nearest_arclength.calls",
    "dynamics.step.calls",
    "scenario.min_obstacle_clearance.calls",
    "harness.steps",
)


def percentile(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Spans and per-name totals of one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # name -> [calls, total_s, self_s, raised]
        self.totals = {}
        # name -> [(span index, parent span index, kwargs, result)]
        self.results = {name: [] for name in _KEEP_RESULTS}
        self.absent = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        if name not in self.totals:
            self.totals[name] = [0, 0.0, 0.0, 0]
            self.names.append(name)
        name_id = self.names.index(name)
        total = self.totals[name]
        keep = self.results.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1][0] if stack else -1
            names.append(name_id)
            parents.append(parent)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                total[3] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[1]
            if keep is not None:
                keep.append((idx, parent, kwargs, result))
            return result

        return traced

    def install(self):
        """Patch every site; ``uninstall`` puts the originals back."""
        from lanempc import kernels

        sites = [(importlib.import_module(mod), attr, name)
                 for mod, attr, name in PATCH_SITES]
        sites.append((kernels.active(), "horizon_cost", KERNEL_SPAN))
        for module, attr, name in sites:
            if not hasattr(module, attr):
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _total(self, name, field):
        return self.totals.get(name, [0, 0.0, 0.0, 0])[field]

    def metrics(self, bytes_written):
        """Per-layer metrics of this run (``trace.overhead`` is left out:
        it needs an untraced run)."""
        def calls(name):
            return self._total(name, 0)

        def secs(name):
            return self._total(name, 1)

        m = {}
        k_calls = calls(KERNEL_SPAN)
        m["kernels.horizon_cost.calls"] = k_calls
        m["kernels.horizon_cost.s"] = secs(KERNEL_SPAN)
        m["kernels.horizon_cost.us_per_call"] = (
            secs(KERNEL_SPAN) / k_calls * 1e6 if k_calls else 0.0)

        boxes = self.results["optimize.minimize_box"]
        n_box = len(boxes)
        m["optimize.minimize_box.calls"] = calls("optimize.minimize_box")
        m["optimize.minimize_box.self_s"] = self._total(
            "optimize.minimize_box", 2)
        m["optimize.n_eval_per_call"] = (
            sum(r.n_eval for _, _, _, r in boxes) / n_box if n_box else 0.0)
        m["optimize.iterations_mean"] = (
            sum(r.iterations for _, _, _, r in boxes) / n_box
            if n_box else 0.0)
        m["optimize.iter_cap_hits"] = sum(
            1 for _, _, kw, r in boxes
            if "max_iter" in kw and r.iterations >= kw["max_iter"])
        # The zero-control start is the second minimize_box call under one
        # solve_step; it is useful when it beats the warm start.
        by_solve = {}
        for _, parent, _, r in boxes:
            by_solve.setdefault(parent, []).append(r)
        second = [rs for rs in by_solve.values() if len(rs) >= 2]
        m["optimize.second_start_win_frac"] = (
            sum(1 for rs in second if rs[1].fun < rs[0].fun) / len(second)
            if second else 0.0)

        solves = self.results["mpc.solve_step"]
        n_solve = len(solves)
        durs = [self.span_end[i] - self.span_start[i] for i, _, _, _ in solves]
        m["mpc.solve_step.calls"] = calls("mpc.solve_step")
        m["mpc.solve_step.s"] = secs("mpc.solve_step")
        m["mpc.solve_step.p50_ms"] = (
            percentile(durs, 50) * 1e3 if durs else 0.0)
        m["mpc.solve_step.p99_ms"] = (
            percentile(durs, 99) * 1e3 if durs else 0.0)
        m["mpc.n_eval_per_step"] = (
            sum(r.n_eval for _, _, _, r in solves) / n_solve
            if n_solve else 0.0)
        m["mpc.converged_frac"] = (
            sum(1 for _, _, _, r in solves if r.converged) / n_solve
            if n_solve else 0.0)
        m["mpc.fallback_count"] = sum(
            1 for _, _, _, r in solves if r.fallback)

        m["dubins.build_lane_change_path.calls"] = calls(
            "dubins.build_lane_change_path")
        m["dubins.build_lane_change_path.s"] = secs(
            "dubins.build_lane_change_path")
        m["dubins.build_lane_change_path.failed"] = self._total(
            "dubins.build_lane_change_path", 3)
        m["dubins._validate.s"] = secs("dubins._validate")
        m["dubins.reference_for_horizon.s"] = secs(
            "dubins.reference_for_horizon")
        m["dubins.nearest_arclength.calls"] = calls(
            "dubins.nearest_arclength")
        m["dubins.nearest_arclength.s"] = secs("dubins.nearest_arclength")

        m["harness.run.s"] = secs("harness.run")
        m["harness.compute_metrics.s"] = secs("harness.compute_metrics")
        m["harness.steps"] = sum(
            len(r.rows) for _, _, _, r in self.results["harness.run"])
        m["cli.write_s"] = secs("cli.write")
        m["cli.bytes_written"] = bytes_written
        m["dynamics.step.calls"] = calls("dynamics.step")
        m["dynamics.step.s"] = secs("dynamics.step")
        m["scenario.min_obstacle_clearance.calls"] = calls(
            "scenario.min_obstacle_clearance")
        m["scenario.min_obstacle_clearance.s"] = secs(
            "scenario.min_obstacle_clearance")
        return m


def counts(metrics):
    """The deterministic counts of one run's per-layer metrics."""
    return {name: metrics[name] for name in DETERMINISTIC_COUNTS}


def median_metrics(per_run):
    """Median of each per-layer metric over several traced runs (a value
    every run agrees on, such as a count, is kept as it is)."""
    out = {}
    for name, first in per_run[0].items():
        values = [m[name] for m in per_run]
        out[name] = (first if all(v == first for v in values)
                     else statistics.median(values))
    return out


def write_spans(path, tracers):
    """All spans of all traced runs as gzip CSV: run, span, parent, name,
    start and end (perf_counter seconds)."""
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        fh.write("run,span,parent,name,start_s,end_s\n")
        for tr in tracers:
            names = tr.names
            fh.writelines(
                f"{tr.run_id},{i},{p},{names[n]},{s!r},{e!r}\n"
                for i, (n, p, s, e) in enumerate(zip(
                    tr.span_name, tr.span_parent, tr.span_start,
                    tr.span_end)))
