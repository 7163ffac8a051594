#!/usr/bin/env python3
"""Closed-loop scenario benchmark for lanempc.

    python3 perfbench/run.py --workload static-mpc --seed 0 --seconds 30 \
        --trace 0

Runs the shipped scenarios through the public CLI entry point,
``lanempc.cli.main(["run", ...])``, in this process: one run at a time, one
client, no extra threads or workers.  Each run's outputs are checked.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced runs with traced runs that wrap each layer's functions
from outside the package (see layers.py) and reports the per-layer metrics.
``--workload all`` runs every workload in turn.  Workloads, metrics and
which layer should move which metric are described in NOTES.md.

A human-readable report goes to standard output, a result file with the
environment, the host-speed reference and every run to perfbench/out/, and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# workload -> (scenario file, controller, scenarios per seed).  Each
# seed runs several jittered scenarios: on static-mpc the median step
# latency of one scenario moves by a fifth between seeds (the share of
# steps that stop at the solver's iteration cap changes with the jitter),
# and dynamic-baseline's clearance is bimodal over the jitter.  A run of
# dynamic-baseline takes about a tenth of an MPC run, so it takes more.
WORKLOADS = {
    "static-mpc": ("static_three_vehicle.json", "integrated", 3),
    "dynamic-mpc": ("dynamic_three_vehicle.json", "integrated", 3),
    "dynamic-baseline": ("dynamic_three_vehicle.json", "two_level", 8),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "mean_cost": "1",
    "min_clearance_m": "m",
    "yaw_smoothness": "rad2/s3",
}

# Fresh interpreters timed per invocation for setup_s (median reported),
# spread evenly over the measured time.
SETUP_REPEATS = 11
# Fixed-argument kernel timing used as the host-speed reference: the state,
# controls and references of benchmarks/bench_backends.py's time_kernel.
HOST_REF_BATCHES = 5
HOST_REF_CALLS = 4000
HOST_REF_STATE = (10.0, 0.1, 0.05, 30.0, 0.4, 0.02)
HOST_REF_CONTROLS = [0.05, 50.0, -0.02, -20.0, 0.01, 10.0]
HOST_REF_REFS = (31.0, 0.5, 32.0, 0.7, 33.0, 1.0)


class BenchError(Exception):
    """The benchmark cannot measure (missing sources, broken set-up)."""


def import_lanempc():
    src = ROOT / "src"
    if not (src / "lanempc" / "__init__.py").is_file():
        raise BenchError(f"no lanempc sources under {src}")
    sys.path.insert(0, str(src))
    import lanempc.cli  # noqa: F401  (registers every submodule)

    return sys.modules["lanempc"]


class Input:
    """One scenario file the runs use, made from a scenario seed."""

    def __init__(self, work, name, scenario_seed, dt):
        doc, self.jitter = scenario_doc(name, scenario_seed)
        self.seed = scenario_seed
        self.path = work / f"scenario_{scenario_seed}.json"
        self.path.write_text(json.dumps(doc, indent=1))
        self.n_rows = int(round(doc["duration"] / dt)) + 1


def scenario_doc(name, seed):
    """A scenario: seed 0 is the shipped file unchanged; any other seed
    shifts the whole obstacle set along x by U(-3, 3) m, sets
    ego y to U(-0.2, 0.2) m and scales ego vx by U(0.97, 1.03)."""
    with open(ROOT / "scenarios" / name) as fh:
        doc = json.load(fh)
    jitter = None
    if seed != 0:
        rng = random.Random(seed)
        dx = rng.uniform(-3.0, 3.0)
        y0 = rng.uniform(-0.2, 0.2)
        scale = rng.uniform(0.97, 1.03)
        for ob in doc["obstacles"]:
            ob["x"] += dx
        doc["ego"]["y"] = y0
        doc["ego"]["vx"] *= scale
        jitter = {"obstacle_dx_m": dx, "ego_y_m": y0, "ego_vx_scale": scale}
    return doc, jitter


def environment(lanempc):
    from lanempc import kernels

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "lanempc_version": lanempc.__version__,
        "backend": kernels.backend_name(),
        "backends_available": list(kernels.available()),
        "LANEMPC_PURE_PY_set": bool(os.environ.get("LANEMPC_PURE_PY")),
    }


def host_reference():
    """Microseconds per fixed-argument horizon_cost call, per backend
    (median of batches).  Reported, never gated."""
    from lanempc import MpcConfig, VehicleParams, kernels

    p, cfg = VehicleParams(), MpcConfig()
    args = (*HOST_REF_STATE, HOST_REF_CONTROLS, p.m, p.Iz, p.lf, p.lr,
            p.Caf, p.Car, p.Rw, cfg.dt, cfg.yaw_div_m, HOST_REF_REFS,
            5.25, -1.75, cfg.a1, cfg.b1, cfg.b2, cfg.b3, cfg.diff_code,
            (), 0.0)
    out = {}
    for name in kernels.available():
        fn = kernels.get(name).horizon_cost
        fn(*args)
        batches = []
        for _ in range(HOST_REF_BATCHES):
            t0 = time.perf_counter()
            for _ in range(HOST_REF_CALLS):
                fn(*args)
            batches.append((time.perf_counter() - t0) / HOST_REF_CALLS * 1e6)
        out[name] = {"us_per_call": statistics.median(batches),
                     "batches_us": batches}
    return out


class SetupTimer:
    """Wall time of a fresh ``python -m lanempc.cli run --dump-path``
    (import, parse, first plan, path CSVs), one interpreter at a time."""

    def __init__(self, controller, work):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.controller = controller
        self.out_dir = work / "setup"
        self.times = []

    def sample(self, inp):
        cmd = [sys.executable, "-m", "lanempc.cli", "run", "--scenario",
               str(inp.path), "--controller", self.controller,
               "--dump-path", "--out", str(self.out_dir)]
        clear_dir(self.out_dir)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        self.times.append(time.perf_counter() - t0)
        if (proc.returncode != 0
                or not (self.out_dir / "reference_path.csv").is_file()):
            raise BenchError(f"set-up run failed ({proc.returncode}): "
                             f"{proc.stderr.strip()}")


def clear_dir(path):
    path.mkdir(parents=True, exist_ok=True)
    for f in path.iterdir():
        f.unlink()


def check_outputs(out_dir, controller, rc, n_rows):
    """Output checks of one run; returns (failure reason or None, facts)."""
    facts = {"rc": rc}
    traj = out_dir / f"trajectory_{controller}.csv"
    metrics = out_dir / f"metrics_{controller}.csv"
    if not traj.is_file():
        return "no trajectory CSV", facts
    data = traj.read_bytes()
    facts["trajectory_sha256"] = hashlib.sha256(data).hexdigest()
    try:
        header, *lines = data.decode().splitlines()
        j_col = header.split(",").index("J")
        rows = [[float(c) for c in line.split(",")] for line in lines]
        if metrics.is_file():
            with open(metrics) as fh:
                summary = dict(zip(fh.readline().strip().split(","),
                                   map(float, fh.readline().split(","))))
            facts["mean_cost"] = statistics.fmean(r[j_col] for r in rows)
            facts["min_clearance_m"] = summary["min_clearance"]
            facts["yaw_smoothness"] = summary["yaw_smoothness"]
    except (ValueError, KeyError) as exc:
        return f"unreadable output CSV: {exc!r}", facts
    if rc != 0:
        return f"exit code {rc}", facts
    if len(rows) != n_rows:
        return f"trajectory has {len(rows)} rows, expected {n_rows}", facts
    if not all(math.isfinite(c) for r in rows for c in r):
        return "non-finite trajectory cell", facts
    if not metrics.is_file():
        return "no metrics CSV", facts
    return None, facts


def cli_run(cli, scenario_path, controller, out_dir):
    """One ``lanempc run`` through cli.main; returns (exit code, seconds,
    captured output)."""
    clear_dir(out_dir)
    gc.collect()
    argv = ["run", "--scenario", str(scenario_path), "--controller",
            controller, "--out", str(out_dir)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, buf.getvalue()


class StepStamps:
    """One perf_counter stamp per plant step (``lanempc.dynamics.step``,
    looked up by harness as ``dynamics.step``)."""

    def __init__(self, dynamics):
        self.dynamics = dynamics
        self.original = dynamics.step
        self.stamps = []

    def __enter__(self):
        stamps, step, clock = self.stamps, self.original, time.perf_counter

        def stamped(*args, **kwargs):
            stamps.append(clock())
            return step(*args, **kwargs)

        self.dynamics.step = stamped
        return self

    def __exit__(self, *exc):
        self.dynamics.step = self.original

    def intervals_ms(self):
        s = self.stamps
        return [(b - a) * 1e3 for a, b in zip(s, s[1:])]


def stamp_overhead_us(dynamics, n=20000):
    """Added cost of one stamp: a stamped no-op call minus a plain one."""
    def noop(*args, **kwargs):
        return None

    saved = dynamics.step
    dynamics.step = noop
    try:
        with StepStamps(dynamics):
            stamped = dynamics.step
            t0 = time.perf_counter()
            for _ in range(n):
                stamped(0)
            t_stamped = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            noop(0)
        t_plain = time.perf_counter() - t0
    finally:
        dynamics.step = saved
    return max(0.0, t_stamped - t_plain) / n * 1e6


def checked_run(cli, inp, controller, out_dir):
    """One run of one input plus its output checks."""
    rc, elapsed, output = cli_run(cli, inp.path, controller, out_dir)
    reason, facts = check_outputs(out_dir, controller, rc, inp.n_rows)
    facts.update(scenario_seed=inp.seed, run_s=elapsed, failure=reason,
                 output=output if reason else "")
    return facts


def measure(cli, work, inputs, controller, seconds):
    """Untraced runs cycling through the inputs for `seconds`: every input
    once, then the first again (its trajectory hash is compared), then on
    while the next run is expected to end in time.  The SETUP_REPEATS
    set-up timings are spread evenly over the same time.  Returns the runs,
    each input's step latencies per run (ms) and the set-up timer."""
    from lanempc import dynamics

    out_dir = work / "run"
    setup = SetupTimer(controller, work)
    runs, steps = [], {inp.seed: [] for inp in inputs}
    last_s = {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while (len(setup.times) < SETUP_REPEATS
               and len(setup.times) * seconds / SETUP_REPEATS <= elapsed):
            setup.sample(inputs[len(setup.times) % len(inputs)])
        inp = inputs[len(runs) % len(inputs)]
        if (len(runs) > len(inputs) and elapsed
                + last_s.get(inp.seed, statistics.median(last_s.values()))
                > seconds):
            break
        with StepStamps(dynamics) as st:
            runs.append(checked_run(cli, inp, controller, out_dir))
        steps[inp.seed].append(st.intervals_ms())
        last_s[inp.seed] = runs[-1]["run_s"]
    while len(setup.times) < SETUP_REPEATS:
        setup.sample(inputs[len(setup.times) % len(inputs)])
    return runs, steps, setup


def summarize_quality(runs):
    """Quality metrics of each input (the same in all its runs), averaged
    over the inputs."""
    per_input = {}
    for r in runs:
        if "mean_cost" in r:
            per_input.setdefault(r["scenario_seed"], r)
    return {k: (statistics.fmean(r[k] for r in per_input.values())
                if per_input else None)
            for k in ("mean_cost", "min_clearance_m", "yaw_smoothness")}


def hash_failures(runs):
    """A message for each run whose trajectory hash differs from the first
    run of the same input (same input, same code: they must be equal)."""
    first, problems = {}, []
    for i, r in enumerate(runs):
        h = r.get("trajectory_sha256")
        ref = first.setdefault(r["scenario_seed"], h)
        if h != ref:
            problems.append(f"run {i} (scenario seed {r['scenario_seed']}): "
                            f"trajectory hash {h} != {ref}")
    return problems


def bench_untraced(lanempc, workload, seed, seconds, work, inputs):
    controller = WORKLOADS[workload][1]
    runs, steps, setup = measure(lanempc.cli, work, inputs, controller,
                                 seconds)
    pooled = [v for per_run in steps.values() for run in per_run for v in run]
    failed = sum(1 for r in runs if r["failure"])
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "step_ms.p50": layers.percentile(pooled, 50),
        "step_ms.p99": layers.percentile(pooled, 99),
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / len(runs),
        **summarize_quality(runs),
    }
    stamp_us = stamp_overhead_us(lanempc.dynamics)
    extra = {
        "fail_frac": failed / len(runs),
        "step_samples": len(pooled),
        "stamp_overhead_us": stamp_us,
        "stamp_overhead_frac_of_step_p50": stamp_us / 1e3
        / metrics["step_ms.p50"],
        "setup_times_s": setup.times,
        "step_intervals_ms": steps,
    }
    return metrics, END_TO_END_UNITS, runs, extra, hash_failures(runs)


def bench_traced(lanempc, workload, seed, seconds, work, inputs):
    """Pairs of one untraced and one traced run of the first input, for
    `seconds` and at least two pairs."""
    controller = WORKLOADS[workload][1]
    inp = inputs[0]
    out_dir = work / "run"
    start = time.perf_counter()
    runs, tracers, per_run = [], [], []
    while True:
        pair_start = time.perf_counter()
        runs.append(dict(checked_run(lanempc.cli, inp, controller, out_dir),
                         traced=False))
        tracer = layers.Tracer(run_id=len(tracers) + 1)
        tracer.install()
        try:
            facts = checked_run(lanempc.cli, inp, controller, out_dir)
        finally:
            tracer.uninstall()
        runs.append(dict(facts, traced=True))
        tracers.append(tracer)
        per_run.append(tracer.metrics(
            sum(f.stat().st_size for f in out_dir.iterdir())))
        now = time.perf_counter()
        if len(tracers) >= 2 and now - start + (now - pair_start) > seconds:
            break
    problems = hash_failures(runs)
    first = layers.counts(per_run[0])
    for i, m in enumerate(per_run[1:], start=2):
        if layers.counts(m) != first:
            problems.append(f"traced run {i}: counts {layers.counts(m)} "
                            f"!= run 1 {first}")
    metrics = layers.median_metrics(per_run)
    untraced_s = statistics.median(r["run_s"] for r in runs
                                   if not r["traced"])
    metrics["trace.overhead"] = statistics.median(
        r["run_s"] for r in runs if r["traced"]) / untraced_s
    spans_path = OUT / f"spans_{workload}_seed{seed}.csv.gz"
    layers.write_spans(spans_path, tracers)
    extra = {
        "untraced_run_s": untraced_s,
        "traced_runs": len(tracers),
        "per_run": per_run,
        "absent_hooks": tracers[0].absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": sum(len(t.span_start) for t in tracers),
    }
    return metrics, layers.PER_LAYER_UNITS, runs, extra, problems


def bench(lanempc, env, workload, seed, seconds, trace):
    scenario_name, controller, per_seed = WORKLOADS[workload]
    work = OUT / f"work_{workload}"
    work.mkdir(parents=True, exist_ok=True)
    dt = lanempc.MpcConfig().dt
    inputs = [Input(work, scenario_name, seed * per_seed + i, dt)
              for i in range(per_seed)]

    host_before = host_reference()
    fn = bench_traced if trace else bench_untraced
    metrics, units, runs, extra, problems = fn(
        lanempc, workload, seed, seconds, work, inputs)
    host_after = host_reference()

    failed = sum(1 for r in runs if r["failure"])
    hashes = {}
    for r in runs:
        hashes.setdefault(f"{workload}/{controller}/seed{r['scenario_seed']}",
                          r.get("trajectory_sha256"))
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "scenario": scenario_name, "controller": controller,
        "inputs": [{"scenario_seed": i.seed, "jitter": i.jitter}
                   for i in inputs],
        "environment": env,
        "host_reference_before": host_before,
        "host_reference_after": host_after,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "trajectory_sha256": hashes,
        "problems": problems, "runs": runs, **extra,
    }
    (OUT / f"result_{workload}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record, failed, len(runs)


def report(record):
    ref = ", ".join(f"{k} {v['us_per_call']:.3f} us"
                    for k, v in record["host_reference_before"].items())
    env = record["environment"]
    print(f"== {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {len(record['runs'])} runs, "
          f"backend {env['backend']}, host ref {ref}")
    for name, m in record["metrics"].items():
        value = m["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {text:>14s} {m['unit']}")
    if "fail_frac" in record:
        print(f"  {'fail_frac':40s} {record['fail_frac']:>14.6g} frac")
        print(f"  step stamp overhead {record['stamp_overhead_us']:.3f} us "
              f"= {record['stamp_overhead_frac_of_step_p50']:.2e} of "
              f"step_ms.p50 ({record['step_samples']} step samples)")
    else:
        print(f"  {record['spans']} spans in {record['spans_file']}")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")
    for i, r in enumerate(record["runs"]):
        if r["failure"]:
            print(f"  FAILED run {i}: {r['failure']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        lanempc = import_lanempc()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(lanempc)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            record, failed, attempted = bench(
                lanempc, env, workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        report(record)
        result["attempted"] += attempted
        result["failed"] += failed
        result["correct"] &= not failed and not record["problems"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, m in record["metrics"].items():
            value = m["value"]
            if value is not None and not math.isfinite(value):
                value = None  # keep the result line strict JSON
            result["metrics"][prefix + name] = {"value": value,
                                                "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
