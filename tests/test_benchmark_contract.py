"""The benchmark runner (perfbench/run.py) still reads what it needs from
the package: the kernel registry, the MpcConfig properties it passes on,
horizon_cost's positional signature, every function its tracer
(perfbench/layers.py) wraps, and the reference_path.csv its set-up timer
checks for.  A change that breaks any of them fails here
rather than only in a benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import lanempc
from lanempc import kernels

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling layers.py
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_environment_names_the_backends(bench):
    env = bench.environment(lanempc)
    assert env["lanempc_version"] == lanempc.__version__
    assert env["backend"] == kernels.backend_name()
    assert env["backends_available"] == list(kernels.available())


def test_host_reference_times_every_backend(bench):
    ref = bench.host_reference()
    assert set(ref) == set(kernels.available())
    for timing in ref.values():
        assert len(timing["batches_us"]) == bench.HOST_REF_BATCHES
        assert math.isfinite(timing["us_per_call"])
        assert timing["us_per_call"] > 0.0


def test_tracer_finds_every_site_of_a_dynamic_run(bench, tmp_path):
    # Two traced CLI runs of the dynamic scenario, which rebuilds its plan:
    # every wrapped function exists, and the counts repeat exactly.
    from lanempc import cli

    layers = bench.layers
    scenario = ROOT / "scenarios" / "dynamic_three_vehicle.json"
    counts = []
    for run_id in (1, 2):
        out = tmp_path / str(run_id)
        tracer = layers.Tracer(run_id)
        tracer.install()
        try:
            rc = cli.main(["run", "--scenario", str(scenario), "--controller",
                           "integrated", "--out", str(out)])
        finally:
            tracer.uninstall()
        assert rc == 0
        assert tracer.absent == []
        written = sum(f.stat().st_size for f in out.iterdir())
        counts.append(layers.counts(tracer.metrics(written)))
    assert counts[0] == counts[1]
    assert counts[0]["harness.steps"] == 151
    assert counts[0]["dubins.build_lane_change_path.calls"] == 71


def test_setup_timer_reads_the_path_csv(bench, tmp_path):
    # SetupTimer.sample is the benchmark's only reader of reference_path.csv:
    # a fresh --dump-path interpreter on a jittered dynamic scenario.
    from lanempc.mpc import MpcConfig

    inp = bench.Input(tmp_path, "dynamic_three_vehicle.json", 1,
                      MpcConfig().dt)
    timer = bench.SetupTimer("integrated", tmp_path)
    timer.sample(inp)
    assert len(timer.times) == 1
