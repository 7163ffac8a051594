"""The benchmark runner (perfbench/run.py) still reads what it needs from
the package: the kernel registry, the MpcConfig properties it passes on,
and horizon_cost's positional signature.  A change that breaks any of them
fails here rather than only in a benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import lanempc
from lanempc import kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
