"""Two traced runs of one input must give exactly equal per-layer counts.

Runs the short empty-road scenario through the CLI twice under the
benchmark's tracer.  Run with ``PYTHONPATH=src python -m pytest -q
perfbench``.
"""

from pathlib import Path

import layers

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "empty_road.json"


def traced_counts(out_dir, run_id):
    from lanempc import cli

    tracer = layers.Tracer(run_id)
    tracer.install()
    try:
        rc = cli.main(["run", "--scenario", str(SCENARIO), "--controller",
                       "integrated", "--out", str(out_dir)])
    finally:
        tracer.uninstall()
    assert rc == 0
    # Only the private validation hook may be missing (NOTES.md).
    assert set(tracer.absent) <= {"lanempc.dubins._validate"}
    written = sum(f.stat().st_size for f in out_dir.iterdir())
    return layers.counts(tracer.metrics(written))


def test_two_traced_runs_give_equal_counts(tmp_path):
    first = traced_counts(tmp_path / "a", 1)
    second = traced_counts(tmp_path / "b", 2)
    assert first == second
    # 6 s at 0.1 s: 61 logged steps, one solve each, 60 plant steps.
    assert first["harness.steps"] == 61
    assert first["mpc.solve_step.calls"] == 61
    assert first["dynamics.step.calls"] == 60


def test_uninstall_restores_every_site():
    import importlib

    from lanempc import kernels

    before = {(mod, attr): getattr(importlib.import_module(mod), attr, None)
              for mod, attr, _ in layers.PATCH_SITES}
    kernel = kernels.active().horizon_cost
    tracer = layers.Tracer(1)
    tracer.install()
    tracer.uninstall()
    after = {(mod, attr): getattr(importlib.import_module(mod), attr, None)
             for mod, attr, _ in layers.PATCH_SITES}
    assert after == before
    assert kernels.active().horizon_cost is kernel
