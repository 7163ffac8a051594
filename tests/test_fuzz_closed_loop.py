"""Closed-loop runs of a few fuzzed layouts (tests/fuzz_layouts.py), both
controllers: the seeds with the lowest clearances of either controller
(67, 225) and the solves nearest to stopping short of the tolerance
(224, 291)."""

import pytest

from lanempc.harness import run

from fuzz_layouts import layout, mirror_deviation, mirrored, planned_path


@pytest.mark.parametrize("controller", ["integrated", "two_level"])
@pytest.mark.parametrize("seed", [67, 224, 225, 291])
def test_fuzzed_layout_closed_loop(params, cfg, seed, controller):
    scenario = layout(seed)
    path = planned_path(scenario, params)
    assert path is not None, "the planner accepts this layout at t=0"
    log = run(scenario, params, cfg, controller=controller, path=path)
    road = scenario.road
    for row in log.rows:
        assert row.clearance > 0.0, (row.t, row.clearance)
        assert road.lower_boundary_y < row.state.Y < road.upper_boundary_y
        if controller == "integrated":
            assert row.converged, row.t
    assert run(scenario, params, cfg, controller=controller) == log
    mirror_log = run(mirrored(scenario), params, cfg, controller=controller)
    assert mirror_deviation(log, mirror_log) == 0.0
