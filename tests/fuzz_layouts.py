"""Seeded closed-loop fuzz layouts: jittered copies of the shipped dynamic
three-vehicle scenario.

``layout(seed)`` draws from ``random.Random(seed)`` over
scenarios/dynamic_three_vehicle.json, in this order: per obstacle, x plus
U(-6, 6) m, initial_speed times U(0.7, 1.3) and target_speed times
U(0.85, 1.15); then the ego's vx times U(0.85, 1.15) and its y from
U(-0.3, 0.3).  The same seed always gives the same layout.

Run as a script, it sweeps a range of seeds with both controllers and
prints the counts quoted in ROADMAP.md (seeds 1-300 take about 20 s):

    PYTHONPATH=src python tests/fuzz_layouts.py 1 300
"""

import dataclasses
import json
import os
import random
import sys

from lanempc import MpcConfig, VehicleParams
from lanempc.dubins import PathConstructionError, build_lane_change_path
from lanempc.harness import SimulationAborted, run
from lanempc.scenario import Road, Scenario, scenario_from_dict

BASE = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                    "dynamic_three_vehicle.json")


def layout(seed):
    """The Scenario of one seed's jittered layout."""
    with open(BASE) as fh:
        doc = json.load(fh)
    rng = random.Random(seed)
    for ob in doc["obstacles"]:
        ob["x"] += rng.uniform(-6.0, 6.0)
        ob["initial_speed"] *= rng.uniform(0.7, 1.3)
        ob["target_speed"] *= rng.uniform(0.85, 1.15)
    doc["ego"]["vx"] *= rng.uniform(0.85, 1.15)
    doc["ego"]["y"] = rng.uniform(-0.3, 0.3)
    return scenario_from_dict(doc)


def mirrored(scenario):
    """The scenario reflected in y = 0."""
    road = scenario.road
    ego = scenario.ego_initial
    return Scenario(road=Road(lane_width=road.lane_width,
                              lower_boundary_y=-road.upper_boundary_y),
                    obstacles=tuple(dataclasses.replace(o, y0=-o.y0)
                                    for o in scenario.obstacles),
                    ego_initial=dataclasses.replace(ego, Y=-ego.Y),
                    duration=scenario.duration)


def planned_path(scenario, params):
    """The t=0 plan, or None when the planner refuses the layout."""
    try:
        return build_lane_change_path(scenario, scenario.ego_initial.vx,
                                      params)
    except PathConstructionError:
        return None


def mirror_deviation(log, mirror_log):
    """Largest difference between a log and the reflection of its mirrored
    run's log; 0.0 when the two are exact mirror images."""
    assert len(log.rows) == len(mirror_log.rows)
    worst = 0.0
    for a, b in zip(log.rows, mirror_log.rows):
        sa, sb = a.state, b.state
        worst = max(worst, abs(a.t - b.t),
                    abs(sa.vx - sb.vx), abs(sa.vy + sb.vy),
                    abs(sa.r + sb.r), abs(sa.X - sb.X), abs(sa.Y + sb.Y),
                    abs(sa.psi + sb.psi), abs(a.control[0] + b.control[0]),
                    abs(a.control[1] - b.control[1]), abs(a.cost - b.cost),
                    abs(a.ref_x - b.ref_x), abs(a.ref_y + b.ref_y),
                    abs(a.clearance - b.clearance),
                    float(a.converged != b.converged))
    return worst


def sweep(first, last):
    """Both controllers on every planned layout of seeds first..last."""
    params, cfg = VehicleParams(), MpcConfig()
    planned = aborted = steps = converged = off_road = 0
    lowest = {}
    for seed in range(first, last + 1):
        scenario = layout(seed)
        path = planned_path(scenario, params)
        if path is None:
            continue
        planned += 1
        road = scenario.road
        for controller in ("integrated", "two_level"):
            try:
                log = run(scenario, params, cfg, controller=controller,
                          path=path)
            except SimulationAborted:
                aborted += 1
                continue
            if controller == "integrated":
                steps += len(log.rows)
                converged += sum(row.converged for row in log.rows)
            off_road += any(not road.lower_boundary_y < row.state.Y
                            < road.upper_boundary_y for row in log.rows)
            clearance = min(row.clearance for row in log.rows)
            if clearance < lowest.get(controller, (float("inf"),))[0]:
                lowest[controller] = (clearance, seed)
    print(f"seeds {first}-{last}: {planned} layouts planned, "
          f"{aborted} runs aborted, {off_road} runs off the road")
    print(f"integrated steps converged: {converged} of {steps}")
    for controller, (clearance, seed) in sorted(lowest.items()):
        print(f"{controller}: lowest clearance {clearance:.3f} m "
              f"(seed {seed})")


if __name__ == "__main__":
    first, last = map(int, sys.argv[1:3]) if len(sys.argv) > 2 else (1, 300)
    sweep(first, last)
