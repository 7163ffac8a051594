"""Seeded closed-loop fuzz layouts: jittered copies of the shipped dynamic
three-vehicle scenario.

``layout(seed)`` draws from ``random.Random(seed)`` over
scenarios/dynamic_three_vehicle.json, in this order: per obstacle, x plus
U(-6, 6) m, initial_speed times U(0.7, 1.3) and target_speed times
U(0.85, 1.15); then the ego's vx times U(0.85, 1.15) and its y from
U(-0.3, 0.3).  The same seed always gives the same layout.

Run as a script, it sweeps a range of seeds with both controllers and
prints the counts quoted in ROADMAP.md.  With no arguments it sweeps seeds
1-300 (about 20 s) and compares the lines with tests/fuzz_summary.txt,
exiting 1 and naming each line that differs; given a range, it only prints:

    PYTHONPATH=src python tests/fuzz_layouts.py
    PYTHONPATH=src python tests/fuzz_layouts.py 1 60

A change that alters the summary on purpose regenerates the file (the
platform header of tests/output_digest.py, then the sweep's lines) and
gives the reason for each changed line.
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
SUMMARY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fuzz_summary.txt")


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
        return build_lane_change_path(scenario, params)
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
    """Both controllers on every planned layout of seeds first..last: the
    summary's lines."""
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
    lines = [f"seeds {first}-{last}: {planned} layouts planned, "
             f"{aborted} runs aborted, {off_road} runs off the road",
             f"integrated steps converged: {converged} of {steps}"]
    for controller, (clearance, seed) in sorted(lowest.items()):
        lines.append(f"{controller}: lowest clearance {clearance:.3f} m "
                     f"(seed {seed})")
    return lines


def summary_differences(lines, header):
    """One message per line of ``lines`` (seeds 1-300) that differs from
    tests/fuzz_summary.txt, plus a note when ``header`` names another
    platform; empty when they match."""
    with open(SUMMARY) as fh:
        golden_header, *expected = fh.read().splitlines()
    out = []
    for i in range(max(len(expected), len(lines))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = lines[i] if i < len(lines) else "<missing>"
        if want != got:
            out.append(f"line {i + 2}: summary {want!r}, now {got!r}")
    if out and golden_header != header:
        out.append(f"The summary was made on {golden_header[2:]!r} and this "
                   f"is {header[2:]!r}; it depends on the platform's libm, so "
                   "the platform may differ, not the code.")
    return out


if __name__ == "__main__":
    if len(sys.argv) > 2:
        print("\n".join(sweep(*map(int, sys.argv[1:3]))))
        sys.exit(0)
    from output_digest import platform_header

    lines = sweep(1, 300)
    print("\n".join(lines))
    differences = summary_differences(lines, platform_header())
    for message in differences:
        print(message, file=sys.stderr)
    sys.exit(1 if differences else 0)
