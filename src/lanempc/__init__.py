"""Integrated lane-change planning and tracking simulator.

A nonlinear bicycle-model plant, an arc-line lane-change reference path
builder, a receding-horizon controller that optimizes steering and rear
torque directly against a potential-field cost, a two-level baseline for
comparison, and a closed-loop scenario harness with CSV output.
"""

from .dynamics import (ControlInput, LowSpeedError, PlantFailureError,
                       VehicleParams, VehicleState, state_derivative, step)
from .dubins import (PathConstructionError, PathSegment, ReferencePath,
                     build_lane_change_path, min_turn_radius,
                     nearest_arclength, sample_reference)
from .harness import (Metrics, SimulationAborted, SimulationLog,
                      compute_metrics, run)
from .mpc import MpcConfig, SolveResult, reference_for_horizon, solve_step
from .optimize import BoxResult, minimize_box
from .scenario import (Obstacle, Rect, Road, Scenario,
                       min_obstacle_clearance, obstacle_boundary_at,
                       obstacle_pose_at, scenario_from_dict)

__version__ = "0.1.0"

__all__ = [
    "BoxResult", "ControlInput", "LowSpeedError", "Metrics", "MpcConfig",
    "Obstacle", "PathConstructionError", "PathSegment", "PlantFailureError",
    "Rect", "ReferencePath", "Road", "Scenario", "SimulationAborted",
    "SimulationLog", "SolveResult", "VehicleParams", "VehicleState",
    "build_lane_change_path", "compute_metrics", "min_obstacle_clearance",
    "min_turn_radius", "minimize_box", "nearest_arclength",
    "obstacle_boundary_at", "obstacle_pose_at", "reference_for_horizon",
    "run", "sample_reference", "scenario_from_dict", "solve_step",
    "state_derivative", "step",
]
