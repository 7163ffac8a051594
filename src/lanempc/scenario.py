"""Road geometry, obstacle motion, and clearance queries.

A scenario is a straight two-boundary road, a list of obstacles that keep
their lane and follow a constant-acceleration ramp to a target speed, the
ego's initial state, and a duration.  Everything is immutable after
construction; all queries are pure.
"""

import math
from dataclasses import dataclass

from .dynamics import VehicleState


@dataclass(frozen=True)
class Road:
    """Straight road of n_lanes equal lanes between two y boundaries."""

    lane_width: float = 3.5
    n_lanes: int = 2
    lower_boundary_y: float = -1.75

    def __post_init__(self):
        if self.lane_width <= 0:
            raise ValueError(f"lane_width must be > 0, got {self.lane_width!r}")
        if self.n_lanes < 1:
            raise ValueError(f"n_lanes must be >= 1, got {self.n_lanes!r}")

    @property
    def upper_boundary_y(self):
        return self.lower_boundary_y + self.n_lanes * self.lane_width

    def centreline_y(self, lane):
        """Centreline y of lane index (0 = lowest)."""
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"lane {lane!r} outside 0..{self.n_lanes - 1}")
        return self.lower_boundary_y + (lane + 0.5) * self.lane_width


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle by corner coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def inflated(self, margin):
        return Rect(self.xmin - margin, self.ymin - margin,
                    self.xmax + margin, self.ymax + margin)


@dataclass(frozen=True)
class Obstacle:
    """Lane-keeping obstacle with a ramp speed profile.

    x0, y0: initial centre position (m); length/width: footprint (m);
    safety_gap: boundary inflation on all sides (m); speed ramps from
    initial_speed to target_speed at |acceleration| then holds.  An
    acceleration of 0 means constant initial_speed.
    """

    x0: float
    y0: float
    length: float = 4.0
    width: float = 1.8
    safety_gap: float = 0.5
    initial_speed: float = 0.0
    target_speed: float = 0.0
    acceleration: float = 0.0

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise ValueError("obstacle footprint must be positive")
        if self.safety_gap < 0:
            raise ValueError("safety_gap must be non-negative")
        if self.initial_speed < 0 or self.target_speed < 0:
            raise ValueError("obstacle speeds must be non-negative")
        if self.acceleration != 0.0:
            if (self.target_speed - self.initial_speed) * self.acceleration < 0:
                raise ValueError("acceleration sign must point from "
                                 "initial_speed toward target_speed")

    @property
    def is_moving(self):
        return self.initial_speed != 0.0 or (
            self.acceleration != 0.0 and self.target_speed != self.initial_speed)


@dataclass(frozen=True)
class Scenario:
    road: Road
    obstacles: tuple
    ego_initial: VehicleState
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        ego = self.ego_initial
        if not (self.road.lower_boundary_y < ego.Y < self.road.upper_boundary_y):
            raise ValueError(f"ego initial Y={ego.Y!r} outside road boundaries")
        if self.obstacles and min_obstacle_clearance(
                (ego.X, ego.Y), 0.0, self) <= 0.0:
            raise ValueError("an obstacle overlaps the ego's initial position")


def obstacle_pose_at(obstacle, t):
    """Obstacle centre (x, y) and speed at time t >= 0.

    x follows a constant-acceleration ramp from initial to target speed and
    is constant-speed afterwards; y never changes (obstacles keep their lane).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    v0 = obstacle.initial_speed
    vt = obstacle.target_speed
    a = obstacle.acceleration
    if a == 0.0:
        return obstacle.x0 + v0 * t, obstacle.y0, v0
    t_ramp = (vt - v0) / a
    if t <= t_ramp:
        return (obstacle.x0 + v0 * t + 0.5 * a * t * t, obstacle.y0,
                v0 + a * t)
    x_ramp = obstacle.x0 + v0 * t_ramp + 0.5 * a * t_ramp * t_ramp
    return x_ramp + vt * (t - t_ramp), obstacle.y0, vt


def obstacle_boundary_at(obstacle, t):
    """Inflated footprint rectangle (footprint grown by safety_gap) at t."""
    x, y, _ = obstacle_pose_at(obstacle, t)
    hx = 0.5 * obstacle.length + obstacle.safety_gap
    hy = 0.5 * obstacle.width + obstacle.safety_gap
    return Rect(x - hx, y - hy, x + hx, y + hy)


def rect_signed_distance(point, rect):
    """Signed distance from a point to a rectangle (negative inside)."""
    px, py = point
    dx = max(rect.xmin - px, 0.0, px - rect.xmax)
    dy = max(rect.ymin - py, 0.0, py - rect.ymax)
    if dx > 0.0 or dy > 0.0:
        return math.hypot(dx, dy)
    # Inside: negative depth to the nearest edge.
    return -min(px - rect.xmin, rect.xmax - px, py - rect.ymin, rect.ymax - py)


def min_obstacle_clearance(ego_xy, t, scenario):
    """Minimum signed distance from the ego centre point to any inflated
    obstacle rectangle at time t.  +inf with no obstacles."""
    best = math.inf
    for ob in scenario.obstacles:
        d = rect_signed_distance(ego_xy, obstacle_boundary_at(ob, t))
        if d < best:
            best = d
    return best


# -- config-document schema --------------------------------------------------

_ROAD_KEYS = {"lane_width", "n_lanes", "lower_boundary_y", "upper_boundary_y"}
_EGO_KEYS = {"x", "y", "psi", "vx", "vy", "r"}
_OBSTACLE_KEYS = {"x", "y", "length", "width", "safety_gap",
                  "initial_speed", "target_speed", "acceleration"}
_TOP_KEYS = {"road", "ego", "obstacles", "duration"}


class ScenarioSchemaError(ValueError):
    """A scenario document violates the schema; the message names the key."""


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ScenarioSchemaError(f"unknown key {key!r} in {where}")


def scenario_from_dict(doc):
    """Build a Scenario from a parsed config document (see README schema)."""
    if not isinstance(doc, dict):
        raise ScenarioSchemaError("scenario document must be a mapping")
    _check_keys(doc, _TOP_KEYS, "scenario")
    for required in ("road", "ego", "duration"):
        if required not in doc:
            raise ScenarioSchemaError(f"missing key {required!r} in scenario")

    road_doc = doc["road"]
    _check_keys(road_doc, _ROAD_KEYS, "road")
    road = Road(lane_width=float(road_doc.get("lane_width", 3.5)),
                n_lanes=int(road_doc.get("n_lanes", 2)),
                lower_boundary_y=float(road_doc.get("lower_boundary_y", -1.75)))
    if "upper_boundary_y" in road_doc:
        stated = float(road_doc["upper_boundary_y"])
        if abs(stated - road.upper_boundary_y) > 1e-9:
            raise ScenarioSchemaError(
                f"inconsistent key 'upper_boundary_y': {stated!r} != "
                f"lower + n_lanes * lane_width = {road.upper_boundary_y!r}")

    ego_doc = doc["ego"]
    _check_keys(ego_doc, _EGO_KEYS, "ego")
    ego = VehicleState(vx=float(ego_doc.get("vx", 10.0)),
                       vy=float(ego_doc.get("vy", 0.0)),
                       r=float(ego_doc.get("r", 0.0)),
                       X=float(ego_doc.get("x", 0.0)),
                       Y=float(ego_doc.get("y", 0.0)),
                       psi=float(ego_doc.get("psi", 0.0)))

    obstacles = []
    for i, ob_doc in enumerate(doc.get("obstacles", [])):
        _check_keys(ob_doc, _OBSTACLE_KEYS, f"obstacles[{i}]")
        for required in ("x", "y"):
            if required not in ob_doc:
                raise ScenarioSchemaError(
                    f"missing key {required!r} in obstacles[{i}]")
        obstacles.append(Obstacle(
            x0=float(ob_doc["x"]),
            y0=float(ob_doc["y"]),
            length=float(ob_doc.get("length", 4.0)),
            width=float(ob_doc.get("width", 1.8)),
            safety_gap=float(ob_doc.get("safety_gap", 0.5)),
            initial_speed=float(ob_doc.get("initial_speed", 0.0)),
            target_speed=float(ob_doc.get("target_speed", 0.0)),
            acceleration=float(ob_doc.get("acceleration", 0.0)),
        ))

    return Scenario(road=road, obstacles=tuple(obstacles), ego_initial=ego,
                    duration=float(doc["duration"]))
