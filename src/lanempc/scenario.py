"""Road geometry, obstacle motion, and clearance queries.

A scenario is a straight two-lane road, a list of obstacles that keep
their lane and follow a constant-acceleration ramp to a target speed, the
ego's initial state, and a duration.  Everything is immutable after
construction; all queries are pure.
"""

import math
from dataclasses import dataclass

from .dynamics import VehicleState


def _require_finite(obj, names):
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite,"
                             f" got {value!r}")


@dataclass(frozen=True)
class Road:
    """Straight two-lane road: lanes 0 (lower) and 1 (upper), each
    lane_width wide, between the boundary lines y = lower_boundary_y and
    y = upper_boundary_y."""

    lane_width: float = 3.5
    lower_boundary_y: float = -1.75

    def __post_init__(self):
        _require_finite(self, ("lane_width", "lower_boundary_y",
                               "upper_boundary_y"))
        if self.lane_width <= 0:
            raise ValueError(f"lane_width must be > 0, got {self.lane_width!r}")

    @property
    def upper_boundary_y(self):
        return self.lower_boundary_y + 2 * self.lane_width

    def centreline_y(self, lane):
        """Centreline y of lane 0 (lower) or 1 (upper)."""
        if not 0 <= lane < 2:
            raise ValueError(f"lane {lane!r} outside 0..1")
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
        _require_finite(self, ("x0", "y0", "length", "width", "safety_gap",
                               "initial_speed", "target_speed",
                               "acceleration"))
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
        _require_finite(self, ("duration",))
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

# Document key -> dataclass field, per section; keys a document leaves out
# take the dataclass defaults.  The road's "n_lanes" and "upper_boundary_y"
# restate what Road fixes or derives, so they are checked, not stored.
_ROAD_FIELDS = {k: k for k in ("lane_width", "lower_boundary_y")}
_EGO_FIELDS = {"x": "X", "y": "Y", "psi": "psi", "vx": "vx", "vy": "vy",
               "r": "r"}
_OBSTACLE_FIELDS = {"x": "x0", "y": "y0", **{k: k for k in (
    "length", "width", "safety_gap", "initial_speed", "target_speed",
    "acceleration")}}
_TOP_KEYS = {"road", "ego", "obstacles", "duration"}


class ScenarioSchemaError(ValueError):
    """A scenario document violates the schema; the message names the key."""


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ScenarioSchemaError(f"unknown key {key!r} in {where}")


def _object(value, where):
    if not isinstance(value, dict):
        raise ScenarioSchemaError(
            f"{where} must be an object, got {type(value).__name__}")
    return value


def _number(value, key, where):
    """value as a float, if it is a finite JSON number (not a boolean)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ScenarioSchemaError(
        f"key {key!r} in {where} must be a finite number, got {value!r}")


def _fields(mapping, table, where):
    """Keyword arguments, as floats, for the fields that ``table`` maps the
    keys present in ``mapping`` to."""
    return {table[key]: _number(value, key, where)
            for key, value in mapping.items() if key in table}


def scenario_from_dict(doc):
    """Build a Scenario from a parsed config document (see README schema)."""
    _object(doc, "scenario document")
    _check_keys(doc, _TOP_KEYS, "scenario")
    for required in ("road", "ego", "duration"):
        if required not in doc:
            raise ScenarioSchemaError(f"missing key {required!r} in scenario")

    road_doc = _object(doc["road"], "key 'road' in scenario")
    _check_keys(road_doc, {*_ROAD_FIELDS, "n_lanes", "upper_boundary_y"},
                "road")
    if road_doc.get("n_lanes", 2) != 2:
        raise ScenarioSchemaError(
            f"unsupported key 'n_lanes': {road_doc['n_lanes']!r}; a road "
            f"has exactly 2 lanes")
    road = Road(**_fields(road_doc, _ROAD_FIELDS, "road"))
    if "upper_boundary_y" in road_doc:
        stated = _number(road_doc["upper_boundary_y"], "upper_boundary_y",
                         "road")
        if abs(stated - road.upper_boundary_y) > 1e-9:
            raise ScenarioSchemaError(
                f"inconsistent key 'upper_boundary_y': {stated!r} != "
                f"lower + n_lanes * lane_width = {road.upper_boundary_y!r}")

    ego_doc = _object(doc["ego"], "key 'ego' in scenario")
    _check_keys(ego_doc, _EGO_FIELDS, "ego")
    ego = VehicleState(**{"vx": 10.0, **_fields(ego_doc, _EGO_FIELDS, "ego")})

    obstacle_docs = doc.get("obstacles", [])
    if not isinstance(obstacle_docs, list):
        raise ScenarioSchemaError(
            f"key 'obstacles' in scenario must be a list, got "
            f"{type(obstacle_docs).__name__}")
    obstacles = []
    for i, ob_doc in enumerate(obstacle_docs):
        where = f"obstacles[{i}]"
        _check_keys(_object(ob_doc, where), _OBSTACLE_FIELDS, where)
        for required in ("x", "y"):
            if required not in ob_doc:
                raise ScenarioSchemaError(
                    f"missing key {required!r} in {where}")
        obstacles.append(Obstacle(**_fields(ob_doc, _OBSTACLE_FIELDS, where)))

    return Scenario(road=road, obstacles=tuple(obstacles), ego_initial=ego,
                    duration=_number(doc["duration"], "duration", "scenario"))
