import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanempc.dynamics import VehicleState
from lanempc.scenario import (Obstacle, Road, Scenario, ScenarioSchemaError,
                              min_obstacle_clearance, obstacle_boundary_at,
                              obstacle_pose_at, rect_signed_distance,
                              scenario_from_dict)


class TestRoad:
    def test_boundary_identity(self):
        road = Road(lane_width=3.5, lower_boundary_y=-1.75)
        assert road.upper_boundary_y == pytest.approx(
            road.lower_boundary_y + 2 * 3.5)
        assert road.centreline_y(0) == 0.0
        assert road.centreline_y(1) == 3.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Road(lane_width=0.0)
        with pytest.raises(ValueError):
            Road().centreline_y(2)

    @pytest.mark.parametrize("kwargs,named", [
        ({"lane_width": math.nan}, "Road.lane_width"),
        ({"lane_width": math.inf}, "Road.lane_width"),
        ({"lower_boundary_y": math.inf}, "Road.lower_boundary_y"),
        ({"lower_boundary_y": -math.inf}, "Road.lower_boundary_y"),
        ({"lane_width": 1e308}, "Road.upper_boundary_y"),
        ({"lane_width": True}, "Road.lane_width"),
    ])
    def test_nonfinite_value_is_refused_by_name(self, kwargs, named):
        with pytest.raises(ValueError, match=f"{named} must be finite"):
            Road(**kwargs)


class TestObstaclePose:
    def test_identity_at_zero(self):
        ob = Obstacle(x0=12.0, y0=3.5, initial_speed=4.0, target_speed=9.0,
                      acceleration=0.5)
        assert obstacle_pose_at(ob, 0.0) == (12.0, 3.5, 4.0)

    def test_ramp_then_hold(self):
        # ramp lasts 1 s, then 9 s at the target speed
        ob = Obstacle(x0=5.0, y0=0.0, initial_speed=10.0, target_speed=10.5,
                      acceleration=0.5)
        x, y, v = obstacle_pose_at(ob, 10.0)
        assert v == 10.5
        assert x == pytest.approx(5.0 + 10.0 * 1.0 + 0.5 * 0.5 * 1.0 + 10.5 * 9.0,
                                  rel=1e-12)
        assert y == 0.0

    def test_zero_acceleration_exact(self):
        ob = Obstacle(x0=7.0, y0=0.0, initial_speed=3.0, target_speed=9.0,
                      acceleration=0.0)
        assert obstacle_pose_at(ob, 4.0) == (7.0 + 3.0 * 4.0, 0.0, 3.0)

    def test_monotone_and_continuous(self):
        ob = Obstacle(x0=0.0, y0=0.0, initial_speed=2.0, target_speed=11.5,
                      acceleration=0.25)
        prev_x = -1.0
        prev_v = None
        for i in range(400):
            t = i * 0.25
            x, _, v = obstacle_pose_at(ob, t)
            assert x >= prev_x
            if prev_v is not None:
                assert abs(v - prev_v) <= 0.25 * 0.25 + 1e-12
            prev_x, prev_v = x, v

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            obstacle_pose_at(Obstacle(x0=0.0, y0=0.0), -1.0)


class TestObstacleBoundary:
    def test_inflation_arithmetic(self):
        ob = Obstacle(x0=50.0, y0=1.75, length=4.0, width=2.0, safety_gap=0.5)
        rect = obstacle_boundary_at(ob, 0.0)
        assert (rect.xmin, rect.xmax) == (47.5, 52.5)
        assert (rect.ymin, rect.ymax) == (0.25, 3.25)

    def test_zero_gap_equals_footprint(self):
        ob = Obstacle(x0=10.0, y0=0.0, length=4.0, width=1.8, safety_gap=0.0)
        rect = obstacle_boundary_at(ob, 0.0)
        assert (rect.xmin, rect.xmax) == (8.0, 12.0)
        assert (rect.ymin, rect.ymax) == (-0.9, 0.9)

    def test_deterministic(self):
        ob = Obstacle(x0=10.0, y0=0.0, initial_speed=3.0, target_speed=9.0,
                      acceleration=0.5)
        assert obstacle_boundary_at(ob, 2.5) == obstacle_boundary_at(ob, 2.5)

    def test_translates_by_speed_integral(self):
        ob = Obstacle(x0=0.0, y0=0.0, initial_speed=2.0, target_speed=8.0,
                      acceleration=0.5)
        r1 = obstacle_boundary_at(ob, 3.0)
        r2 = obstacle_boundary_at(ob, 3.5)
        x1, _, _ = obstacle_pose_at(ob, 3.0)
        x2, _, _ = obstacle_pose_at(ob, 3.5)
        assert r2.xmin - r1.xmin == pytest.approx(x2 - x1, rel=1e-12)
        assert r2.ymin == r1.ymin


def _scenario_with(obstacles):
    return Scenario(road=Road(), obstacles=tuple(obstacles),
                    ego_initial=VehicleState(vx=10.0), duration=5.0)


class TestClearance:
    def test_far_field_is_euclidean(self):
        sc = _scenario_with([Obstacle(x0=50.0, y0=0.0)])
        rect = obstacle_boundary_at(sc.obstacles[0], 0.0)
        d = min_obstacle_clearance((10.0, 0.5), 0.0, sc)
        assert d == pytest.approx(rect.xmin - 10.0, rel=1e-12)

    def test_corner_is_zero(self):
        sc = _scenario_with([Obstacle(x0=50.0, y0=0.0)])
        rect = obstacle_boundary_at(sc.obstacles[0], 0.0)
        assert min_obstacle_clearance((rect.xmin, rect.ymax), 0.0, sc) == 0.0

    def test_inside_matches_boundary_sampling(self):
        # Oracle: brute-force sampling of the rectangle perimeter.
        sc = _scenario_with([Obstacle(x0=50.0, y0=0.0)])
        rect = obstacle_boundary_at(sc.obstacles[0], 0.0)
        point = (49.2, 0.4)
        got = min_obstacle_clearance(point, 0.0, sc)
        assert got < 0.0
        per = []
        n = 20000
        for i in range(n + 1):
            f = i / n
            per.append((rect.xmin + f * (rect.xmax - rect.xmin), rect.ymin))
            per.append((rect.xmin + f * (rect.xmax - rect.xmin), rect.ymax))
            per.append((rect.xmin, rect.ymin + f * (rect.ymax - rect.ymin)))
            per.append((rect.xmax, rect.ymin + f * (rect.ymax - rect.ymin)))
        brute = min(math.hypot(px - point[0], py - point[1]) for px, py in per)
        assert abs(-got - brute) < 1e-6

    def test_empty_scenario_is_infinite(self):
        sc = _scenario_with([])
        assert min_obstacle_clearance((0.0, 0.0), 0.0, sc) == math.inf

    def test_minimum_over_obstacles(self):
        sc = _scenario_with([Obstacle(x0=50.0, y0=0.0),
                             Obstacle(x0=20.0, y0=3.5)])
        d = min_obstacle_clearance((10.0, 0.0), 0.0, sc)
        per = [rect_signed_distance((10.0, 0.0), obstacle_boundary_at(ob, 0.0))
               for ob in sc.obstacles]
        assert d == min(per)


@settings(max_examples=80, deadline=None)
@given(px=st.floats(0, 100), py=st.floats(-2, 6),
       qx=st.floats(0, 100), qy=st.floats(-2, 6))
def test_clearance_is_1_lipschitz(px, py, qx, qy):
    sc = _scenario_with([Obstacle(x0=50.0, y0=0.0), Obstacle(x0=70.0, y0=3.5)])
    a = min_obstacle_clearance((px, py), 1.0, sc)
    b = min_obstacle_clearance((qx, qy), 1.0, sc)
    assert abs(a - b) <= math.hypot(px - qx, py - qy) + 1e-12


class TestScenarioValidation:
    def test_ego_must_be_inside_road(self):
        with pytest.raises(ValueError):
            Scenario(road=Road(), obstacles=(),
                     ego_initial=VehicleState(vx=10.0, Y=9.0), duration=5.0)

    def test_obstacle_must_not_overlap_ego(self):
        with pytest.raises(ValueError):
            _scenario_with([Obstacle(x0=1.0, y0=0.0)])

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            Scenario(road=Road(), obstacles=(),
                     ego_initial=VehicleState(vx=10.0), duration=0.0)

    def test_nonfinite_duration_is_refused_by_name(self):
        for duration in (math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="Scenario.duration must be finite"):
                Scenario(road=Road(), obstacles=(),
                         ego_initial=VehicleState(vx=10.0), duration=duration)

    @pytest.mark.parametrize("kwargs,named", [
        ({"x0": math.nan}, "x0"),
        ({"y0": math.inf}, "y0"),
        ({"length": math.inf}, "length"),
        ({"width": math.nan}, "width"),
        ({"safety_gap": math.inf}, "safety_gap"),
        ({"initial_speed": math.inf}, "initial_speed"),
        ({"target_speed": math.nan}, "target_speed"),
        ({"acceleration": -math.inf}, "acceleration"),
        ({"x0": True}, "x0"),
    ])
    def test_nonfinite_obstacle_value_is_refused_by_name(self, kwargs, named):
        fields = {"x0": 30.0, "y0": 0.0, **kwargs}
        with pytest.raises(ValueError,
                           match=f"Obstacle.{named} must be finite"):
            Obstacle(**fields)

    @pytest.mark.parametrize("kwargs,message", [
        ({"length": 0.0}, "obstacle footprint must be positive"),
        ({"width": -1.0}, "obstacle footprint must be positive"),
        ({"safety_gap": -0.1}, "safety_gap must be non-negative"),
        ({"initial_speed": -1.0}, "obstacle speeds must be non-negative"),
    ])
    def test_obstacle_out_of_range_value_is_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Obstacle(x0=30.0, y0=0.0, **kwargs)

    def test_obstacle_speed_profile_consistency(self):
        with pytest.raises(ValueError):
            Obstacle(x0=0.0, y0=0.0, initial_speed=5.0, target_speed=2.0,
                     acceleration=0.5)


class TestSchema:
    def test_unknown_key_is_named(self):
        doc = {"road": {}, "ego": {}, "duration": 5.0, "typo_key": 1}
        with pytest.raises(ScenarioSchemaError, match="typo_key"):
            scenario_from_dict(doc)

    def test_unknown_obstacle_key_is_named(self):
        doc = {"road": {}, "ego": {}, "duration": 5.0,
               "obstacles": [{"x": 40.0, "y": 0.0, "speed": 3.0}]}
        with pytest.raises(ScenarioSchemaError, match="speed"):
            scenario_from_dict(doc)

    def test_missing_required_key(self):
        with pytest.raises(ScenarioSchemaError, match="duration"):
            scenario_from_dict({"road": {}, "ego": {}})

    @pytest.mark.parametrize("key", ["x", "y"])
    def test_obstacle_without_a_position_names_the_key(self, key):
        ob = {"x": 40.0, "y": 0.0}
        del ob[key]
        with pytest.raises(ScenarioSchemaError,
                           match=rf"missing key '{key}' in obstacles\[0\]"):
            scenario_from_dict(_doc(obstacles=[ob]))

    def test_inconsistent_upper_boundary(self):
        doc = {"road": {"upper_boundary_y": 9.0}, "ego": {}, "duration": 5.0}
        with pytest.raises(ScenarioSchemaError, match="upper_boundary_y"):
            scenario_from_dict(doc)


def _doc(**changes):
    return {"road": {}, "ego": {}, "duration": 5.0, **changes}


# (document, key the error must name); each failed with a traceback, ran,
# or was read silently before values were type-checked.
MALFORMED = {
    "null_value": (_doc(obstacles=[{"x": None, "y": 0.0}]), "'x'"),
    "list_value": (_doc(ego={"vx": [10.0]}), "'vx'"),
    "section_not_an_object": (_doc(road=[]), "'road'"),
    "nan_duration": (_doc(duration=math.nan), "'duration'"),
    "nan_obstacle_x": (_doc(obstacles=[{"x": math.nan, "y": 0.0}]), "'x'"),
    "obstacles_not_a_list": (_doc(obstacles={"x": 1}), "'obstacles'"),
    "obstacle_not_an_object": (_doc(obstacles=[7]), r"obstacles\[0\]"),
    "boolean_value": (_doc(ego={"vx": True}), "'vx'"),
    "string_value": (_doc(duration="abc"), "'duration'"),
    "infinite_value": (_doc(road={"upper_boundary_y": math.inf}),
                       "'upper_boundary_y'"),
    "integer_beyond_float_range": (_doc(duration=10 ** 400), "'duration'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_is_a_schema_error_naming_the_key(case):
    doc, key = MALFORMED[case]
    with pytest.raises(ScenarioSchemaError, match=key):
        scenario_from_dict(doc)
