import math

import pytest

from lanempc.dubins import (PathConstructionError, build_lane_change_path,
                            min_turn_radius, nearest_arclength,
                            sample_reference)
from lanempc.dynamics import VehicleState
from lanempc.mpc import reference_for_horizon
from lanempc.scenario import (Obstacle, Road, Scenario, obstacle_boundary_at,
                              rect_signed_distance)


def _samples(path, ds=0.05):
    n = max(2, int(path.total_length / ds))
    for i in range(n + 1):
        s = min(path.total_length, path.total_length * i / n)
        yield sample_reference(path, s)


class TestMinTurnRadius:
    def test_worked_value(self, params):
        assert min_turn_radius(10.0, params) == pytest.approx(
            100.0 / (0.5 * 9.81), abs=1e-12)

    def test_degenerate_zero_speed(self, params):
        assert min_turn_radius(0.0, params) == 0.0

    def test_quadratic_homogeneity(self, params):
        assert min_turn_radius(20.0, params) == pytest.approx(
            4.0 * min_turn_radius(10.0, params), rel=1e-12)


class TestConstruction:
    def test_no_obstacles_degenerates_to_centreline(self, params,
                                                    empty_scenario):
        path = build_lane_change_path(empty_scenario, params)
        assert len(path.segments) == 1
        assert path.segments[0].kind == "line"
        assert len(path.waypoints) == 2
        for _, y, heading, curvature in _samples(path, 0.5):
            assert y == 0.0 and heading == 0.0 and curvature == 0.0

    def test_arc_radii_match_turn_radius(self, params, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        R = min_turn_radius(10.0, params)
        arcs = [s for s in path.segments if s.kind == "arc"]
        assert arcs
        for arc in arcs:
            assert abs(arc.radius - R) <= 1e-6

    def test_joint_continuity(self, params, static_scenario):
        from lanempc.dubins import _sample_segment
        path = build_lane_change_path(static_scenario, params)
        for a, b in zip(path.segments, path.segments[1:]):
            xe, ye, he, _ = _sample_segment(a, a.length)
            xs, ys, hs, _ = _sample_segment(b, 0.0)
            assert math.hypot(xe - xs, ye - ys) < 1e-9
            assert abs(he - hs) < 1e-9

    def test_curvature_at_limit_and_lateral_extremum(self, params,
                                                     static_scenario):
        path = build_lane_change_path(static_scenario, params)
        R = min_turn_radius(10.0, params)
        max_curv = max(abs(c) for _, _, _, c in _samples(path))
        assert max_curv == pytest.approx(1.0 / R, rel=1e-12)
        max_y = max(y for _, y, _, _ in _samples(path))
        assert max_y == pytest.approx(3.5, abs=1e-9)

    def test_stays_inside_road(self, params, static_scenario):
        road = static_scenario.road
        path = build_lane_change_path(static_scenario, params)
        for _, y, _, _ in _samples(path):
            assert road.lower_boundary_y < y < road.upper_boundary_y

    def test_clears_inflated_obstacles(self, params, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        rects = [obstacle_boundary_at(ob, 0.0)
                 for ob in static_scenario.obstacles]
        for x, y, _, _ in _samples(path):
            for rect in rects:
                assert rect_signed_distance((x, y), rect) > 0.0

    def test_monotone_arclength_positions(self, params, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        prev_x = -1.0
        for x, _, _, _ in _samples(path):
            assert x > prev_x
            prev_x = x

    def test_waypoints_lie_on_path(self, params, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        for wx, wy in path.waypoints:
            _, dist = nearest_arclength(path, wx, wy)
            assert dist < 1e-9

    def test_mirrored_scenario_mirrors_exactly(self, params, static_scenario):
        sc = static_scenario
        mirrored = Scenario(
            road=Road(lane_width=3.5, lower_boundary_y=-5.25),
            obstacles=tuple(Obstacle(x0=o.x0, y0=-o.y0) for o in sc.obstacles),
            ego_initial=VehicleState(vx=10.0),
            duration=sc.duration)
        a = build_lane_change_path(sc, params)
        b = build_lane_change_path(mirrored, params)
        assert a.total_length == pytest.approx(b.total_length, abs=1e-9)
        n = 500
        for i in range(n + 1):
            s = min(a.total_length, a.total_length * i / n)
            xa, ya, ha, ca = sample_reference(a, s)
            xb, yb, hb, cb = sample_reference(b, min(b.total_length, s))
            assert xa == pytest.approx(xb, abs=1e-9)
            assert ya == pytest.approx(-yb, abs=1e-9)
            assert ha == pytest.approx(-hb, abs=1e-9)
            assert ca == pytest.approx(-cb, abs=1e-9)

    def test_close_obstacle_is_infeasible(self, params):
        sc = Scenario(road=Road(), obstacles=(Obstacle(x0=8.0, y0=0.0),),
                      ego_initial=VehicleState(vx=10.0), duration=5.0)
        with pytest.raises(PathConstructionError):
            build_lane_change_path(sc, params)

    def test_road_blocked_across_both_lanes(self, params):
        sc = Scenario(road=Road(),
                      obstacles=(Obstacle(x0=60.0, y0=1.75, width=4.0),),
                      ego_initial=VehicleState(vx=10.0), duration=5.0)
        with pytest.raises(PathConstructionError):
            build_lane_change_path(sc, params)

    @staticmethod
    def _slow_on_wide_lanes(lane_width, obstacles):
        """An ego at 2 m/s (turn radius 0.815 m) on lanes lane_width wide."""
        return Scenario(road=Road(lane_width=lane_width,
                                  lower_boundary_y=-0.5 * lane_width),
                        obstacles=obstacles,
                        ego_initial=VehicleState(vx=2.0), duration=8.0)

    def test_free_road_needs_no_swerve_geometry(self, params):
        # No lane change is planned, so none has to fit the 8 m lane.
        sc = self._slow_on_wide_lanes(8.0, ())
        path = build_lane_change_path(sc, params)
        assert [seg.kind for seg in path.segments] == ["line"]
        assert path.waypoints == ((0.0, 0.0), (path.total_length, 0.0))

    @pytest.mark.parametrize("lane_width", [8.0, 6.7],
                             ids=["arc_cannot_span", "turn_past_right_angle"])
    def test_swerve_too_wide_for_the_turn_radius(self, params, lane_width):
        # 8.0 m: no turn angle reaches the offset; 6.7 m: only one of at
        # least a right angle does.
        sc = self._slow_on_wide_lanes(lane_width,
                                      (Obstacle(x0=40.0, y0=0.0),))
        with pytest.raises(PathConstructionError,
                           match=f"turn radius 0.815 m too small for a "
                                 f"{lane_width:.3f} m lane offset"):
            build_lane_change_path(sc, params)

    def test_close_home_lane_pair_is_taken_as_one(self, params):
        # 12 m gap leaves no room to dip down and climb again at this radius.
        sc = Scenario(road=Road(),
                      obstacles=(Obstacle(x0=45.0, y0=0.0),
                                 Obstacle(x0=57.0, y0=0.0)),
                      ego_initial=VehicleState(vx=10.0), duration=12.0)
        path = build_lane_change_path(sc, params)
        for x, y, _, _ in _samples(path):
            if 45.0 <= x <= 57.0:
                assert y > 2.0  # stays out over the whole pair

    def test_rebuild_is_idempotent_for_static_obstacles(self, params,
                                                        static_scenario):
        a = build_lane_change_path(static_scenario, params)
        b = build_lane_change_path(static_scenario, params, at_time=3.0)
        assert a == b


class TestSampling:
    def test_endpoints(self, params, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        x0, y0, h0, _ = sample_reference(path, 0.0)
        assert (x0, y0) == path.waypoints[0]
        assert h0 == 0.0
        xe, ye, _, _ = sample_reference(path, path.total_length)
        assert (xe, ye) == pytest.approx(path.waypoints[-1], abs=1e-9)

    def test_mid_arc_curvature(self, params, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        R = min_turn_radius(10.0, params)
        first_arc = next(s for s in path.segments if s.kind == "arc")
        off = path.offsets[path.segments.index(first_arc)]
        _, _, _, c = sample_reference(path, off + 0.5 * first_arc.length)
        assert abs(c) == pytest.approx(1.0 / R, rel=1e-12)
        assert c == pytest.approx(first_arc.direction / R, rel=1e-12)

    def test_out_of_range_rejected(self, params, empty_scenario):
        path = build_lane_change_path(empty_scenario, params)
        with pytest.raises(ValueError):
            sample_reference(path, -0.5)
        with pytest.raises(ValueError):
            sample_reference(path, path.total_length + 0.5)


class TestHorizonReferences:
    def test_straight_line_spacing(self, params, empty_scenario):
        path = build_lane_change_path(empty_scenario, params)
        s0, _ = nearest_arclength(path, 20.0, 0.0)
        refs = reference_for_horizon(path, s0, 3, 0.1)
        assert refs == ((21.0, 0.0), (22.0, 0.0), (23.0, 0.0))

    def test_clamps_at_path_end(self, params, empty_scenario):
        path = build_lane_change_path(empty_scenario, params)
        end = path.waypoints[-1]
        s0, _ = nearest_arclength(path, *end)
        refs = reference_for_horizon(path, s0, 3, 0.1)
        for p in refs:
            assert p == pytest.approx(end, abs=1e-9)

    def test_matches_dense_marching_oracle_mid_arc(self, params,
                                                   static_scenario):
        # Oracle: dense scan for the nearest point, ternary refinement,
        # then arclength marching at the design pace.
        path = build_lane_change_path(static_scenario, params)
        first_arc = next(s for s in path.segments if s.kind == "arc")
        off = path.offsets[path.segments.index(first_arc)]
        s_mid = off + 0.4 * first_arc.length
        px, py, heading, _ = sample_reference(path, s_mid)
        # offset the ego a little off the path
        ego = VehicleState(vx=10.0, X=px - 0.3 * math.sin(heading),
                           Y=py + 0.3 * math.cos(heading))

        def dist(s):
            x, y, _, _ = sample_reference(path, s)
            return math.hypot(x - ego.X, y - ego.Y)

        n = int(path.total_length / 0.01)
        best = min(range(n + 1),
                   key=lambda i: dist(min(path.total_length,
                                          path.total_length * i / n)))
        lo = max(0.0, path.total_length * (best - 1) / n)
        hi = min(path.total_length, path.total_length * (best + 1) / n)
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if dist(m1) <= dist(m2):
                hi = m2
            else:
                lo = m1
        s0 = 0.5 * (lo + hi)
        found, _ = nearest_arclength(path, ego.X, ego.Y)
        refs = reference_for_horizon(path, found, 3, 0.1)
        for i, p in enumerate(refs, start=1):
            s = min(path.total_length, s0 + i * 0.1 * 10.0)
            x, y, _, _ = sample_reference(path, s)
            assert p == pytest.approx((x, y), abs=1e-6)
