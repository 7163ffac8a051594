"""Exact path validation against a dense-sweep oracle, and planner fuzzing.

``dubins._validate`` decides penetration from each segment's critical
arclengths.  The oracle here is the dense sweep it replaced: sample the path
every ``ds`` metres and test each sample.  The exact check must agree with
the oracle wherever the oracle is fine enough to see, and must also catch
what falls between the oracle's samples.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lanempc import dubins
from lanempc.dubins import (DEFAULT_CORNER_MARGIN, PathConstructionError,
                            PathSegment, ReferencePath,
                            build_lane_change_path, sample_reference)
from lanempc.dynamics import VehicleState
from lanempc.harness import run
from lanempc.scenario import (Obstacle, Rect, Road, Scenario,
                              obstacle_boundary_at, rect_signed_distance)

from fuzz_layouts import mirrored
from loop_reference import nearest_arclength as loop_nearest_arclength

# Sample spacing (m) of the sweep the exact check replaced.
OLD_DS = 0.05


def _dense_validate(path, road, rects, ds=OLD_DS):
    """Dense sweep: stay inside the road, stay out of every rectangle.

    Same contract and messages as ``dubins._validate``, decided at samples
    spaced at most ds apart along the path.
    """
    n = max(2, int(path.total_length / ds) + 1)
    for i in range(n + 1):
        s = min(path.total_length, path.total_length * i / n)
        x, y, _, _ = sample_reference(path, s)
        if not (road.lower_boundary_y < y < road.upper_boundary_y):
            raise PathConstructionError(
                f"constructed path leaves the road at s={s:.2f} (y={y:.3f})")
        for rect in rects:
            if rect_signed_distance((x, y), rect) < -1e-9:
                raise PathConstructionError(
                    f"constructed path enters an obstacle boundary at "
                    f"s={s:.2f} (x={x:.2f}, y={y:.2f})")


def _raises(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except PathConstructionError:
        return True
    return False


def _path_of(*segments):
    offsets = []
    total = 0.0
    for seg in segments:
        offsets.append(total)
        total += seg.length
    return ReferencePath(segments=tuple(segments), waypoints=(),
                         total_length=total, offsets=tuple(offsets),
                         design_speed=10.0)


def _chained(*segments):
    """A continuous path: each segment moved to start where the last ended."""
    chain = [segments[0]]
    for seg in segments[1:]:
        dx = chain[-1].end[0] - seg.start[0]
        dy = chain[-1].end[1] - seg.start[1]

        def moved(p):
            return (p[0] + dx, p[1] + dy)
        chain.append(dataclasses.replace(
            seg, start=chain[-1].end, end=moved(seg.end),
            centre=moved(seg.centre) if seg.kind == "arc" else seg.centre))
    return _path_of(*chain)


def _line(a, b):
    return PathSegment(kind="line", start=a, end=b,
                       length=math.hypot(b[0] - a[0], b[1] - a[1]),
                       heading=math.atan2(b[1] - a[1], b[0] - a[0]))


def _arc(centre, radius, start_angle, sweep):
    def at(angle):
        return (centre[0] + radius * math.cos(angle),
                centre[1] + radius * math.sin(angle))
    return PathSegment(kind="arc", start=at(start_angle),
                       end=at(start_angle + sweep), length=radius * abs(sweep),
                       centre=centre, radius=radius,
                       direction=1 if sweep > 0 else -1,
                       start_angle=start_angle, sweep=sweep)


WIDE_ROAD = Road(lane_width=1e3, lower_boundary_y=-1e3)


# -- the exact check against the oracle ---------------------------------------

coord = st.floats(-5.0, 5.0)
lines = st.builds(_line, st.tuples(coord, coord), st.tuples(coord, coord)
                  ).filter(lambda seg: seg.length > 1e-3)
arcs = st.builds(_arc, st.tuples(coord, coord), st.floats(0.2, 6.0),
                 st.floats(-math.pi, math.pi),
                 st.floats(0.05, 6.0) | st.floats(-6.0, -0.05))
segments = st.one_of(lines, arcs)


@st.composite
def rect_near(draw, path):
    """A rectangle around a random point of the path, so that it misses,
    clips or swallows the path about equally often."""
    x, y, _, _ = sample_reference(path, draw(st.floats(0.0, 1.0))
                                  * path.total_length)
    cx = x + draw(st.floats(-1.5, 1.5))
    cy = y + draw(st.floats(-1.5, 1.5))
    hx = draw(st.floats(0.05, 2.0))
    hy = draw(st.floats(0.05, 2.0))
    return Rect(cx - hx, cy - hy, cx + hx, cy + hy)


@st.composite
def validation_cases(draw):
    path = _chained(*draw(st.lists(segments, min_size=1, max_size=3)))
    rects = draw(st.lists(rect_near(path), min_size=1, max_size=3))
    lower = draw(st.floats(-8.0, -2.0))
    road = Road(lane_width=draw(st.floats(2.0, 6.0)), lower_boundary_y=lower)
    return path, road, rects


def _loosened(road, rects, d):
    """The same checks, each boundary moved by d toward accepting more."""
    return (Road(lane_width=road.lane_width - d,
                 lower_boundary_y=road.lower_boundary_y + d),
            [r.inflated(d) for r in rects])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(validation_cases())
def test_exact_check_agrees_with_fine_oracle(case):
    path, road, rects = case
    ds = 0.005
    # The road alone, each rectangle alone (on a road wide enough not to
    # matter), and everything together.
    for r, rs in [(road, [])] + [(WIDE_ROAD, [r]) for r in rects] \
            + [(road, rects)]:
        exact = _raises(dubins._validate, path, r, rs)
        # Every sample is a path point: what the sweep finds, the exact
        # check finds.
        if _raises(_dense_validate, path, r, rs, ds):
            assert exact
        # A violation the exact check finds lies within ds/2 of a sample,
        # so the sweep sees it once every boundary is moved by ds/2.  (The
        # plain sweep misses violations shorter than ds, such as a corner
        # clipped over 1e-11 m.)
        elif exact:
            assert _raises(_dense_validate, path,
                           *_loosened(r, rs, 0.5 * ds), ds)


# -- the box-pruned path query against the full scan --------------------------

queries = st.lists(st.tuples(st.floats(-15.0, 15.0), st.floats(-15.0, 15.0)),
                   min_size=1, max_size=20)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(segments, min_size=1, max_size=6), queries)
def test_nearest_arclength_matches_full_scan(segs, points):
    # The segments chained into one continuous path, and as drawn: apart,
    # overlapping and in any order.
    for path in (_chained(*segs), _path_of(*segs)):
        extra = [p for seg in path.segments for p in (seg.start, seg.end)]
        extra += [seg.centre for seg in path.segments if seg.kind == "arc"]
        for px, py in points + extra:
            got = dubins.nearest_arclength(path, px, py)
            want = loop_nearest_arclength(path, px, py)
            assert repr(got) == repr(want), (px, py)


class TestConstructedCases:
    def _between_old_samples(self, path, seg):
        """Arclength half-way between two neighbouring samples of the old
        0.05 m sweep, inside the given segment."""
        off = path.offsets[path.segments.index(seg)]
        n = max(2, int(path.total_length / OLD_DS) + 1)
        i = int((off + 0.5 * seg.length) / path.total_length * n)
        return path.total_length * (i + 0.5) / n

    @pytest.mark.parametrize("pick", [
        lambda seg: seg.kind == "arc",
        lambda seg: seg.kind == "line" and seg.heading != 0.0,  # diagonal
    ], ids=["arc", "line"])
    def test_penetration_between_old_samples_is_caught(self, params,
                                                       static_scenario, pick):
        path = build_lane_change_path(static_scenario, params)
        seg = next(s for s in path.segments if pick(s))
        x, y, _, _ = sample_reference(path,
                                      self._between_old_samples(path, seg))
        # 1 cm square centred on the path: about 2.5 cm from both samples
        rect = Rect(x - 0.005, y - 0.005, x + 0.005, y + 0.005)
        road = static_scenario.road
        _dense_validate(path, road, [rect])
        with pytest.raises(PathConstructionError,
                           match="enters an obstacle boundary"):
            dubins._validate(path, road, [rect])

    def test_construction_corners_are_accepted(self, params,
                                               static_scenario):
        path = build_lane_change_path(static_scenario, params)
        rects = [obstacle_boundary_at(ob, 0.0).inflated(DEFAULT_CORNER_MARGIN)
                 for ob in static_scenario.obstacles]
        dubins._validate(path, static_scenario.road, rects)
        # Each home-lane swerve passes through its rectangle's corner: a
        # micrometre more margin is penetrated.
        for rect in (rects[0], rects[2]):
            with pytest.raises(PathConstructionError):
                dubins._validate(path, static_scenario.road,
                                 [rect.inflated(1e-6)])

    def test_arc_tangency_within_graze_depth(self):
        # Counter-clockwise arc over its top: y is largest mid-sweep.
        arc = _arc((0.0, 0.0), 20.0, 0.25 * math.pi, 0.5 * math.pi)
        path = _path_of(arc)

        def cap(depth):
            return Rect(-1.0, 20.0 - depth, 1.0, 21.0)

        dubins._validate(path, WIDE_ROAD, [cap(0.0)])
        dubins._validate(path, WIDE_ROAD, [cap(0.5e-9)])
        # 2 nm deep: a chord of 0.6 mm, invisible to the old sweep
        _dense_validate(path, WIDE_ROAD, [cap(2e-9)])
        with pytest.raises(PathConstructionError):
            dubins._validate(path, WIDE_ROAD, [cap(2e-9)])
        # Touching the road's edge is leaving the open strip.
        _dense_validate(path, Road(lane_width=10.0, lower_boundary_y=0.0), [])
        dubins._validate(path, Road(lane_width=10.0, lower_boundary_y=1e-6),
                         [])
        with pytest.raises(PathConstructionError, match="leaves the road"):
            dubins._validate(path, Road(lane_width=10.0, lower_boundary_y=0.0),
                             [])


# -- planner fuzzing -------------------------------------------------------------

@st.composite
def obstacles_in(draw, lane_width):
    lane = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["static", "steady", "ramp"]))
    v0 = vt = a = 0.0
    if kind != "static":
        v0 = draw(st.floats(0.5, 6.0))
    if kind == "ramp":
        vt = draw(st.floats(0.0, 13.0).filter(lambda v: abs(v - v0) > 0.1))
        a = math.copysign(draw(st.floats(0.1, 1.0)), vt - v0)
    return Obstacle(x0=draw(st.floats(12.0, 110.0)), y0=lane * lane_width,
                    initial_speed=v0, target_speed=vt, acceleration=a)


@st.composite
def layouts(draw, anchored=True):
    """A two-lane scenario (home lane centred on y = 0) plus the keyword
    arguments of one build: the first plan, or (if anchored) possibly a
    mid-run rebuild from the home lane."""
    w = draw(st.sampled_from([3.0, 3.25, 3.5, 3.75, 4.0]))
    obstacles = draw(st.lists(obstacles_in(w), min_size=1, max_size=4))
    vx = draw(st.floats(8.0, 12.0))
    try:
        scenario = Scenario(road=Road(lane_width=w, lower_boundary_y=-0.5 * w),
                            obstacles=obstacles,
                            ego_initial=VehicleState(
                                vx=vx, Y=draw(st.floats(-0.2, 0.2))),
                            duration=15.0)
    except ValueError:
        assume(False)
    anchor = {}
    if anchored and draw(st.booleans()):
        at_time = draw(st.floats(0.0, 10.0))
        ego_x = draw(st.floats(0.0, 100.0))
        predict_vx = draw(st.floats(6.0, 13.0))
        anchor = dict(at_time=at_time,
                      ego=VehicleState(vx=predict_vx, X=ego_x))
    return scenario, vx, anchor


def _build_spied(scenario, params, **anchor):
    """(path, validator arguments), or (None, None) when the build raises."""
    seen = []
    real = dubins._validate

    def spy(path, road, rects):
        seen.append((road, rects))
        real(path, road, rects)

    with mock.patch.object(dubins, "_validate", spy):
        try:
            return build_lane_change_path(scenario, params, **anchor), \
                seen[0]
        except PathConstructionError:
            return None, None


def _mirror_of(seg):
    return dataclasses.replace(
        seg, start=(seg.start[0], -seg.start[1]),
        end=(seg.end[0], -seg.end[1]), heading=-seg.heading,
        centre=(seg.centre[0], -seg.centre[1]), direction=-seg.direction,
        start_angle=-seg.start_angle, sweep=-seg.sweep)


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(layouts())
def test_fuzzed_layouts_plan_valid_paths(params, layout):
    scenario, vx, anchor = layout
    path, checked = _build_spied(scenario, params, **anchor)
    if path is not None:
        _dense_validate(path, *checked)
        # A rebuild is made from the home lane: every swerve starts ahead
        # of the ego.
        swerves = [seg.start[0] for seg in path.segments if seg.kind == "arc"]
        ego_x = anchor["ego"].X if anchor else -math.inf
        assert min(swerves, default=math.inf) >= ego_x

    mirror, _ = _build_spied(mirrored(scenario), params, **anchor)
    assert (mirror is None) == (path is None)
    if path is not None:
        assert mirror.segments == tuple(_mirror_of(s) for s in path.segments)
        assert mirror.waypoints == tuple((x, -y) for x, y in path.waypoints)
        assert (mirror.total_length, mirror.offsets) == \
            (path.total_length, path.offsets)

    if not anchor and not any(o.is_moving for o in scenario.obstacles):
        slower = dataclasses.replace(scenario.ego_initial, vx=0.8 * vx)
        rebuilt, _ = _build_spied(scenario, params, at_time=7.5, ego=slower)
        assert rebuilt == path


def test_climb_into_adjacent_lane_traffic_is_refused_by_the_planner(params):
    # Found by the fuzzing above.  The cap from the far adjacent-lane
    # rectangle pulls the swerve-out 0.26 m earlier than the near one
    # allows, so the climb ran into it; only the validator stopped it.
    sc = Scenario(road=Road(lane_width=4.0, lower_boundary_y=-2.0),
                  obstacles=(Obstacle(x0=49.54272887205128, y0=4.0,
                                      initial_speed=3.4554307303195766),
                             Obstacle(x0=70.0, y0=0.0),
                             Obstacle(x0=58.66370703172128, y0=4.0)),
                  ego_initial=VehicleState(vx=8.0, Y=0.08877663539661429),
                  duration=15.0)
    with pytest.raises(PathConstructionError,
                       match="adjacent-lane traffic near x=55.36"):
        build_lane_change_path(sc, params)


# -- merges -----------------------------------------------------------------------

def _parked(*home, adjacent=()):
    """Default road, ego at x = 0 and vx = 10, parked cars in the home lane
    (y = 0) and the adjacent lane (y = 3.5) at the given x."""
    return Scenario(road=Road(),
                    obstacles=[Obstacle(x0=x, y0=0.0) for x in home]
                    + [Obstacle(x0=x, y0=3.5) for x in adjacent],
                    ego_initial=VehicleState(vx=10.0), duration=15.0)


def _swerves(path):
    return sum(seg.kind == "arc" for seg in path.segments) // 4


def test_car_the_plan_already_clears_changes_nothing(params):
    # The plan for the car at x = 21 already clears the one at x = 27.  A
    # forward pass that met the first car before learning the second must
    # merge with it used to refuse this ("obstacle near x=17.70 leaves no
    # room to start a radius-20.39 m turn").
    one = build_lane_change_path(_parked(21.0), params)
    two = build_lane_change_path(_parked(21.0, 27.0), params)
    assert two.waypoints == one.waypoints


def test_gap_that_fits_a_dip_gets_one(params):
    # The cars at x = 94 and 105 are overflown as one group, and the gap
    # from 64 to 94 fits a dip: the path returns to the home lane there
    # instead of flying one swerve from x = 50.67 to 118.33.
    path = build_lane_change_path(_parked(64.0, 94.0, 105.0), params)
    assert _swerves(path) == 2
    assert any(64.0 < x < 94.0 and y == 0.0 for x, y in path.waypoints)


def test_dip_that_runs_into_adjacent_traffic_is_overflown(params):
    # A dip between the cars at x = 42 and 71 would pull the first
    # swerve-out back into the adjacent-lane car at x = 27; the home-lane
    # cars are overflown in one swerve instead.
    path = build_lane_change_path(_parked(42.0, 71.0, 93.0, adjacent=(27.0,)),
                                  params)
    assert _swerves(path) == 1
    assert path.waypoints[1] == pytest.approx((28.67, 0.0), abs=5e-3)
    assert path.waypoints[6] == pytest.approx((106.33, 0.0), abs=5e-3)


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(layouts(anchored=False), st.data())
def test_car_the_plan_already_clears_keeps_the_layout_plannable(
        params, layout, data):
    scenario, vx, _ = layout
    try:
        path = build_lane_change_path(scenario, params)
    except PathConstructionError:
        assume(False)
    w = scenario.road.lane_width
    plateaus = [(a[0], b[0]) for a, b in zip(path.waypoints,
                                             path.waypoints[1:])
                if abs(a[1] - w) < 1e-6 and abs(b[1] - w) < 1e-6]
    assume(plateaus)
    lo, hi = data.draw(st.sampled_from(plateaus))
    car = Obstacle(x0=data.draw(st.floats(lo - 5.0, hi + 5.0)), y0=0.0)
    rect = obstacle_boundary_at(car, 0.0).inflated(DEFAULT_CORNER_MARGIN)
    assume(not _raises(dubins._validate, path, scenario.road, [rect]))
    build_lane_change_path(
        dataclasses.replace(scenario, obstacles=scenario.obstacles + (car,)),
        params)


# -- rebuilds ------------------------------------------------------------------

def test_rebuild_that_would_swerve_behind_the_ego_is_refused(params):
    # The first plan around a parked car swerves out at x = 26.67.  A
    # rebuild with the ego there gives the same plan; one with the ego 1 m
    # further on would need a swerve that started behind the ego.
    sc = _parked(40.0)
    first = build_lane_change_path(sc, params)
    u = first.waypoints[1][0]
    assert u == pytest.approx(26.67, abs=5e-3)
    at_u = dataclasses.replace(sc.ego_initial, X=u)
    assert build_lane_change_path(sc, params, ego=at_u) == first
    with pytest.raises(PathConstructionError,
                       match="no room to start a radius-20.39 m turn"):
        build_lane_change_path(
            sc, params, ego=dataclasses.replace(sc.ego_initial, X=u + 1.0))


# -- closed loop ---------------------------------------------------------------

PLANS_PER_DYNAMIC_RUN = {"integrated": 71, "two_level": 66}


@pytest.mark.parametrize("controller", ["integrated", "two_level"])
def test_closed_loop_equals_dense_sweep_run(params, cfg, dynamic_scenario,
                                            controller):
    """The dynamic scenario rebuilds its path between manoeuvres; swapping
    the exact check for the old 0.05 m sweep changes nothing in the log."""
    logs = []
    for check in (dubins._validate, _dense_validate):
        calls = []
        raised = []

        def counted(path, road, rects, check=check):
            calls.append(rects)
            try:
                check(path, road, rects)
            except PathConstructionError as exc:
                raised.append(exc)
                raise

        with mock.patch.object(dubins, "_validate", counted):
            logs.append(run(dynamic_scenario, params, cfg,
                            controller=controller))
        # The first plan and one rebuild per home-straight step.
        assert len(calls) == PLANS_PER_DYNAMIC_RUN[controller]
        assert raised == []
    assert logs[0] == logs[1]
