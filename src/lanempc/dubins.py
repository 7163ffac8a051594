"""Arc-line lane-change reference paths.

Builds the avoidance reference for a straight two-lane road: drive the home
lane centreline, swerve to the adjacent centreline with a pair of tangent
maximum-lateral-acceleration arcs, pass the blocking traffic, and swerve
back.  Obstacles in the home lane force swerves; obstacles in the adjacent
lane bound how long the vehicle may stay there.  Moving obstacles are frozen
at the position they will occupy when the ego is predicted to reach them
(constant-speed time-of-arrival estimate), so rebuilding the path between
manoeuvres tracks dynamic traffic.

This is deliberately *not* a general shortest-path planner between arbitrary
poses; only the lane-change family is constructed.  Paths are immutable and
all queries are pure.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

from .scenario import (Rect, obstacle_boundary_at, obstacle_pose_at,
                       rect_signed_distance)

# Extra clearance (m) the construction keeps beyond each obstacle's inflated
# rectangle, absorbing closed-loop tracking error.
DEFAULT_CORNER_MARGIN = 0.8

# Minimum straight driven on the adjacent centreline before swerving back
# (m); keeps the pass from degenerating to a single touch point.
MIN_PLATEAU = 4.0

# Straight diagonal (m) inserted between the two arcs of a lane change.
# Splitting the curvature reversal into two steps separated by this run
# roughly halves the yaw-acceleration burden of tracking the change.
MID_STRAIGHT = 5.0

# Longitudinal room (m) appended past the last manoeuvre so horizon queries
# near the end of the run stay on the path.
_TAIL = 30.0

# Depth (m) of contact with a frozen rectangle that validation still accepts
# as grazing: swerves pass exactly through the rectangle corners that
# placed them.
_GRAZE = 1e-9

# Polar angles at which an arc's x (0, pi) or y (+-pi/2) is extreme.
_EXTREME_ANGLES = (0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi)


class PathConstructionError(ValueError):
    """The obstacle layout leaves no room for the lane-change geometry."""


@dataclass(frozen=True)
class PathSegment:
    """One straight line or circular arc of the reference chain.

    Lines carry a heading; arcs carry centre, radius, turn direction
    (+1 counter-clockwise, -1 clockwise), the angle of the start point seen
    from the centre, and the signed sweep (direction * |sweep|).
    """

    kind: str
    start: tuple
    end: tuple
    length: float
    heading: float = 0.0
    centre: tuple = (0.0, 0.0)
    radius: float = 0.0
    direction: int = 0
    start_angle: float = 0.0
    sweep: float = 0.0


@dataclass(frozen=True)
class ReferencePath:
    segments: tuple
    waypoints: tuple
    total_length: float
    offsets: tuple  # cumulative arclength at each segment start
    # Speed the geometry was designed for; horizon references advance at
    # this pace.
    design_speed: float

    def waypoint_labels(self):
        return tuple(f"P{i}" for i in range(len(self.waypoints)))


def min_turn_radius(vx, params):
    """Radius of the maximum-lateral-acceleration circle at speed vx."""
    return vx * vx / (params.mu * params.g)


# -- arclength <-> pose queries ----------------------------------------------

def _sample_segment(seg, s):
    if seg.kind == "line":
        f = s / seg.length if seg.length > 0.0 else 0.0
        x = seg.start[0] + f * (seg.end[0] - seg.start[0])
        y = seg.start[1] + f * (seg.end[1] - seg.start[1])
        return x, y, seg.heading, 0.0
    phi = seg.start_angle + seg.direction * (s / seg.radius)
    x = seg.centre[0] + seg.radius * math.cos(phi)
    y = seg.centre[1] + seg.radius * math.sin(phi)
    heading = phi + seg.direction * (math.pi / 2.0)
    return x, y, heading, seg.direction / seg.radius


def sample_reference(path, s):
    """Pose on the path at arclength s: (x, y, heading, curvature).

    Curvature is 0 on lines and signed 1/radius on arcs (positive turning
    left).  s outside [0, total_length] raises ValueError.
    """
    if not 0.0 <= s <= path.total_length:
        raise ValueError(
            f"arclength {s!r} outside [0, {path.total_length!r}]")
    i = bisect_right(path.offsets, s) - 1
    i = min(i, len(path.segments) - 1)
    return _sample_segment(path.segments[i], s - path.offsets[i])


def _nearest_on_segment(seg, px, py):
    """(distance^2, local arclength) of the nearest point on one segment."""
    if seg.kind == "line":
        ax, ay = seg.start
        bx, by = seg.end
        vx, vy = bx - ax, by - ay
        denom = vx * vx + vy * vy
        if denom == 0.0:
            f = 0.0
        else:
            f = ((px - ax) * vx + (py - ay) * vy) / denom
            f = min(1.0, max(0.0, f))
        dx, dy = px - (ax + f * vx), py - (ay + f * vy)
        return dx * dx + dy * dy, f * seg.length
    # Arc: clamp the polar angle of the query point into the swept interval.
    beta = math.atan2(py - seg.centre[1], px - seg.centre[0])
    rel = seg.direction * (beta - seg.start_angle)
    rel = rel % (2.0 * math.pi)
    span = abs(seg.sweep)
    if rel <= span:
        local = rel * seg.radius
    else:
        # Outside the arc: nearer endpoint (gap midpoint decides).
        local = 0.0 if rel - span > (2.0 * math.pi - rel) else span * seg.radius
    x, y, _, _ = _sample_segment(seg, local)
    dx, dy = px - x, py - y
    return dx * dx + dy * dy, local


def nearest_arclength(path, px, py):
    """Arclength of the nearest path point to (px, py), plus the distance."""
    best_d2 = math.inf
    best_s = 0.0
    for seg, off in zip(path.segments, path.offsets):
        d2, local = _nearest_on_segment(seg, px, py)
        if d2 < best_d2:
            best_d2 = d2
            best_s = off + local
    return best_s, math.sqrt(best_d2)


# -- construction -------------------------------------------------------------

def _change_geometry(radius, h, diag):
    """Turn angle and longitudinal span of an arc-line-arc lane change.

    The two radius-R arcs turn to heading theta with a straight of length
    diag between them; lateral offset: 2R(1-cos theta) + diag sin theta = h.
    """
    c = math.hypot(2.0 * radius, diag)
    arg = (2.0 * radius - h) / c
    if not -1.0 <= arg <= 1.0:
        raise PathConstructionError(
            f"turn radius {radius:.3f} m too small for a {h:.3f} m lane "
            "offset")
    theta = math.acos(arg) - math.atan2(diag, 2.0 * radius)
    if theta <= 0.0 or theta >= 0.5 * math.pi:
        raise PathConstructionError(
            f"turn radius {radius:.3f} m too small for a {h:.3f} m lane "
            "offset")
    s_len = 2.0 * radius * math.sin(theta) + diag * math.cos(theta)
    return theta, s_len


def _rise_inv(y, radius, h, theta, diag, s_len):
    """Longitudinal distance at which the lane change first reaches height
    y, for 0 <= y <= h."""
    y_arc = radius * (1.0 - math.cos(theta))
    if y <= y_arc:
        return math.sqrt(y * (2.0 * radius - y))
    if y >= h - y_arc:
        yy = h - y
        return s_len - math.sqrt(yy * (2.0 * radius - yy))
    return radius * math.sin(theta) + (y - y_arc) / math.tan(theta)


def _catch_time(obstacle, ego_x, ego_vx, t_now, offset=0.0):
    """Earliest t >= t_now at which the ego (constant ego_vx from ego_x at
    t_now) reaches the obstacle's centre x plus ``offset``; None if it never
    does.  offset < 0 targets the leading edge, > 0 the trailing edge."""
    x_at, _, _ = obstacle_pose_at(obstacle, t_now)
    if x_at + offset <= ego_x:
        return t_now
    v0 = obstacle.initial_speed
    vt = obstacle.target_speed
    a = obstacle.acceleration
    t_ramp = 0.0 if a == 0.0 else (vt - v0) / a

    def gap(t):
        x, _, _ = obstacle_pose_at(obstacle, t)
        return x + offset - (ego_x + ego_vx * (t - t_now))

    # Ramp phase: gap(t) is quadratic in t.
    if t_now < t_ramp:
        c2 = 0.5 * a
        c1 = v0 - ego_vx
        c0 = obstacle.x0 + offset - ego_x + ego_vx * t_now
        disc = c1 * c1 - 4.0 * c2 * c0
        if c2 != 0.0 and disc >= 0.0:
            root = math.sqrt(disc)
            for t in sorted(((-c1 - root) / (2.0 * c2),
                             (-c1 + root) / (2.0 * c2))):
                if t_now <= t <= t_ramp and gap(t) <= 1e-9:
                    return t
    # Constant-speed phase: gap(t) is linear.
    t_lin = max(t_now, t_ramp)
    g = gap(t_lin)
    if g <= 0.0:
        return t_lin
    v_hold = vt if a != 0.0 else v0
    rate = ego_vx - v_hold
    if rate <= 0.0:
        return None
    return t_lin + g / rate


def build_lane_change_path(scenario, params, at_time=0.0, ego=None):
    """Construct the avoidance reference path for a scenario.

    The ego's initial vx is the design speed: it sets the arc radius
    (max-lateral-acceleration circle).  ``ego`` is the ego's VehicleState
    at at_time (default: the initial state); its vx is the speed assumed
    for the time-of-arrival prediction of moving obstacles, so rebuilds
    keep the design geometry while predicting encounters at the actual
    speed.  The path always starts on the home-lane centreline at the
    scenario's initial x and stays on it up to the ego's X: a rebuild is
    made from the home lane, so every swerve starts ahead of the ego, and
    traffic already passed or alongside is not plannable-around any more.

    Raises PathConstructionError when the obstacle layout leaves no room for
    radius-R arcs.
    """
    road = scenario.road
    ego0 = scenario.ego_initial
    if ego is None:
        ego = ego0
    radius = min_turn_radius(ego0.vx, params)
    h = road.lane_width
    diag = MID_STRAIGHT

    x_start = ego0.X
    ex = max(x_start, ego.X)

    # Home lane = nearest centreline to the ego's initial y.
    home = min((0, 1), key=lambda i: abs(ego0.Y - road.centreline_y(i)))
    target = 1 - home
    y_home = road.centreline_y(home)
    y_target = road.centreline_y(target)
    sgn = 1.0 if y_target > y_home else -1.0

    # Freeze each obstacle at its predicted encounter, inflate by the
    # construction margin, classify by which centreline it covers.  Moving
    # obstacles are frozen as the rectangle swept between the moments the
    # ego meets their leading and trailing edges (an overtake at low
    # relative speed spans metres of obstacle motion).
    blockers = []      # (xmin, xmax, far_edge_height) in the home lane
    constraints = []   # (xmin, xmax, near_edge_height) in the adjacent lane
    frozen = []
    for ob in scenario.obstacles:
        if ob.is_moving:
            hx = 0.5 * ob.length + ob.safety_gap + DEFAULT_CORNER_MARGIN
            hy = 0.5 * ob.width + ob.safety_gap + DEFAULT_CORNER_MARGIN
            t_lead = _catch_time(ob, ex, ego.vx, at_time, offset=-hx)
            if t_lead is None:
                continue  # never reached; cannot obstruct the ego
            t_trail = _catch_time(ob, ex, ego.vx, at_time, offset=hx)
            if t_trail is None:
                # Pass never completes; block out to the end of the run.
                t_trail = max(t_lead, scenario.duration)
            x_lead, y_c, _ = obstacle_pose_at(ob, t_lead)
            x_trail, _, _ = obstacle_pose_at(ob, t_trail)
            rect = Rect(x_lead - hx, y_c - hy, x_trail + hx, y_c + hy)
        else:
            rect = obstacle_boundary_at(ob, at_time).inflated(
                DEFAULT_CORNER_MARGIN)
        if rect.xmax < ex:
            continue  # strictly behind the ego; cannot constrain what is ahead
        covers_home = rect.ymin <= y_home <= rect.ymax
        covers_target = rect.ymin <= y_target <= rect.ymax
        if covers_home and covers_target:
            raise PathConstructionError(
                "an obstacle blocks both lane centrelines")
        if covers_home:
            if rect.xmin <= ex:
                # Already alongside it in its own lane: no lane-change
                # geometry ahead can address this; leave it to the
                # clearance metric.
                continue
            far = rect.ymax - y_home if sgn > 0 else y_home - rect.ymin
            blockers.append((rect.xmin, rect.xmax, far))
        elif covers_target:
            near = rect.ymin - y_home if sgn > 0 else y_home - rect.ymax
            constraints.append((rect.xmin, rect.xmax, near))
        frozen.append(rect)

    blockers.sort()
    if blockers:
        # Only a needed lane change has to fit the lane width.
        theta, s_len = _change_geometry(radius, h, diag)
    # Swerve-back caps only matter for descents still ahead of the ego.
    cap_rects = sorted(c for c in constraints if c[0] >= ex - 1.0)
    constraints.sort()
    pending = [[b] for b in blockers]  # groups still to decide, left to right

    def rise(y):
        return _rise_inv(y, radius, h, theta, diag, s_len)

    def traffic_hit(u, d):
        """xmin of the first adjacent-lane rectangle that the swerve out at
        u and back at d runs into, or None.  The swerve is above a
        rectangle's near edge from its climb to its descent."""
        for cxmin, cxmax, cnear in constraints:
            if (u + rise(cnear) + 1e-6 < cxmax
                    and cxmin + 1e-6 < d + rise(h - cnear)):
                return cxmin
        return None

    # Right-to-left pass: the latest usable swerve-out of each group, given
    # its own leading corner, adjacent-lane caps on the swerve-back, and the
    # room to land and climb again before the group to its right, which is
    # already final.  Where the swerve-back lands too late for that climb,
    # or the swerve runs into adjacent-lane traffic, the two groups are
    # taken as one and the merged group is evaluated again.
    placed = []  # (members, xmin, swerve-out, swerve-back, caps)
    while pending:
        grp = pending.pop()
        gxmin = min(b[0] for b in grp)
        gfar = max(b[2] for b in grp)
        u_max = gxmin - rise(gfar)
        # Adjacent-lane rectangles not clearable before the climb cap the
        # swerve-back.
        tcap = min((cxmin - rise(h - cnear)
                    for cxmin, cxmax, cnear in cap_rects
                    if cxmax > u_max + rise(cnear)), default=math.inf)
        dcap = placed[-1][2] - s_len if placed else math.inf
        u = min(u_max, min(tcap, dcap) - MIN_PLATEAU - s_len)
        d = max(u + s_len + MIN_PLATEAU,
                max(b[1] for b in grp) - rise(h - gfar))
        if placed and (d > dcap + 1e-9 or traffic_hit(u, d) is not None):
            pending.append(grp + placed.pop()[0])
        else:
            placed.append((grp, gxmin, u, d, tcap, dcap))

    # Left-to-right pass: start each swerve no earlier than the last
    # landing (the first no earlier than the ego), and refuse a group the
    # caps leave no room for.
    plan = []
    prev_land = ex
    for grp, gxmin, u, d, tcap, dcap in reversed(placed):
        if u < prev_land - 1e-9:
            raise PathConstructionError(
                f"obstacle near x={gxmin:.2f} leaves no room to start "
                f"a radius-{radius:.2f} m turn")
        u = max(u, prev_land)
        d = max(d, u + s_len + MIN_PLATEAU)
        if d > tcap + 1e-9:
            raise PathConstructionError(
                f"no room between home-lane traffic near x={gxmin:.2f} "
                f"and adjacent-lane traffic near "
                f"x={tcap:.2f} for radius-{radius:.2f} m arcs")
        d = min(d, tcap, dcap)
        # A swerve still running into adjacent-lane traffic had no group to
        # its right to merge with: a cap pulled the swerve-out so early that
        # the climb runs into traffic counted as cleared.
        cxmin = traffic_hit(u, d)
        if cxmin is not None:
            raise PathConstructionError(
                f"adjacent-lane traffic near x={cxmin:.2f} "
                f"leaves no room to climb before home-lane "
                f"traffic near x={gxmin:.2f} for "
                f"radius-{radius:.2f} m arcs")
        plan.append((u, d))
        prev_land = d + s_len

    # Assemble segments; junctions are stored once and shared between
    # neighbouring segments so continuity is exact.
    x_end = max(x_start + ego0.vx * scenario.duration,
                (plan[-1][1] + s_len) if plan else x_start) + _TAIL
    segments = []
    waypoints = [(x_start, y_home)]
    cursor = (x_start, y_home)

    def add_line(to_point, heading):
        nonlocal cursor
        length = math.hypot(to_point[0] - cursor[0], to_point[1] - cursor[1])
        if length > 1e-12:
            segments.append(PathSegment(kind="line", start=cursor,
                                        end=to_point, length=length,
                                        heading=heading))
        cursor = to_point

    def add_arc(centre, start_angle, sweep):
        nonlocal cursor
        direction = 1 if sweep > 0 else -1
        end_angle = start_angle + sweep
        end = (centre[0] + radius * math.cos(end_angle),
               centre[1] + radius * math.sin(end_angle))
        segments.append(PathSegment(kind="arc", start=cursor, end=end,
                                    length=radius * abs(sweep),
                                    centre=centre, radius=radius,
                                    direction=direction,
                                    start_angle=start_angle, sweep=sweep))
        cursor = end

    def add_s_curve(x_entry, y_from, sign):
        """Arc, straight diagonal, arc from (x_entry, y_from) to the level
        y_from + sign*h; returns the mid and exit points for labelling."""
        c1 = (x_entry, y_from + sign * radius)
        add_arc(c1, -sign * (math.pi / 2.0), sign * theta)
        if diag > 0.0:
            line_end = (cursor[0] + diag * math.cos(theta),
                        cursor[1] + sign * diag * math.sin(theta))
            add_line(line_end, sign * theta)
        mid = (x_entry + radius * math.sin(theta) + 0.5 * diag * math.cos(theta),
               y_from + sign * (0.5 * h))
        y_to = y_from + sign * h
        c2 = (x_entry + s_len, y_to - sign * radius)
        add_arc(c2, sign * (math.pi / 2.0 + theta), -sign * theta)
        return mid, cursor

    for u, d in plan:
        add_line((u, y_home), 0.0)
        waypoints.append((u, y_home))
        mid, out = add_s_curve(u, y_home, sgn)
        waypoints.append(mid)
        waypoints.append(out)
        add_line((d, y_target), 0.0)
        waypoints.append((d, y_target))
        mid, back = add_s_curve(d, y_target, -sgn)
        waypoints.append(mid)
        waypoints.append(back)
    add_line((x_end, y_home), 0.0)
    if not segments:
        raise PathConstructionError(
            f"the plan from x={x_start!r} has zero length")
    waypoints.append((x_end, y_home))
    waypoints = [p for i, p in enumerate(waypoints)
                 if i == 0 or p != waypoints[i - 1]]

    offsets = []
    total = 0.0
    for seg in segments:
        offsets.append(total)
        total += seg.length
    path = ReferencePath(segments=tuple(segments), waypoints=tuple(waypoints),
                         total_length=total, offsets=tuple(offsets),
                         design_speed=ego0.vx)

    _validate(path, road, frozen)
    return path


def _validate(path, road, rects):
    """Exact check: stay inside the road, stay out of every frozen rectangle.

    The construction rectangles already include the corner margin, so grazing
    contact with them (depth up to _GRAZE) is allowed; actual penetration is
    a construction bug or an unplannable layout and raises.  The road strip
    is open.

    Each segment is cut at its critical arclengths: its ends, its crossings
    of each rectangle's edge lines (moved inward by _GRAZE), and, on arcs,
    the points where x or y is extreme.  Between neighbouring cuts a segment
    lies wholly inside or wholly outside a rectangle and its y is monotone,
    so testing the cuts and the midpoints between them decides both checks
    with no gaps.
    """
    lower = road.lower_boundary_y
    upper = road.upper_boundary_y
    for seg, off in zip(path.segments, path.offsets):
        cuts = [0.0, seg.length]
        if seg.kind == "arc":
            cuts += _arc_params(seg, _EXTREME_ANGLES)
        points = [_sample_segment(seg, t)[:2] for t in cuts]
        for t, (_, y) in zip(cuts, points):
            if not lower < y < upper:
                raise PathConstructionError(
                    f"constructed path leaves the road at "
                    f"s={off + t:.2f} (y={y:.3f})")
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        for rect in rects:
            if (x1 <= rect.xmin or x0 >= rect.xmax
                    or y1 <= rect.ymin or y0 >= rect.ymax):
                continue  # the segment's bounding box misses the rectangle
            ts = sorted(cuts
                        + _crossings(seg, 0, rect.xmin + _GRAZE)
                        + _crossings(seg, 0, rect.xmax - _GRAZE)
                        + _crossings(seg, 1, rect.ymin + _GRAZE)
                        + _crossings(seg, 1, rect.ymax - _GRAZE))
            ts += [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
            for t in ts:
                x, y, _, _ = _sample_segment(seg, t)
                if rect_signed_distance((x, y), rect) < -_GRAZE:
                    raise PathConstructionError(
                        f"constructed path enters an obstacle boundary "
                        f"at s={off + t:.2f} (x={x:.2f}, y={y:.2f})")


def _crossings(seg, axis, c):
    """Local arclengths strictly inside the segment at which its coordinate
    ``axis`` (0 = x, 1 = y) equals c."""
    if seg.kind == "line":
        a = seg.start[axis]
        b = seg.end[axis]
        if a == b:
            return []
        t = (c - a) / (b - a) * seg.length
        return [t] if 0.0 < t < seg.length else []
    k = (c - seg.centre[axis]) / seg.radius
    if not -1.0 <= k <= 1.0:
        return []
    if axis == 0:
        phi = math.acos(k)
        return _arc_params(seg, (phi, -phi))
    phi = math.asin(k)
    return _arc_params(seg, (phi, math.pi - phi))


def _arc_params(seg, angles):
    """Local arclengths strictly inside an arc at which it passes the given
    polar angles (seen from its centre)."""
    out = []
    for phi in angles:
        t = ((seg.direction * (phi - seg.start_angle)) % (2.0 * math.pi)
             * seg.radius)
        if 0.0 < t < seg.length:
            out.append(t)
    return out

