"""Closed-loop simulation and metrics.

Runs a scenario under either the integrated receding-horizon controller or
a two-level baseline (geometric plan, then a pure-pursuit tracker with a
proportional speed hold).  One run is strictly sequential; independent runs
share no state and may execute in parallel.

The baseline's internals are an editorial stand-in for "plan first, track
second" architectures: the planner is the same path construction, the
tracker knows nothing about the cost function.
"""

import math
from dataclasses import dataclass

from . import dynamics, kernels
from .dubins import (PathConstructionError, build_lane_change_path,
                     nearest_arclength, sample_reference)
from .mpc import (horizon_objective, reference_for_horizon, shift_warm_start,
                  solve_step, zero_sequence)
from .scenario import min_obstacle_clearance

# Consecutive non-finite solves tolerated before a run aborts.
_MAX_FALLBACKS = 3

# Most control steps, round(duration / dt), that one run may take.
_MAX_STEPS = 100_000

# Two-level baseline (editorial): lookahead distance (m) and proportional
# torque gain (N m per m/s of speed error).  The short lookahead makes the
# tracker tight enough to stay clear of obstacle boundaries at the cost of
# a visibly busier yaw response.
_LOOKAHEAD = 2.5
_SPEED_GAIN = 400.0


class SimulationAborted(RuntimeError):
    """A run stopped early; carries the partial log and the cause."""

    def __init__(self, cause, log):
        super().__init__(cause)
        self.cause = cause
        self.log = log


@dataclass(frozen=True)
class LogRow:
    t: float
    state: dynamics.VehicleState
    control: tuple          # (delta_f, Tr)
    cost: float
    ref_x: float
    ref_y: float
    lateral_error: float    # distance to the plan driven at this step
    clearance: float
    converged: bool


@dataclass(frozen=True)
class SimulationLog:
    rows: tuple
    dt: float
    controller: str


@dataclass(frozen=True)
class Metrics:
    rms_lateral_error: float
    max_lateral_error: float
    min_clearance: float
    yaw_smoothness: float        # sum dt * ((r_k - r_{k-1}) / dt)^2
    control_saturation_fraction: float


class _Abort(Exception):
    """A controller's reason to stop the run; ``run`` attaches the log."""


def step_count(scenario, cfg):
    """The run's control steps, round(duration / dt); raises ValueError
    when that is more than _MAX_STEPS."""
    # Compared before rounding, so that an inf quotient is refused too.
    if scenario.duration / cfg.dt > _MAX_STEPS + 0.5:
        raise ValueError(f"duration={scenario.duration!r}, dt={cfg.dt!r}:"
                         f" more than {_MAX_STEPS} control steps")
    return int(round(scenario.duration / cfg.dt))


def run(scenario, params, cfg, controller="integrated", path=None):
    """Simulate a scenario closed-loop under ``controller`` ("integrated"
    or "two_level") and return the SimulationLog.

    Static-obstacle runs plan the reference once.  Dynamic runs rebuild it
    against predicted obstacle positions at each step where the current plan
    has the ego on its home-lane straight; in a swerve they drive the plan
    they have.  Each step locates the ego on the plan once (and again on
    an accepted rebuild's plan); the controller gets that arclength and
    the horizon's reference points from it, and the log keeps the distance
    as the step's lateral error.  ``path``, when given, is the
    initial plan already built (as ``build_lane_change_path(scenario,
    params)`` returns it), so a caller that has it is spared a rebuild.
    Raises ValueError for an unknown controller or a run of more than
    100,000 steps (see ``step_count``), and SimulationAborted (with the
    partial log attached) on plant failure or persistent solver failure.
    """
    if controller not in _CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")
    n_steps = step_count(scenario, cfg)
    dynamic = any(ob.is_moving for ob in scenario.obstacles)
    rows = []

    def abort(cause):
        raise SimulationAborted(
            cause, SimulationLog(tuple(rows), cfg.dt, controller))

    state = scenario.ego_initial
    if path is None:
        path = build_lane_change_path(scenario, params)
    control = _CONTROLLERS[controller](scenario, params, cfg)
    for k in range(n_steps + 1):
        t = k * cfg.dt
        s, err = nearest_arclength(path, state.X, state.Y)
        if dynamic and k > 0 and _on_home_straight(path, s):
            try:
                # The arc radius stays at the manoeuvre design speed even
                # as the actual speed drifts (the cost has no speed
                # setpoint); arrivals are predicted at the ego's speed.
                path = build_lane_change_path(scenario, params, at_time=t,
                                              ego=state)
                s, err = nearest_arclength(path, state.X, state.Y)
            except PathConstructionError:
                # Boxed in: drive the last feasible plan and let the
                # clearance metric judge the outcome.
                pass
        refs = reference_for_horizon(path, s, cfg.Np, cfg.dt)
        try:
            u, cost, converged = control(state, path, s, refs, t)
        except _Abort as exc:
            abort(str(exc))
        clearance = min_obstacle_clearance((state.X, state.Y), t, scenario)
        rows.append(LogRow(t=t, state=state, control=u, cost=cost,
                           ref_x=refs[0][0], ref_y=refs[0][1],
                           lateral_error=err, clearance=clearance,
                           converged=converged))
        if k < n_steps:
            try:
                state = dynamics.step(
                    state, dynamics.ControlInput(*u), params, cfg.dt)
            except (dynamics.LowSpeedError, dynamics.PlantFailureError) as exc:
                abort(f"plant failure at t={t:.2f}: {exc}")
    return SimulationLog(tuple(rows), cfg.dt, controller)


def _on_home_straight(path, s):
    """Whether the plan point at arclength s is on the home straight."""
    _, y, _, curvature = sample_reference(path, s)
    return curvature == 0.0 and y == path.waypoints[0][1]


def _integrated(scenario, params, cfg):
    """Receding-horizon control: one solve per step, warm-started from the
    previous solution shifted by one step and from the previous solve's
    curvature estimate."""
    warm = zero_sequence(cfg)
    hessian = None
    fallbacks = 0

    def control(state, path, s, refs, t):
        nonlocal warm, hessian, fallbacks
        res = solve_step(state, scenario.road, refs, params, cfg, warm,
                         hessian=hessian)
        fallbacks = fallbacks + 1 if res.fallback else 0
        if fallbacks >= _MAX_FALLBACKS:
            raise _Abort(f"solver produced no finite cost for {fallbacks} "
                         f"consecutive steps ending t={t:.2f}")
        warm = shift_warm_start(res.sequence)
        hessian = res.hessian
        return res.u0, res.cost, res.converged

    return control


def _two_level(scenario, params, cfg):
    """Two-level baseline tracker: pure pursuit (Coulter 1992) toward the
    plan point ``_LOOKAHEAD`` metres on from the nearest one, plus a
    proportional torque holding the initial speed, both clipped to the
    integrated controller's box.  The logged cost is the integrated cost the
    chosen control would score, for side-by-side comparison."""
    vx_ref = scenario.ego_initial.vx
    road = scenario.road
    wheelbase = params.lf + params.lr

    def control(state, path, s, refs, t):
        tx, ty, _, _ = sample_reference(
            path, min(s + _LOOKAHEAD, path.total_length))
        alpha = math.atan2(ty - state.Y, tx - state.X) - state.psi
        alpha = (alpha + math.pi) % (2.0 * math.pi) - math.pi
        delta = math.atan2(2.0 * wheelbase * math.sin(alpha), _LOOKAHEAD)
        delta = min(cfg.delta_max, max(-cfg.delta_max, delta))
        torque = _SPEED_GAIN * (vx_ref - state.vx)
        torque = min(cfg.Td_max, max(-cfg.Tb_max, torque))
        horizon_cost = horizon_objective(kernels.active().horizon_cost,
                                         state, road, refs, params, cfg)
        cost = horizon_cost([delta, torque] * cfg.Np)
        return (delta, torque), cost, True

    return control


# Per-step controllers by name: each is built once per run and returns
# ``control(state, path, s, refs, t) -> (u, cost, converged)``, where s is
# the ego's nearest arclength on the plan and refs the horizon's
# reference points from it.
_CONTROLLERS = {"integrated": _integrated, "two_level": _two_level}


def compute_metrics(log, cfg):
    """Metrics over a completed log; the lateral error is each row's
    logged distance to the plan driven at that step."""
    if not log.rows:
        raise ValueError("empty log")
    sq_sum = 0.0
    max_err = 0.0
    min_clear = math.inf
    smooth = 0.0
    saturated = 0
    prev_r = None
    for row in log.rows:
        err = row.lateral_error
        sq_sum += err * err
        if err > max_err:
            max_err = err
        if row.clearance < min_clear:
            min_clear = row.clearance
        if prev_r is not None:
            rate = (row.state.r - prev_r) / log.dt
            smooth += log.dt * rate * rate
        prev_r = row.state.r
        delta, torque = row.control
        if (abs(delta) >= cfg.delta_max or torque >= cfg.Td_max
                or torque <= -cfg.Tb_max):
            saturated += 1
    n = len(log.rows)
    return Metrics(rms_lateral_error=math.sqrt(sq_sum / n),
                   max_lateral_error=max_err,
                   min_clearance=min_clear,
                   yaw_smoothness=smooth,
                   control_saturation_fraction=saturated / n)
