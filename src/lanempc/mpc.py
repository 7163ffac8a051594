"""Integrated planner/controller solve.

One receding-horizon step: predict the vehicle over a short horizon with a
chained one-step-Euler model, score predicted positions with a potential
field (attraction to the reference path, reciprocal-quartic repulsion from
the road boundaries, a yaw-acceleration smoothness term), and minimize over
the steering/torque box with a projected quasi-Newton method fed by the
cost's exact gradient.  Pure functions throughout; solves on independent
scenarios may run concurrently.
"""

import math
from dataclasses import dataclass

from . import kernels
from .dubins import reference_for_horizon
from .dynamics import LowSpeedError
from .optimize import minimize_box
from .scenario import obstacle_pose_at

_DIFF_CODES = {"backward": 0, "forward": 1, "centered": 2}


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights, and actuator bounds for the receding-horizon solve.

    Np: prediction horizon (steps); dt: control period (s); a1: attractive
    weight; b1/b2: upper/lower boundary repulsion weights; b3: yaw
    acceleration weight; delta_max: steering bound (rad); Td_max/Tb_max:
    driving/braking torque bounds (N m).

    predictor_yaw_divisor selects "Iz" (physical) or "m" (reproduces a
    quirk of the discrete predictor as sometimes written).  yaw_accel_diff
    selects the finite difference used for the smoothness term; "forward"
    is the default because it leaves the first step's yaw change unpenalized
    relative to the measured rate, which keeps the closed loop from locking
    in yaw momentum it can only see the consequences of beyond the horizon.
    obstacle_weight > 0 adds reciprocal-quartic repulsion from obstacle
    centres to the cost (off by default; obstacles are normally handled by
    the reference path alone).

    solver_tol is the stationarity test of the box solver: a solve counts
    as converged when the largest projected-gradient entry, each control
    measured in units of its box span, is at most solver_tol * (1 + |J|).
    solver_max_iter caps the solver's accepted steps per start.
    """

    Np: int = 3
    dt: float = 0.1
    a1: float = 1.0
    b1: float = 0.001
    b2: float = 0.001
    b3: float = 0.01
    delta_max: float = math.radians(45.0)
    Td_max: float = 200.0
    Tb_max: float = 160.0
    obstacle_weight: float = 0.0
    solver_tol: float = 1e-9
    solver_max_iter: int = 60
    predictor_yaw_divisor: str = "Iz"
    yaw_accel_diff: str = "forward"

    def __post_init__(self):
        if not (isinstance(self.Np, int) and 1 <= self.Np <= kernels.MAX_STEPS):
            raise ValueError(f"Np must be an int in 1..{kernels.MAX_STEPS}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        for name in ("a1", "b1", "b2", "b3", "obstacle_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("delta_max", "Td_max", "Tb_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.predictor_yaw_divisor not in ("Iz", "m"):
            raise ValueError("predictor_yaw_divisor must be 'Iz' or 'm'")
        if self.yaw_accel_diff not in _DIFF_CODES:
            raise ValueError(
                f"yaw_accel_diff must be one of {sorted(_DIFF_CODES)}")

    @property
    def diff_code(self):
        return _DIFF_CODES[self.yaw_accel_diff]

    @property
    def yaw_div_m(self):
        return self.predictor_yaw_divisor == "m"


@dataclass(frozen=True)
class PredictedTrajectory:
    """Per-step predictions (tuples of length Np) plus the measured yaw rate
    the chain started from."""

    xa: tuple
    ya: tuple
    vx: tuple
    vy: tuple
    r: tuple
    psi: tuple
    fcf: tuple
    fcr: tuple
    vxg: tuple
    vyg: tuple
    r0: float


@dataclass(frozen=True)
class BoundarySamples:
    """Boundary points abreast of each predicted position."""

    xu: tuple
    yu: tuple
    xl: tuple
    yl: tuple


@dataclass(frozen=True)
class SolveResult:
    u0: tuple            # (delta_f, Tr) applied this step
    sequence: tuple      # ((delta_f, Tr), ...) over the horizon
    cost: float
    refs: tuple          # ((Xd, Yd), ...) reference points used
    converged: bool
    fallback: bool       # solver could not produce a finite cost
    n_eval: int          # value-and-gradient evaluations, both starts


def flatten_pairs(pairs):
    """[a0, b0, a1, b1, ...] from a sequence of pairs: the flat layout the
    kernels take for controls, reference points and obstacle points."""
    flat = []
    for pair in pairs:
        flat.append(pair[0])
        flat.append(pair[1])
    return flat


def predict(state, seq, params, cfg):
    """Chained Euler prediction of the state under a control sequence."""
    controls = flatten_pairs(seq)
    try:
        arrays = kernels.active().predict_steps(
            state.vx, state.vy, state.r, state.X, state.Y, state.psi,
            controls, params.m, params.Iz, params.lf, params.lr,
            params.Caf, params.Car, params.Rw, cfg.dt, cfg.yaw_div_m)
    except ValueError as exc:
        raise LowSpeedError(str(exc)) from None
    return PredictedTrajectory(*arrays, r0=state.r)


def boundary_samples(road, traj):
    """Upper/lower boundary points abreast of each predicted position."""
    n = len(traj.xa)
    return BoundarySamples(xu=traj.xa, yu=(road.upper_boundary_y,) * n,
                           xl=traj.xa, yl=(road.lower_boundary_y,) * n)


def cost(traj, refs, bounds, cfg, obstacle_points=()):
    """Potential-field cost of a predicted trajectory.

    refs is a sequence of (Xd, Yd) pairs, one per horizon step.  A predicted
    point exactly on a boundary sample gives +inf (sentinel, not an
    exception).  obstacle_points adds optional per-obstacle repulsion scored
    with cfg.obstacle_weight.
    """
    return kernels.active().trajectory_cost(
        traj.xa, traj.ya, traj.r, traj.r0, cfg.dt, flatten_pairs(refs),
        bounds.xu, bounds.yu, bounds.xl, bounds.yl,
        cfg.a1, cfg.b1, cfg.b2, cfg.b3, cfg.diff_code,
        flatten_pairs(obstacle_points), cfg.obstacle_weight)


def horizon_objective(kernel, state, scenario, refs, params, cfg,
                      at_time=0.0):
    """``kernel`` (``horizon_cost`` or a derivative variant) bound to one
    step's problem: the state, refs, road boundaries, cfg's weights and,
    when cfg.obstacle_weight is set, the obstacle poses at at_time.
    Returns a function of the flat control sequence."""
    road = scenario.road
    obs_points = ()
    if cfg.obstacle_weight != 0.0:
        obs_points = [obstacle_pose_at(ob, at_time)
                      for ob in scenario.obstacles]
    sx = (state.vx, state.vy, state.r, state.X, state.Y, state.psi)
    args = (params.m, params.Iz, params.lf, params.lr, params.Caf,
            params.Car, params.Rw, cfg.dt, cfg.yaw_div_m,
            tuple(flatten_pairs(refs)),
            road.upper_boundary_y, road.lower_boundary_y,
            cfg.a1, cfg.b1, cfg.b2, cfg.b3, cfg.diff_code,
            tuple(flatten_pairs(obs_points)), cfg.obstacle_weight)
    return lambda z: kernel(*sx, z, *args)


def shift_warm_start(seq):
    """Receding-horizon warm start: drop the applied step, repeat the last."""
    return tuple(seq[1:]) + (seq[-1],)


def zero_sequence(cfg):
    return ((0.0, 0.0),) * cfg.Np


def solve_step(state, scenario, path, params, cfg, warm, at_time=0.0):
    """One receding-horizon solve; returns the first control plus diagnostics.

    Minimizes the horizon cost over the steering/torque box with two
    deterministic starts (the warm start and zero controls), so the result
    never scores worse than either.  When no start yields a finite cost the
    warm start is returned clipped to the box with fallback=True.
    """
    refs = reference_for_horizon(path, state, cfg.Np, cfg.dt)
    backend = kernels.active()
    # (J, dJ/dz), and (J, dJ/dz, Gauss-Newton d2J/dz2) to seed each start
    objective = horizon_objective(backend.horizon_cost_grad, state, scenario,
                                  refs, params, cfg, at_time)
    curvature = horizon_objective(backend.horizon_cost_gn, state, scenario,
                                  refs, params, cfg, at_time)

    lower = [-cfg.delta_max, -cfg.Tb_max] * cfg.Np
    upper = [cfg.delta_max, cfg.Td_max] * cfg.Np
    warm_flat = flatten_pairs(warm)
    warm_clipped = [min(upper[j], max(lower[j], warm_flat[j]))
                    for j in range(2 * cfg.Np)]

    starts = [warm_clipped]
    zeros = [0.0] * (2 * cfg.Np)
    if zeros != warm_clipped:
        starts.append(zeros)

    best = None
    n_eval = 0
    for x0 in starts:
        res = minimize_box(objective, lower, upper, x0,
                           tol=cfg.solver_tol, max_iter=cfg.solver_max_iter,
                           fgh=curvature)
        n_eval += res.n_eval
        if best is None or res.fun < best.fun:
            best = res

    if not math.isfinite(best.fun):
        seq = tuple((warm_clipped[2 * i], warm_clipped[2 * i + 1])
                    for i in range(cfg.Np))
        return SolveResult(u0=seq[0], sequence=seq, cost=best.fun, refs=refs,
                           converged=False, fallback=True, n_eval=n_eval)

    seq = tuple((best.x[2 * i], best.x[2 * i + 1]) for i in range(cfg.Np))
    return SolveResult(u0=seq[0], sequence=seq, cost=best.fun, refs=refs,
                       converged=best.converged, fallback=False, n_eval=n_eval)
