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

from . import _core_py
from .dubins import sample_reference
from .optimize import minimize_box

_DIFF_CODES = {"backward": 0, "forward": 1, "centered": 2}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights, and actuator bounds for the receding-horizon solve.

    Np: prediction horizon (steps, 1..64); dt: control period (s); a1:
    attractive weight; b1/b2: upper/lower boundary repulsion weights; b3:
    yaw acceleration weight; delta_max: steering bound (rad);
    Td_max/Tb_max: driving/braking torque bounds (N m).

    predictor_yaw_divisor selects "Iz" (physical) or "m" (reproduces a
    quirk of the discrete predictor as sometimes written).  yaw_accel_diff
    selects the finite difference used for the smoothness term; "forward"
    is the default because it leaves the first step's yaw change unpenalized
    relative to the measured rate, which keeps the closed loop from locking
    in yaw momentum it can only see the consequences of beyond the horizon.

    solver_tol is the stationarity test of the box solver: a solve counts
    as converged when the largest projected-gradient entry, each control
    measured in units of its box span, is at most solver_tol * (1 + |J|).
    Below about 1e-7 it asks for more than the cost's rounding lets a line
    search resolve, and solves end unconverged on "line_search".
    solver_max_iter (an int, at least 1) caps the solver's accepted steps in
    one solve_step.
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
    solver_tol: float = 1e-6
    solver_max_iter: int = 60
    predictor_yaw_divisor: str = "Iz"
    yaw_accel_diff: str = "forward"

    def __post_init__(self):
        if not (_is_int(self.Np) and 1 <= self.Np <= 64):
            raise ValueError("Np must be an int in 1..64")
        for name in ("dt", "a1", "b1", "b2", "b3", "delta_max", "Td_max",
                     "Tb_max", "solver_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        for name in ("a1", "b1", "b2", "b3", "solver_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (_is_int(self.solver_max_iter) and self.solver_max_iter >= 1):
            raise ValueError(f"solver_max_iter must be >= 1 and an int, "
                             f"got {self.solver_max_iter!r}")
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
class SolveResult:
    u0: tuple            # (delta_f, Tr) applied this step
    sequence: tuple      # ((delta_f, Tr), ...) over the horizon
    cost: float
    converged: bool
    fallback: bool       # solver could not produce a finite cost
    n_eval: int          # value-and-gradient evaluations, seed included
    hessian: tuple = None  # curvature estimate for the next step's solve
    iterations: int = 0  # accepted steps of the solve
    stop: str = None     # the solve's BoxResult.stop
    residual: float = None  # the solve's BoxResult.residual


def flatten_pairs(pairs):
    """[a0, b0, a1, b1, ...] from a sequence of pairs: the flat layout the
    kernels take for controls and reference points."""
    flat = []
    for pair in pairs:
        flat.append(pair[0])
        flat.append(pair[1])
    return flat


def horizon_objective(kernel, state, road, refs, params, cfg):
    """``kernel`` (``_core_py.horizon_cost``, or
    ``_core_py.horizon_cost_grad`` for the gradient too; the first is the
    second's value) bound to one step's problem: the state, refs, road
    boundaries and cfg's weights; obstacles reach it only through refs, the
    plan's points.  Returns the cost as a function of the flat controls."""
    sx = (state.vx, state.vy, state.r, state.X, state.Y, state.psi)
    args = (params.m, params.Iz, params.lf, params.lr, params.Caf,
            params.Car, params.Rw, cfg.dt, cfg.yaw_div_m,
            tuple(flatten_pairs(refs)),
            road.upper_boundary_y, road.lower_boundary_y,
            cfg.a1, cfg.b1, cfg.b2, cfg.b3, cfg.diff_code, (), 0.0)
    return lambda z: kernel(*sx, z, *args)


def reference_for_horizon(path, s0, n_steps, dt):
    """The horizon's timetable on the plan: for i = 1..n_steps the point at
    arclength s0 + i * dt * v, clamped to the path end, where v is the
    path's design speed (the pace the geometry was planned at) and s0 the
    ego's nearest arclength.  Returns a tuple of (x, y) pairs."""
    out = []
    for i in range(1, n_steps + 1):
        s = min(s0 + i * dt * path.design_speed, path.total_length)
        x, y, _, _ = sample_reference(path, s)
        out.append((x, y))
    return tuple(out)


def shift_warm_start(seq):
    """Receding-horizon warm start: drop the applied step, repeat the last."""
    return tuple(seq[1:]) + (seq[-1],)


def zero_sequence(cfg):
    return ((0.0, 0.0),) * cfg.Np


def difference_hessian(fg, x, steps):
    """Central differences of fg's gradient at x, symmetrised: a Hessian
    estimate as a tuple of rows, or None when any of the 2 * len(x)
    evaluations is not finite.  steps holds one positive step per
    coordinate."""
    n = len(x)
    cols = []
    for k in range(n):
        hi = list(x)
        lo = list(x)
        hi[k] += steps[k]
        lo[k] -= steps[k]
        f_hi, g_hi = fg(hi)
        f_lo, g_lo = fg(lo)
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            return None
        width = hi[k] - lo[k]
        cols.append([(p - q) / width for p, q in zip(g_hi, g_lo)])
    return tuple(tuple(0.5 * (cols[a][b] + cols[b][a]) for b in range(n))
                 for a in range(n))


def solve_step(state, road, refs, params, cfg, warm, hessian=None):
    """One receding-horizon solve; returns the first control plus diagnostics.

    refs holds the horizon's reference points (``reference_for_horizon``),
    the only view of the plan the solve has.

    Minimizes the horizon cost over the steering/torque box with one solve
    from the warm start clipped to the box, so the result never scores
    worse than that start.  When the solve yields no finite cost the warm
    start is returned clipped to the box with fallback=True.

    The solver's curvature estimate starts from ``hessian``, normally the
    previous step's ``SolveResult.hessian``: consecutive problems differ
    little.  Without one (a run's first step) it is estimated by central
    differences of the gradient at the clipped warm start (2 * len(controls)
    evaluations, counted in n_eval), or the identity when that fails.  The
    result's hessian is the solver's final estimate, or ``hessian`` itself
    on fallback.
    """
    # (J, dJ/dz) of the flat control sequence z
    objective = horizon_objective(_core_py.horizon_cost_grad, state, road,
                                  refs, params, cfg)

    lower = [-cfg.delta_max, -cfg.Tb_max] * cfg.Np
    upper = [cfg.delta_max, cfg.Td_max] * cfg.Np
    warm_flat = flatten_pairs(warm)
    warm_clipped = [min(upper[j], max(lower[j], warm_flat[j]))
                    for j in range(2 * cfg.Np)]

    seed = hessian
    n_eval = 0
    if seed is None:
        seed = difference_hessian(
            objective, warm_clipped,
            [1e-6 * (u - lo) for lo, u in zip(lower, upper)])
        n_eval = 2 * len(warm_clipped)

    box = minimize_box(objective, lower, upper, warm_clipped,
                       tol=cfg.solver_tol, max_iter=cfg.solver_max_iter,
                       hessian=seed)
    n_eval += box.n_eval

    # With no finite cost, box.x is warm_clipped: minimize_box clips its
    # start the same way and returns it.
    finite = math.isfinite(box.fun)
    seq = tuple((box.x[2 * i], box.x[2 * i + 1]) for i in range(cfg.Np))
    return SolveResult(u0=seq[0], sequence=seq, cost=box.fun,
                       converged=box.converged, fallback=not finite,
                       n_eval=n_eval,
                       hessian=box.hessian if finite else hessian,
                       iterations=box.iterations, stop=box.stop,
                       residual=box.residual)
