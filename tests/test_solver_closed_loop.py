"""The solver inside the closed loop: deterministic effort bounds on the
shipped three-vehicle runs, and an optional check of every solve against
scipy's L-BFGS-B on the same problems."""

import math

import pytest

from lanempc import harness, kernels
from lanempc.dubins import reference_for_horizon
from lanempc.harness import run
from lanempc.scenario import dynamic_three_vehicle, static_three_vehicle

SCENARIOS = {"static": static_three_vehicle, "dynamic": dynamic_three_vehicle}


@pytest.fixture(scope="module")
def solves(params, cfg):
    """Every solve_step call of the two shipped runs: (arguments, result)."""
    recorded = {}
    original = harness.solve_step
    for name, make in SCENARIOS.items():
        calls = recorded[name] = []

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            calls.append((args, kwargs, res))
            return res

        harness.solve_step = recording
        try:
            run(make(), params, cfg)
        finally:
            harness.solve_step = original
    return recorded


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_solver_effort_bounds(solves, name):
    results = [res for _, _, res in solves[name]]
    mean_eval = sum(r.n_eval for r in results) / len(results)
    converged = sum(r.converged for r in results) / len(results)
    assert mean_eval <= 30, f"{mean_eval:.1f} evaluations per step"
    assert converged >= 0.99, f"converged on {converged:.3f} of steps"
    assert not any(r.fallback for r in results)


def _objective(args):
    state, scenario, path, params, cfg, _ = args
    # Obstacle terms are off by default, so at_time plays no part.
    assert cfg.obstacle_weight == 0.0
    refs = reference_for_horizon(path, state, cfg.Np, cfg.dt)
    road = scenario.road
    rest = (params.m, params.Iz, params.lf, params.lr, params.Caf,
            params.Car, params.Rw, cfg.dt, cfg.yaw_div_m,
            tuple(v for p in refs for v in p), road.upper_boundary_y,
            road.lower_boundary_y, cfg.a1, cfg.b1, cfg.b2, cfg.b3,
            cfg.diff_code, (), 0.0)
    sx = (state.vx, state.vy, state.r, state.X, state.Y, state.psi)
    hcg = kernels.active().horizon_cost_grad
    return lambda z: hcg(*sx, list(z), *rest)


def test_no_worse_than_lbfgsb(solves):
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    worst = 0.0
    for name in sorted(SCENARIOS):
        for args, _, res in solves[name]:
            cfg, warm = args[4], args[5]
            fg = _objective(args)
            lower = [-cfg.delta_max, -cfg.Tb_max] * cfg.Np
            upper = [cfg.delta_max, cfg.Td_max] * cfg.Np
            warm_flat = [v for pair in warm for v in pair]
            starts = [[min(u, max(lo, v))
                       for v, lo, u in zip(warm_flat, lower, upper)],
                      [0.0] * (2 * cfg.Np)]

            def f(z):
                value, grad = fg(z)
                if grad is None:
                    return 1e300, np.zeros(len(z))
                return value, np.array(grad)

            best = math.inf
            for x0 in starts:
                out = optimize.minimize(
                    f, np.array(x0), jac=True, method="L-BFGS-B",
                    bounds=list(zip(lower, upper)),
                    options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
                best = min(best, float(out.fun))
            assert res.cost <= best * (1.0 + 1e-3), (name, res.cost, best)
            worst = max(worst, (res.cost - best) / best)
    print(f"worst relative gap to L-BFGS-B: {worst:.2e}")
