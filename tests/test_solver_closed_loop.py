"""The solver inside the closed loop: deterministic effort bounds on the
shipped three-vehicle runs, and an optional check of every solve against
scipy's L-BFGS-B on the same problems."""

import dataclasses
import math

import pytest

from lanempc import harness, kernels
from lanempc.harness import run
from lanempc.mpc import horizon_objective

from shipped import load_scenario

SCENARIOS = {"static": "static_three_vehicle",
             "dynamic": "dynamic_three_vehicle"}
# Mean kernel evaluations per control step, each the measured value plus
# about 5%: at the default Np=3, 4.99 (static) and 4.52 (dynamic), the
# first step's difference seed included.
MAX_MEAN_EVAL = {"static": 5.25, "dynamic": 4.75}
# The same at longer horizons: measured 8.21 / 6.20 at Np=5 and
# 19.25 / 14.11 at Np=8.
MAX_MEAN_EVAL_LONGER = {("static", 5): 8.6, ("dynamic", 5): 6.5,
                        ("static", 8): 20.2, ("dynamic", 8): 14.8}


def _recorded_solves(scenario_name, params, cfg):
    """Every solve_step call of one shipped run: (args, kwargs, result)."""
    calls = []
    original = harness.solve_step

    def recording(*args, **kwargs):
        res = original(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    harness.solve_step = recording
    try:
        run(load_scenario(scenario_name), params, cfg)
    finally:
        harness.solve_step = original
    return calls


@pytest.fixture(scope="module")
def solves(params, cfg):
    """Every solve_step call of the two shipped runs, by scenario."""
    return {name: _recorded_solves(scenario_name, params, cfg)
            for name, scenario_name in SCENARIOS.items()}


def _check_effort(results, max_mean_eval):
    mean_eval = sum(r.n_eval for r in results) / len(results)
    converged = sum(r.converged for r in results) / len(results)
    assert mean_eval <= max_mean_eval, f"{mean_eval:.2f} evaluations per step"
    assert converged >= 0.99, f"converged on {converged:.3f} of steps"
    assert not any(r.fallback for r in results)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_solver_effort_bounds(solves, name):
    _check_effort([res for _, _, res in solves[name]], MAX_MEAN_EVAL[name])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_carried_curvature_is_exactly_symmetric(solves, name):
    # The solver updates only B's upper triangle and mirrors it, which is
    # exact only for a symmetric B; every estimate handed on is one.
    for _, _, res in solves[name]:
        h = res.hessian
        assert all(h[a][b].hex() == h[b][a].hex()
                   for a in range(len(h)) for b in range(a))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stop_reason_and_residual_reach_the_solve_result(solves, cfg, name):
    for _, _, res in solves[name]:
        assert res.stop == "tolerance" and res.converged
        # each accepted step costs at least one evaluation after the start
        assert 0 <= res.iterations < res.n_eval
        assert res.residual <= cfg.solver_tol * (1.0 + abs(res.cost))


@pytest.mark.parametrize("name,horizon", sorted(MAX_MEAN_EVAL_LONGER))
def test_solver_effort_bounds_longer_horizons(params, cfg, name, horizon):
    calls = _recorded_solves(SCENARIOS[name], params,
                             dataclasses.replace(cfg, Np=horizon))
    _check_effort([res for _, _, res in calls],
                  MAX_MEAN_EVAL_LONGER[name, horizon])


def _objective(args, kwargs):
    state, road, refs, params, cfg, _ = args
    fg = horizon_objective(kernels.active().horizon_cost_grad, state, road,
                           refs, params, cfg)
    return lambda z: fg(list(z))


def test_no_worse_than_lbfgsb(solves):
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    worst = 0.0
    for name in sorted(SCENARIOS):
        for args, kwargs, res in solves[name]:
            cfg, warm = args[4], args[5]
            fg = _objective(args, kwargs)
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
