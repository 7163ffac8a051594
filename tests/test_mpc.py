import math
import random

import pytest

from lanempc import _core_py, kernels, mpc
from lanempc.dubins import build_lane_change_path, nearest_arclength
from lanempc.dynamics import VehicleState, state_derivative, ControlInput
from lanempc.mpc import (MpcConfig, difference_hessian, flatten_pairs,
                         horizon_objective, reference_for_horizon,
                         shift_warm_start, solve_step, zero_sequence)
from lanempc.optimize import minimize_box
from lanempc.scenario import Obstacle, Road, Scenario

from fd_reference import fd_gradient


def S(vx=10.0, vy=0.0, r=0.0, X=0.0, Y=0.0, psi=0.0):
    return VehicleState(vx=vx, vy=vy, r=r, X=X, Y=Y, psi=psi)


def chain(state, seq, params, cfg):
    """The Euler chain's ``(xa, ya, rs, tape)`` for state under the
    control pairs seq (``_core_py._chain``)."""
    return _core_py._chain(
        state.vx, state.vy, state.r, state.X, state.Y, state.psi,
        flatten_pairs(seq), params.m, params.Iz, params.lf, params.lr,
        params.Caf, params.Car, params.Rw, cfg.dt, cfg.yaw_div_m)


def seq_cost(state, seq, road, refs, params, cfg):
    """The horizon cost of the control pairs seq, by the kernel the
    solver runs."""
    return horizon_objective(kernels.active().horizon_cost, state, road,
                             refs, params, cfg)(flatten_pairs(seq))


def plan_refs(path, state, cfg):
    """The references the driver hands a solve: cfg's horizon timetable
    from the ego's nearest arclength on the plan."""
    s, _ = nearest_arclength(path, state.X, state.Y)
    return reference_for_horizon(path, s, cfg.Np, cfg.dt)


def wide_road_scenario():
    """Straight reference far from any boundary (17.5 m to the nearest)."""
    return Scenario(road=Road(lane_width=17.5, lower_boundary_y=-8.75),
                    obstacles=(), ego_initial=S(), duration=6.0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = MpcConfig()
        assert cfg.Np == 3 and cfg.dt == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"Np": 0}, {"Np": 200}, {"dt": 0.0}, {"a1": -1.0}, {"b3": -0.1},
        {"delta_max": 0.0}, {"Td_max": -5.0},
        {"predictor_yaw_divisor": "Jz"}, {"yaw_accel_diff": "sideways"},
        {"solver_tol": -1.0}, {"solver_max_iter": 0},
        {"solver_max_iter": 2.5}, {"solver_max_iter": math.nan},
        {"solver_max_iter": math.inf}, {"solver_max_iter": True},
        {"Np": True}, {"Np": 3.0}, {"dt": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MpcConfig(**kwargs)

    def test_has_no_obstacle_weight(self):
        # Obstacles reach the cost only through the plan's reference points.
        with pytest.raises(TypeError):
            MpcConfig(obstacle_weight=0.5)

    def test_horizon_limit_is_64_steps(self):
        assert MpcConfig(Np=64).Np == 64
        with pytest.raises(ValueError, match=r"Np must be an int in 1\.\.64"):
            MpcConfig(Np=65)

    @pytest.mark.parametrize("name", ["dt", "b1", "delta_max", "Tb_max",
                                      "solver_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MpcConfig(**{name: value})


class TestPredict:
    def test_horizon_past_the_config_limit_is_predicted_and_scored(
            self, params, cfg):
        # The 1..64 limit on Np is MpcConfig's alone: the predictor and the
        # kernels take a horizon of any length.
        seq = ((0.002, 10.0),) * 65
        xa, ya, _, _ = chain(S(), seq, params, cfg)
        assert len(xa) == 65
        refs = tuple(zip(xa, ya))
        sc = wide_road_scenario()
        z = flatten_pairs(seq)
        j = horizon_objective(kernels.active().horizon_cost, S(), sc.road,
                              refs, params, cfg)(z)
        fg = horizon_objective(kernels.active().horizon_cost_grad, S(),
                               sc.road, refs, params, cfg)(z)
        assert math.isfinite(j)
        assert fg[0] == j and len(fg[1]) == 130

    def test_straight_line_euler(self, params, cfg):
        xa, ya, rs, _ = chain(S(X=5.0), zero_sequence(cfg), params, cfg)
        assert xa == [6.0, 7.0, 8.0]
        assert ya == [0.0, 0.0, 0.0]
        assert rs == [0.0, 0.0, 0.0]

    def test_one_step_chain_matches_formulas(self, params):
        cfg = MpcConfig(Np=1)
        d = 0.05
        xa, ya, rs, tape = chain(S(), ((d, 0.0),), params, cfg)
        fcf = -params.Caf * (0.0 / 10.0 - d)
        fcr = -params.Car * (0.0 / 10.0)
        vx1 = 10.0 + (0.0 - (2.0 / params.m)
                      * (fcf * math.sin(d) - 0.0 / params.Rw)) * 0.1
        vy1 = 0.0 + (-0.0 + (2.0 / params.m)
                     * (fcf * math.cos(d) + fcr)) * 0.1
        r1 = 0.0 + ((2.0 / params.Iz) * (params.lf * fcf
                                         - params.lr * fcr)) * 0.1
        _, _, _, _, _, fcf_got, cp, sp, vxg, vyg = tape[0]
        # At the new heading 0 the global velocity is (vx1, vy1) exactly;
        # fcr reaches the result through vy1 and r1.
        assert fcf_got == fcf
        assert vxg == vx1 and vyg == vy1 and rs[0] == r1
        assert (cp, sp) == (math.cos(0.0), math.sin(0.0))
        assert xa[0] == vx1 * math.cos(0.0) * 0.1 - vy1 * math.sin(0.0) * 0.1
        assert ya[0] == (vx1 * math.sin(0.0) + vy1 * math.cos(0.0)) * 0.1

    def test_deterministic(self, params, cfg):
        seq = ((0.03, 50.0), (-0.02, -30.0), (0.01, 10.0))
        a = chain(S(vy=0.2, r=0.05), seq, params, cfg)
        b = chain(S(vy=0.2, r=0.05), seq, params, cfg)
        assert a == b

    def test_speed_floor_raises(self, params, cfg):
        with pytest.raises(ValueError, match="below floor"):
            chain(S(vx=0.05), zero_sequence(cfg), params, cfg)

    def test_mid_horizon_floor_raises(self, params, cfg):
        # heavy braking from just above the floor crosses it inside the chain
        with pytest.raises(ValueError, match="predicted .* below floor"):
            chain(S(vx=0.12), ((0.0, -160.0),) * 3, params, cfg)

    def test_yaw_divisor_variant(self, params):
        base = MpcConfig(Np=1)
        quirk = MpcConfig(Np=1, predictor_yaw_divisor="m")
        d = 0.05
        a = chain(S(), ((d, 0.0),), params, base)[2]
        b = chain(S(), ((d, 0.0),), params, quirk)[2]
        assert a[0] == pytest.approx(b[0] * params.m / params.Iz, rel=1e-12)

    def test_consistency_with_continuous_dynamics(self, params):
        # One-step predicted rates approach the continuous derivative as
        # dt shrinks (first-order Euler).
        state = S(vy=0.3, r=0.1, psi=0.05)
        u = (0.04, 60.0)
        d = state_derivative(state, ControlInput(*u), params)

        def rate_error(dt):
            # Two steps, so that the second step's record starts from the
            # first step's body velocities and yaw rate.
            cfg = MpcConfig(Np=2, dt=dt)
            xa, ya, _, tape = chain(state, (u, u), params, cfg)
            vx1, vy1, r1 = tape[1][:3]
            psi1 = math.atan2(tape[0][7], tape[0][6])
            rates = ((vx1 - state.vx) / dt,
                     (vy1 - state.vy) / dt,
                     (r1 - state.r) / dt,
                     (xa[0] - state.X) / dt,
                     (ya[0] - state.Y) / dt,
                     (psi1 - state.psi) / dt)
            return max(abs(a - b) for a, b in zip(rates, d))

        e1, e2, e3 = rate_error(0.1), rate_error(0.01), rate_error(0.001)
        assert e2 < e1 and e3 < e2
        assert e3 < 0.05 * e1


def _flat_points(ys, rs=None, r0=0.0):
    """Hand-made predicted points: x = 1, 2, ..., the given ys, and yaw
    rates rs (all r0 when omitted)."""
    n = len(ys)
    return (tuple(float(i + 1) for i in range(n)), tuple(ys),
            tuple(rs or (r0,) * n))


def point_cost(points, refs, road, cfg, r0=0.0):
    """The cost sum (``_core_py._cost_partials``) of hand-made points, the
    chain having started from yaw rate r0; None stands for +inf."""
    xa, ya, rs = points
    parts = _core_py._cost_partials(
        xa, ya, rs, r0, cfg.dt, flatten_pairs(refs), road.upper_boundary_y,
        road.lower_boundary_y, cfg.a1, cfg.b1, cfg.b2, cfg.b3, cfg.diff_code,
        (), 0.0)
    return None if parts is None else parts[0]


class TestCost:
    def test_boundary_floor_formula(self):
        # On-reference trajectory equidistant (1.75 m) from both boundaries:
        # only the boundary terms remain.
        cfg = MpcConfig(a1=1.0, b1=0.4, b2=0.7, b3=1.0)
        pts = _flat_points([1.75, 1.75, 1.75])
        refs = tuple(zip(pts[0], pts[1]))
        road = Road(lane_width=1.75, lower_boundary_y=0.0)
        want = 3 * (cfg.b1 + cfg.b2) * (1.0 / 1.75 ** 2) ** 2
        assert point_cost(pts, refs, road, cfg) == pytest.approx(want,
                                                                 rel=1e-12)

    def test_zero_weights_zero_cost(self):
        cfg = MpcConfig(a1=0.0, b1=0.0, b2=0.0, b3=0.0)
        pts = _flat_points([3.5, 0.0, 1.2], rs=(0.5, -0.5, 0.2))
        refs = ((0.0, 9.0), (1.0, -9.0), (2.0, 4.0))
        road = Road(lane_width=1.75, lower_boundary_y=0.0)
        assert point_cost(pts, refs, road, cfg) == 0.0

    def test_attractive_term_scales_exactly(self):
        base = MpcConfig(a1=1.0, b1=0.0, b2=0.0, b3=0.0)
        double = MpcConfig(a1=2.0, b1=0.0, b2=0.0, b3=0.0)
        pts = _flat_points([0.4, 0.9, 1.3])
        refs = ((1.0, 0.0), (2.0, 0.2), (3.0, 0.6))
        road = Road(lane_width=1.75, lower_boundary_y=0.0)
        assert point_cost(pts, refs, road, double) == 2.0 * point_cost(
            pts, refs, road, base)

    def test_on_boundary_is_infinite_sentinel(self):
        cfg = MpcConfig(b1=0.001, b2=0.001)
        pts = _flat_points([3.5, 1.0, 1.0])
        refs = tuple(zip(pts[0], pts[1]))
        road = Road(lane_width=1.75, lower_boundary_y=0.0)
        assert point_cost(pts, refs, road, cfg) is None

    def test_yaw_term_backward_difference(self):
        cfg = MpcConfig(a1=0.0, b1=0.0, b2=0.0, b3=2.0,
                        yaw_accel_diff="backward")
        pts = _flat_points([0.0, 0.0, 0.0], rs=(0.2, 0.1, 0.1))
        refs = tuple(zip(pts[0], pts[1]))
        want = 2.0 * ((0.2 / 0.1) ** 2 + (-0.1 / 0.1) ** 2 + 0.0)
        road = Road(lane_width=99.0, lower_boundary_y=-99.0)
        assert point_cost(pts, refs, road, cfg, r0=0.0) == pytest.approx(
            want, rel=1e-12)


class TestSolveStep:
    def test_straight_far_from_boundaries(self, params):
        cfg = MpcConfig()
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, params)
        refs = plan_refs(path, S(X=10.0), cfg)
        res = solve_step(S(X=10.0), sc.road, refs, params, cfg,
                         zero_sequence(cfg))
        assert abs(res.u0[0]) < 1e-3
        j_zero = seq_cost(S(X=10.0), zero_sequence(cfg), sc.road, refs,
                          params, cfg)
        assert res.cost <= j_zero + 1e-12
        assert j_zero - res.cost < 1e-6

    def test_deterministic(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        state = S(vy=0.1, r=0.05, X=25.0, Y=0.2, psi=0.02)
        warm = ((0.05, 20.0),) * 3
        refs = plan_refs(path, state, cfg)
        a = solve_step(state, static_scenario.road, refs, params, cfg,
                       warm)
        b = solve_step(state, static_scenario.road, refs, params, cfg,
                       warm)
        assert a == b

    def test_result_always_inside_box(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        warm = ((2.0, 500.0),) * 3  # far outside the box on purpose
        state = S(X=30.0, Y=0.5)
        res = solve_step(state, static_scenario.road,
                         plan_refs(path, state, cfg), params, cfg, warm)
        for d, tq in res.sequence:
            assert -cfg.delta_max <= d <= cfg.delta_max
            assert -cfg.Tb_max <= tq <= cfg.Td_max

    def test_never_worse_than_warm_start(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        state = S(X=28.0, Y=0.1, psi=0.05)
        warm = ((0.1, 100.0),) * 3
        refs = plan_refs(path, state, cfg)
        res = solve_step(state, static_scenario.road, refs, params, cfg,
                         warm)
        j_warm = seq_cost(state, warm, static_scenario.road, refs, params,
                          cfg)
        assert res.cost <= j_warm

    def test_grid_oracle_single_step(self, params, static_scenario):
        cfg = MpcConfig(Np=1)
        path = build_lane_change_path(static_scenario, params)
        state = S(vy=0.15, r=-0.05, X=31.0, Y=0.4, psi=0.03)
        refs = plan_refs(path, state, cfg)
        res = solve_step(state, static_scenario.road, refs, params, cfg,
                         zero_sequence(cfg))
        best = math.inf
        for i in range(61):
            d = -cfg.delta_max + i * (2 * cfg.delta_max / 60)
            for j in range(61):
                tq = -cfg.Tb_max + j * ((cfg.Td_max + cfg.Tb_max) / 60)
                val = seq_cost(state, ((d, tq),), static_scenario.road, refs,
                               params, cfg)
                best = min(best, val)
        assert res.cost <= best * (1.0 + 1e-3)

    def test_mirror_symmetry_of_solve(self, params, cfg, static_scenario):
        sc = static_scenario
        mirrored = Scenario(
            road=Road(lane_width=3.5, lower_boundary_y=-5.25),
            obstacles=tuple(Obstacle(x0=o.x0, y0=-o.y0) for o in sc.obstacles),
            ego_initial=S(), duration=sc.duration)
        pa = build_lane_change_path(sc, params)
        pb = build_lane_change_path(mirrored, params)
        state = S(vy=0.1, r=0.04, X=30.0, Y=0.3, psi=0.02)
        mstate = S(vy=-0.1, r=-0.04, X=30.0, Y=-0.3, psi=-0.02)
        warm = ((0.05, 40.0), (0.02, 10.0), (0.0, 0.0))
        mwarm = tuple((-d, tq) for d, tq in warm)
        a = solve_step(state, sc.road, plan_refs(pa, state, cfg), params,
                       cfg, warm)
        b = solve_step(mstate, mirrored.road, plan_refs(pb, mstate, cfg),
                       params, cfg, mwarm)
        assert a.u0[0] == pytest.approx(-b.u0[0], abs=1e-6)
        assert a.u0[1] == pytest.approx(b.u0[1], abs=1e-6)
        assert a.cost == pytest.approx(b.cost, rel=1e-9)

    def test_fallback_when_nothing_is_finite(self, params, cfg):
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, params)
        # crawling with strong reverse rotation: every control sequence
        # drives the predicted speed below the floor
        state = VehicleState(vx=0.2, vy=-2.0, r=2.0, X=10.0, Y=0.0, psi=0.0)
        # (the last two pairs reach outside the box)
        warm = ((0.1, -50.0), (1.0, -50.0), (0.1, -400.0))
        res = solve_step(state, sc.road, plan_refs(path, state, cfg), params,
                         cfg, warm)
        assert res.fallback and not res.converged
        assert res.cost == math.inf
        for d, tq in res.sequence:
            assert -cfg.delta_max <= d <= cfg.delta_max
            assert -cfg.Tb_max <= tq <= cfg.Td_max
        assert res.sequence == ((0.1, -50.0), (cfg.delta_max, -50.0),
                                (0.1, -cfg.Tb_max))

    def _recorded_starts(self, monkeypatch, params, cfg, state, warm):
        """solve_step's result and the start of each minimize_box call."""
        starts = []

        def recording(fg, lower, upper, x0, **kwargs):
            starts.append(list(x0))
            return minimize_box(fg, lower, upper, x0, **kwargs)

        monkeypatch.setattr(mpc, "minimize_box", recording)
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, params)
        return solve_step(state, sc.road, plan_refs(path, state, cfg),
                          params, cfg, warm), starts

    def test_one_start_from_a_finite_warm_start(self, monkeypatch, params,
                                                cfg):
        warm = ((2.0, 50.0), (0.01, -500.0), (0.0, 10.0))
        res, starts = self._recorded_starts(monkeypatch, params, cfg,
                                            S(X=10.0, Y=0.1), warm)
        assert starts == [[cfg.delta_max, 50.0, 0.01, -cfg.Tb_max,
                           0.0, 10.0]]
        assert res.converged and not res.fallback

    def test_one_start_from_a_non_finite_warm_start(self, monkeypatch,
                                                    params, cfg):
        # Full braking from a crawl takes the predicted speed below the
        # floor (+inf).  Coasting from zero controls would keep it finite,
        # but the solve starts once, from the warm start clipped to the
        # box, and falls back to that start.
        state = S(vx=0.25)
        warm = ((0.0, -2.0 * cfg.Tb_max),) * cfg.Np
        clipped = ((0.0, -cfg.Tb_max),) * cfg.Np
        res, starts = self._recorded_starts(monkeypatch, params, cfg, state,
                                            warm)
        assert starts == [flatten_pairs(clipped)]
        assert res.fallback and res.cost == math.inf
        assert res.sequence == clipped

    def _recorded_seeds(self, monkeypatch, params, cfg, state, warm,
                        hessian=None):
        """solve_step's result and the hessian each minimize_box call was
        seeded with."""
        seeds = []

        def recording(fg, lower, upper, x0, **kwargs):
            seeds.append(kwargs["hessian"])
            return minimize_box(fg, lower, upper, x0, **kwargs)

        monkeypatch.setattr(mpc, "minimize_box", recording)
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, params)
        return solve_step(state, sc.road, plan_refs(path, state, cfg),
                          params, cfg, warm, hessian=hessian), seeds

    def test_first_step_seeds_from_differences(self, monkeypatch, params,
                                               cfg):
        state = S(X=10.0, Y=0.1)
        warm = ((2.0, 50.0), (0.01, -500.0), (0.0, 10.0))
        res, seeds = self._recorded_seeds(monkeypatch, params, cfg, state,
                                          warm)
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, params)
        refs = plan_refs(path, state, cfg)
        fg = horizon_objective(kernels.active().horizon_cost_grad, state,
                               sc.road, refs, params, cfg)
        lower = [-cfg.delta_max, -cfg.Tb_max] * cfg.Np
        upper = [cfg.delta_max, cfg.Td_max] * cfg.Np
        start = [cfg.delta_max, 50.0, 0.01, -cfg.Tb_max, 0.0, 10.0]
        want = difference_hessian(
            fg, start, [1e-6 * (u - lo) for lo, u in zip(lower, upper)])
        assert seeds == [want]
        box = minimize_box(fg, lower, upper, start, tol=cfg.solver_tol,
                           max_iter=cfg.solver_max_iter, hessian=want)
        assert res.n_eval == 4 * cfg.Np + box.n_eval
        assert res.hessian == box.hessian

    def test_given_estimate_seeds_the_solve(self, monkeypatch, params, cfg):
        given = tuple(tuple(1.0 if a == b else 0.0 for b in range(6))
                      for a in range(6))
        res, seeds = self._recorded_seeds(monkeypatch, params, cfg,
                                          S(X=10.0, Y=0.1),
                                          zero_sequence(cfg), given)
        assert len(seeds) == 1 and seeds[0] is given
        assert res.converged and res.hessian is not given

    def test_fallback_passes_the_estimate_through(self, params, cfg):
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, params)
        state = VehicleState(vx=0.2, vy=-2.0, r=2.0, X=10.0, Y=0.0, psi=0.0)
        given = ((2.0,) * 6,) * 6
        refs = plan_refs(path, state, cfg)
        res = solve_step(state, sc.road, refs, params, cfg,
                         ((0.1, -50.0),) * 3, hessian=given)
        assert res.fallback and res.hessian is given
        res = solve_step(state, sc.road, refs, params, cfg,
                         ((0.1, -50.0),) * 3)
        assert res.fallback and res.hessian is None

    def test_gradient_consistency_at_random_points(self, params, cfg,
                                                   static_scenario):
        # The finite-difference machinery agrees with an independent
        # central-difference evaluation at a coarser step.
        sc = static_scenario
        path = build_lane_change_path(sc, params)
        state = S(X=30.0, Y=0.3, psi=0.02)
        refs = plan_refs(path, state, cfg)
        objective = horizon_objective(kernels.active().horizon_cost, state,
                                      sc.road, refs, params, cfg)

        rng = random.Random(9)
        spans = [2 * cfg.delta_max, cfg.Td_max + cfg.Tb_max] * cfg.Np
        for _ in range(5):
            z = []
            for j in range(2 * cfg.Np):
                if j % 2 == 0:
                    z.append(rng.uniform(-0.5 * cfg.delta_max,
                                         0.5 * cfg.delta_max))
                else:
                    z.append(rng.uniform(-0.5 * cfg.Tb_max,
                                         0.5 * cfg.Td_max))
            g_fine = fd_gradient(objective, z, [1e-6 * s for s in spans])
            g_ref = fd_gradient(objective, z, [1e-5 * s for s in spans])
            for a, b in zip(g_fine, g_ref):
                assert abs(a - b) <= 1e-3 * (abs(a) + abs(b)) + 1e-9


class TestDifferenceHessian:
    def test_exact_on_a_quadratic(self):
        # f = x'Ax/2 + b'x: central differences of its gradient are exact
        # up to rounding, at steps the size solve_step takes.  Gradient
        # entries here reach about 4,000, so rounding (1e-16 relative)
        # over a 3.2e-6 width leaves at most about 1e-7.
        hess = [[4.0, 1.0, 0.5, -2.0], [1.0, 30.0, -0.4, 0.0],
                [0.5, -0.4, 2.0, 7.0], [-2.0, 0.0, 7.0, 90.0]]
        lin = [0.3, -1.0, 2.0, 5.0]

        def fg(x):
            g = [sum(a * xj for a, xj in zip(row, x)) + bi
                 for row, bi in zip(hess, lin)]
            return 0.5 * sum(gi * xi for gi, xi in zip(g, x)), g

        got = difference_hessian(fg, [0.1, -120.0, 0.7, 33.0],
                                 [1.6e-6, 3.6e-4, 1.6e-6, 3.6e-4])
        for row, want in zip(got, hess):
            assert row == pytest.approx(want, rel=0.0, abs=1e-6)

    def test_exactly_symmetric(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, params)
        state = S(X=30.0, Y=0.3, psi=0.02)
        refs = plan_refs(path, state, cfg)
        fg = horizon_objective(kernels.active().horizon_cost_grad, state,
                               static_scenario.road, refs, params, cfg)
        steps = [1e-6 * 2 * cfg.delta_max,
                 1e-6 * (cfg.Td_max + cfg.Tb_max)] * cfg.Np
        got = difference_hessian(fg, [0.05, 20.0] * cfg.Np, steps)
        n = 2 * cfg.Np
        assert len(got) == n
        assert all(got[a][b] == got[b][a] for a in range(n) for b in range(n))
        assert any(got[a][b] != 0.0 for a in range(n) for b in range(a))

    def test_none_on_a_non_finite_evaluation(self):
        def fg(x):
            if x[1] > 1.0:
                return math.inf, None
            return x[0] ** 2 + x[1] ** 2, [2.0 * x[0], 2.0 * x[1]]

        assert difference_hessian(fg, [0.0, 0.5], [1e-3, 1e-3]) is not None
        assert difference_hessian(fg, [0.0, 1.0], [1e-3, 1e-3]) is None


class TestWarmStart:
    def test_shift_repeats_last(self):
        seq = ((0.1, 10.0), (0.2, 20.0), (0.3, 30.0))
        assert shift_warm_start(seq) == ((0.2, 20.0), (0.3, 30.0),
                                         (0.3, 30.0))

    def test_zero_sequence_length(self, cfg):
        assert zero_sequence(cfg) == ((0.0, 0.0),) * cfg.Np
