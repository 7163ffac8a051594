import math
import random

import pytest

from lanempc import kernels
from lanempc.dubins import build_lane_change_path, reference_for_horizon
from lanempc.dynamics import LowSpeedError, VehicleState, state_derivative, ControlInput
from lanempc.mpc import (BoundarySamples, MpcConfig, PredictedTrajectory,
                         boundary_samples, cost, horizon_objective, predict,
                         shift_warm_start, solve_step, zero_sequence)
from lanempc.scenario import Obstacle, Road, Scenario

from fd_reference import fd_gradient


def S(vx=10.0, vy=0.0, r=0.0, X=0.0, Y=0.0, psi=0.0):
    return VehicleState(vx=vx, vy=vy, r=r, X=X, Y=Y, psi=psi)


def wide_road_scenario():
    """Straight reference far from any boundary (17.5 m to the nearest)."""
    return Scenario(road=Road(lane_width=17.5, n_lanes=2,
                              lower_boundary_y=-8.75),
                    obstacles=(), ego_initial=S(), duration=6.0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = MpcConfig()
        assert cfg.Np == 3 and cfg.dt == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"Np": 0}, {"Np": 200}, {"dt": 0.0}, {"a1": -1.0}, {"b3": -0.1},
        {"delta_max": 0.0}, {"Td_max": -5.0},
        {"predictor_yaw_divisor": "Jz"}, {"yaw_accel_diff": "sideways"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MpcConfig(**kwargs)


class TestPredict:
    def test_straight_line_euler(self, params, cfg):
        traj = predict(S(X=5.0), zero_sequence(cfg), params, cfg)
        assert traj.xa == (6.0, 7.0, 8.0)
        assert traj.ya == (0.0, 0.0, 0.0)
        assert traj.r == (0.0, 0.0, 0.0)
        assert traj.r0 == 0.0

    def test_one_step_chain_matches_formulas(self, params):
        cfg = MpcConfig(Np=1)
        d = 0.05
        traj = predict(S(), ((d, 0.0),), params, cfg)
        fcf = -params.Caf * (0.0 / 10.0 - d)
        fcr = -params.Car * (0.0 / 10.0)
        vx1 = 10.0 + (0.0 - (2.0 / params.m)
                      * (fcf * math.sin(d) - 0.0 / params.Rw)) * 0.1
        vy1 = 0.0 + (-0.0 + (2.0 / params.m)
                     * (fcf * math.cos(d) + fcr)) * 0.1
        r1 = 0.0 + ((2.0 / params.Iz) * (params.lf * fcf
                                         - params.lr * fcr)) * 0.1
        assert traj.fcf[0] == fcf and traj.fcr[0] == fcr
        assert traj.vx[0] == vx1 and traj.vy[0] == vy1 and traj.r[0] == r1
        assert traj.psi[0] == 0.0
        assert traj.xa[0] == vx1 * math.cos(0.0) * 0.1 - vy1 * math.sin(0.0) * 0.1
        assert traj.ya[0] == (vx1 * math.sin(0.0) + vy1 * math.cos(0.0)) * 0.1

    def test_deterministic(self, params, cfg):
        seq = ((0.03, 50.0), (-0.02, -30.0), (0.01, 10.0))
        a = predict(S(vy=0.2, r=0.05), seq, params, cfg)
        b = predict(S(vy=0.2, r=0.05), seq, params, cfg)
        assert a == b

    def test_speed_floor_raises(self, params, cfg):
        with pytest.raises(LowSpeedError):
            predict(S(vx=0.05), zero_sequence(cfg), params, cfg)

    def test_mid_horizon_floor_raises(self, params, cfg):
        # heavy braking from just above the floor crosses it inside the chain
        with pytest.raises(LowSpeedError):
            predict(S(vx=0.12), ((0.0, -160.0),) * 3, params, cfg)

    def test_yaw_divisor_variant(self, params):
        base = MpcConfig(Np=1)
        quirk = MpcConfig(Np=1, predictor_yaw_divisor="m")
        d = 0.05
        a = predict(S(), ((d, 0.0),), params, base)
        b = predict(S(), ((d, 0.0),), params, quirk)
        assert a.r[0] == pytest.approx(b.r[0] * params.m / params.Iz, rel=1e-12)

    def test_consistency_with_continuous_dynamics(self, params):
        # One-step predicted rates approach the continuous derivative as
        # dt shrinks (first-order Euler).
        state = S(vy=0.3, r=0.1, psi=0.05)
        u = (0.04, 60.0)
        d = state_derivative(state, ControlInput(*u), params)

        def rate_error(dt):
            cfg = MpcConfig(Np=1, dt=dt)
            traj = predict(state, (u,), params, cfg)
            rates = ((traj.vx[0] - state.vx) / dt,
                     (traj.vy[0] - state.vy) / dt,
                     (traj.r[0] - state.r) / dt,
                     (traj.xa[0] - state.X) / dt,
                     (traj.ya[0] - state.Y) / dt,
                     (traj.psi[0] - state.psi) / dt)
            return max(abs(a - b) for a, b in zip(rates, d))

        e1, e2, e3 = rate_error(0.1), rate_error(0.01), rate_error(0.001)
        assert e2 < e1 and e3 < e2
        assert e3 < 0.05 * e1


class TestBoundarySamples:
    def test_projection_abreast(self, cfg):
        road = Road()
        traj = PredictedTrajectory(xa=(1.0, 2.0, 3.0), ya=(0.5, 0.6, 0.7),
                                   vx=(10.0,) * 3, vy=(0.0,) * 3,
                                   r=(0.0,) * 3, psi=(0.0,) * 3,
                                   fcf=(0.0,) * 3, fcr=(0.0,) * 3,
                                   vxg=(10.0,) * 3, vyg=(0.0,) * 3, r0=0.0)
        b = boundary_samples(road, traj)
        assert b.xu == (1.0, 2.0, 3.0) and b.xl == (1.0, 2.0, 3.0)
        assert b.yu == (road.upper_boundary_y,) * 3
        assert b.yl == (road.lower_boundary_y,) * 3
        shifted = PredictedTrajectory(xa=traj.xa,
                                      ya=tuple(y + 1.0 for y in traj.ya),
                                      vx=traj.vx, vy=traj.vy, r=traj.r,
                                      psi=traj.psi, fcf=traj.fcf,
                                      fcr=traj.fcr, vxg=traj.vxg,
                                      vyg=traj.vyg, r0=0.0)
        assert boundary_samples(road, shifted) == b


def _flat_traj(ys, rs=None, r0=0.0, xs=None):
    n = len(ys)
    xs = tuple(xs or tuple(float(i + 1) for i in range(n)))
    rs = tuple(rs or (r0,) * n)
    return PredictedTrajectory(xa=xs, ya=tuple(ys), vx=(10.0,) * n,
                               vy=(0.0,) * n, r=rs, psi=(0.0,) * n,
                               fcf=(0.0,) * n, fcr=(0.0,) * n,
                               vxg=(10.0,) * n, vyg=(0.0,) * n, r0=r0)


class TestCost:
    def test_boundary_floor_formula(self):
        # On-reference trajectory equidistant (1.75 m) from both boundaries:
        # only the boundary terms remain.
        cfg = MpcConfig(a1=1.0, b1=0.4, b2=0.7, b3=1.0)
        traj = _flat_traj([1.75, 1.75, 1.75])
        refs = tuple(zip(traj.xa, traj.ya))
        bounds = BoundarySamples(xu=traj.xa, yu=(3.5,) * 3,
                                 xl=traj.xa, yl=(0.0,) * 3)
        want = 3 * (cfg.b1 + cfg.b2) * (1.0 / 1.75 ** 2) ** 2
        assert cost(traj, refs, bounds, cfg) == pytest.approx(want, rel=1e-12)
        # Samples not abreast: the upper ones 0.75 m ahead, the lower ones
        # 1 m behind, so q = 0.75² + 1.75² = 3.625 and 1² + 1.75² = 4.0625.
        skewed = BoundarySamples(xu=tuple(x + 0.75 for x in traj.xa),
                                 yu=(3.5,) * 3,
                                 xl=tuple(x - 1.0 for x in traj.xa),
                                 yl=(0.0,) * 3)
        want = 3 * (cfg.b1 / 3.625 ** 2 + cfg.b2 / 4.0625 ** 2)
        assert cost(traj, refs, skewed, cfg) == pytest.approx(want, rel=1e-12)

    def test_zero_weights_zero_cost(self):
        cfg = MpcConfig(a1=0.0, b1=0.0, b2=0.0, b3=0.0)
        traj = _flat_traj([3.5, 0.0, 1.2], rs=(0.5, -0.5, 0.2))
        refs = ((0.0, 9.0), (1.0, -9.0), (2.0, 4.0))
        bounds = BoundarySamples(xu=traj.xa, yu=(3.5,) * 3,
                                 xl=traj.xa, yl=(0.0,) * 3)
        assert cost(traj, refs, bounds, cfg) == 0.0

    def test_attractive_term_scales_exactly(self):
        base = MpcConfig(a1=1.0, b1=0.0, b2=0.0, b3=0.0)
        double = MpcConfig(a1=2.0, b1=0.0, b2=0.0, b3=0.0)
        traj = _flat_traj([0.4, 0.9, 1.3])
        refs = ((1.0, 0.0), (2.0, 0.2), (3.0, 0.6))
        bounds = BoundarySamples(xu=traj.xa, yu=(3.5,) * 3,
                                 xl=traj.xa, yl=(0.0,) * 3)
        assert cost(traj, refs, bounds, double) == 2.0 * cost(
            traj, refs, bounds, base)

    def test_on_boundary_is_infinite_sentinel(self):
        cfg = MpcConfig(b1=0.001, b2=0.001)
        traj = _flat_traj([3.5, 1.0, 1.0])
        refs = tuple(zip(traj.xa, traj.ya))
        bounds = BoundarySamples(xu=traj.xa, yu=(3.5,) * 3,
                                 xl=traj.xa, yl=(0.0,) * 3)
        assert cost(traj, refs, bounds, cfg) == math.inf

    def test_yaw_term_backward_difference(self):
        cfg = MpcConfig(a1=0.0, b1=0.0, b2=0.0, b3=2.0,
                        yaw_accel_diff="backward")
        traj = _flat_traj([0.0, 0.0, 0.0], rs=(0.2, 0.1, 0.1), r0=0.0)
        refs = tuple(zip(traj.xa, traj.ya))
        bounds = BoundarySamples(xu=traj.xa, yu=(99.0,) * 3,
                                 xl=traj.xa, yl=(-99.0,) * 3)
        want = 2.0 * ((0.2 / 0.1) ** 2 + (-0.1 / 0.1) ** 2 + 0.0)
        assert cost(traj, refs, bounds, cfg) == pytest.approx(want, rel=1e-12)

    def test_obstacle_repulsion_extension(self):
        cfg = MpcConfig(a1=0.0, b1=0.0, b2=0.0, b3=0.0, obstacle_weight=0.5)
        traj = _flat_traj([0.0])
        refs = ((1.0, 0.0),)
        bounds = BoundarySamples(xu=traj.xa, yu=(99.0,), xl=traj.xa,
                                 yl=(-99.0,))
        got = cost(traj, refs, bounds, cfg, obstacle_points=((1.0, 2.0),))
        assert got == pytest.approx(0.5 * (1.0 / 4.0) ** 2, rel=1e-12)


class TestSolveStep:
    def test_straight_far_from_boundaries(self, params):
        cfg = MpcConfig()
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, 10.0, params)
        res = solve_step(S(X=10.0), sc, path, params, cfg, zero_sequence(cfg))
        assert abs(res.u0[0]) < 1e-3
        refs = reference_for_horizon(path, S(X=10.0), cfg.Np, cfg.dt)
        zero_traj = predict(S(X=10.0), zero_sequence(cfg), params, cfg)
        j_zero = cost(zero_traj, refs, boundary_samples(sc.road, zero_traj),
                      cfg)
        assert res.cost <= j_zero + 1e-12
        assert j_zero - res.cost < 1e-6

    def test_deterministic(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, 10.0, params)
        state = S(vy=0.1, r=0.05, X=25.0, Y=0.2, psi=0.02)
        warm = ((0.05, 20.0),) * 3
        a = solve_step(state, static_scenario, path, params, cfg, warm)
        b = solve_step(state, static_scenario, path, params, cfg, warm)
        assert a == b

    def test_result_always_inside_box(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, 10.0, params)
        warm = ((2.0, 500.0),) * 3  # far outside the box on purpose
        res = solve_step(S(X=30.0, Y=0.5), static_scenario, path, params,
                         cfg, warm)
        for d, tq in res.sequence:
            assert -cfg.delta_max <= d <= cfg.delta_max
            assert -cfg.Tb_max <= tq <= cfg.Td_max

    def test_never_worse_than_warm_start(self, params, cfg, static_scenario):
        path = build_lane_change_path(static_scenario, 10.0, params)
        state = S(X=28.0, Y=0.1, psi=0.05)
        warm = ((0.1, 100.0),) * 3
        res = solve_step(state, static_scenario, path, params, cfg, warm)
        refs = reference_for_horizon(path, state, cfg.Np, cfg.dt)
        warm_traj = predict(state, warm, params, cfg)
        j_warm = cost(warm_traj, refs,
                      boundary_samples(static_scenario.road, warm_traj), cfg)
        assert res.cost <= j_warm

    def test_grid_oracle_single_step(self, params, static_scenario):
        cfg = MpcConfig(Np=1)
        path = build_lane_change_path(static_scenario, 10.0, params)
        state = S(vy=0.15, r=-0.05, X=31.0, Y=0.4, psi=0.03)
        res = solve_step(state, static_scenario, path, params, cfg,
                         zero_sequence(cfg))
        refs = reference_for_horizon(path, state, 1, cfg.dt)
        best = math.inf
        for i in range(61):
            d = -cfg.delta_max + i * (2 * cfg.delta_max / 60)
            for j in range(61):
                tq = -cfg.Tb_max + j * ((cfg.Td_max + cfg.Tb_max) / 60)
                traj = predict(state, ((d, tq),), params, cfg)
                val = cost(traj, refs,
                           boundary_samples(static_scenario.road, traj), cfg)
                best = min(best, val)
        assert res.cost <= best * (1.0 + 1e-3)

    def test_mirror_symmetry_of_solve(self, params, cfg, static_scenario):
        sc = static_scenario
        mirrored = Scenario(
            road=Road(lane_width=3.5, n_lanes=2, lower_boundary_y=-5.25),
            obstacles=tuple(Obstacle(x0=o.x0, y0=-o.y0) for o in sc.obstacles),
            ego_initial=S(), duration=sc.duration)
        pa = build_lane_change_path(sc, 10.0, params)
        pb = build_lane_change_path(mirrored, 10.0, params)
        state = S(vy=0.1, r=0.04, X=30.0, Y=0.3, psi=0.02)
        mstate = S(vy=-0.1, r=-0.04, X=30.0, Y=-0.3, psi=-0.02)
        warm = ((0.05, 40.0), (0.02, 10.0), (0.0, 0.0))
        mwarm = tuple((-d, tq) for d, tq in warm)
        a = solve_step(state, sc, pa, params, cfg, warm)
        b = solve_step(mstate, mirrored, pb, params, cfg, mwarm)
        assert a.u0[0] == pytest.approx(-b.u0[0], abs=1e-6)
        assert a.u0[1] == pytest.approx(b.u0[1], abs=1e-6)
        assert a.cost == pytest.approx(b.cost, rel=1e-9)

    def test_fallback_when_nothing_is_finite(self, params, cfg):
        sc = wide_road_scenario()
        path = build_lane_change_path(sc, 10.0, params)
        # crawling with strong reverse rotation: every control sequence
        # drives the predicted speed below the floor
        state = VehicleState(vx=0.2, vy=-2.0, r=2.0, X=10.0, Y=0.0, psi=0.0)
        warm = ((0.1, -50.0),) * 3
        res = solve_step(state, sc, path, params, cfg, warm)
        assert res.fallback and not res.converged
        assert res.cost == math.inf
        for d, tq in res.sequence:
            assert -cfg.delta_max <= d <= cfg.delta_max
            assert -cfg.Tb_max <= tq <= cfg.Td_max

    def test_gradient_consistency_at_random_points(self, params, cfg,
                                                   static_scenario):
        # The finite-difference machinery agrees with an independent
        # central-difference evaluation at a coarser step.
        sc = static_scenario
        path = build_lane_change_path(sc, 10.0, params)
        state = S(X=30.0, Y=0.3, psi=0.02)
        refs = reference_for_horizon(path, state, cfg.Np, cfg.dt)
        objective = horizon_objective(kernels.active().horizon_cost, state,
                                      sc, refs, params, cfg)

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


class TestWarmStart:
    def test_shift_repeats_last(self):
        seq = ((0.1, 10.0), (0.2, 20.0), (0.3, 30.0))
        assert shift_warm_start(seq) == ((0.2, 20.0), (0.3, 30.0),
                                         (0.3, 30.0))

    def test_zero_sequence_length(self, cfg):
        assert zero_sequence(cfg) == ((0.0, 0.0),) * cfg.Np
