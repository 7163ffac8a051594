import math

import pytest

from lanempc import harness
from lanempc.dubins import (PathConstructionError, build_lane_change_path,
                            reference_for_horizon)
from lanempc.dynamics import VehicleState
from lanempc.harness import (LogRow, Metrics, SimulationAborted,
                             SimulationLog, compute_metrics, run)
from lanempc.mpc import MpcConfig, cost, predict
from lanempc.scenario import Obstacle, Road, Scenario, obstacle_pose_at


class TestRunEmptyRoad:
    def test_nothing_to_do(self, params, cfg, empty_scenario):
        log = run(empty_scenario, params, cfg)
        assert len(log.rows) == round(empty_scenario.duration / cfg.dt) + 1
        assert abs(log.rows[-1].state.Y) < 1e-2
        assert all(abs(r.state.r) < 1e-3 for r in log.rows)

    def test_baseline_agrees_on_empty_road(self, params, cfg, empty_scenario):
        a = run(empty_scenario, params, cfg)
        b = run(empty_scenario, params, cfg, controller="two_level")
        for ra, rb in zip(a.rows, b.rows):
            assert abs(ra.state.Y - rb.state.Y) < 1e-2

    def test_uniform_time_grid(self, params, cfg, empty_scenario):
        log = run(empty_scenario, params, cfg)
        for k, row in enumerate(log.rows):
            assert row.t == k * cfg.dt


CONTROLLERS = ("integrated", "two_level")


class TestRunContracts:
    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_deterministic(self, params, cfg, small_scenario, controller):
        assert (run(small_scenario, params, cfg, controller=controller)
                == run(small_scenario, params, cfg, controller=controller))

    def test_controls_logged_within_bounds(self, params, cfg, small_scenario):
        log = run(small_scenario, params, cfg)
        for row in log.rows:
            assert abs(row.control[0]) <= cfg.delta_max
            assert -cfg.Tb_max <= row.control[1] <= cfg.Td_max

    def test_dispatch_by_name(self, params, cfg, empty_scenario):
        with pytest.raises(ValueError):
            run(empty_scenario, params, cfg, controller="three_level")

    def test_prebuilt_path_gives_identical_logs(self, params, cfg,
                                                small_scenario, monkeypatch):
        path = build_lane_change_path(small_scenario,
                                      small_scenario.ego_initial.vx, params)
        rebuilt = {c: run(small_scenario, params, cfg, controller=c)
                   for c in CONTROLLERS}

        def no_rebuild(*args, **kwargs):
            raise AssertionError("static plan rebuilt although passed in")

        monkeypatch.setattr(harness, "build_lane_change_path", no_rebuild)
        for controller, log in rebuilt.items():
            assert run(small_scenario, params, cfg, controller=controller,
                       path=path) == log

    def test_infeasible_layout_raises(self, params, cfg):
        sc = Scenario(road=Road(), obstacles=(Obstacle(x0=8.0, y0=0.0),),
                      ego_initial=VehicleState(vx=10.0), duration=4.0)
        with pytest.raises(PathConstructionError):
            run(sc, params, cfg)

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_plant_failure_aborts_with_partial_log(self, params, cfg,
                                                   empty_scenario,
                                                   monkeypatch, controller):
        from lanempc import dynamics
        real_step = dynamics.step
        calls = {"n": 0}

        def failing_step(state, u, p, dt):
            calls["n"] += 1
            if calls["n"] > 10:
                raise dynamics.PlantFailureError("forced for the test")
            return real_step(state, u, p, dt)

        monkeypatch.setattr(harness.dynamics, "step", failing_step)
        with pytest.raises(SimulationAborted) as err:
            run(empty_scenario, params, cfg, controller=controller)
        assert len(err.value.log.rows) == 11
        assert err.value.log.controller == controller
        assert "plant failure" in str(err.value.cause)

    def test_persistent_solver_failure_aborts(self, params, cfg,
                                              empty_scenario, monkeypatch):
        real_solve = harness.solve_step

        def broken_solve(state, scenario, path, p, c, warm, at_time=0.0,
                         hessian=None):
            res = real_solve(state, scenario, path, p, c, warm,
                             at_time=at_time, hessian=hessian)
            return type(res)(u0=res.u0, sequence=res.sequence,
                             cost=math.inf, refs=res.refs, converged=False,
                             fallback=True, n_eval=res.n_eval)

        monkeypatch.setattr(harness, "solve_step", broken_solve)
        with pytest.raises(SimulationAborted) as err:
            run(empty_scenario, params, cfg)
        assert "no finite cost" in str(err.value.cause)

    def test_each_solve_starts_from_the_last_curvature(self, params, cfg,
                                                       small_scenario,
                                                       monkeypatch):
        real_solve = harness.solve_step
        calls = []

        def recording(*args, **kwargs):
            res = real_solve(*args, **kwargs)
            calls.append((kwargs["hessian"], res))
            return res

        monkeypatch.setattr(harness, "solve_step", recording)
        log = run(small_scenario, params, cfg)
        assert len(calls) == len(log.rows)
        assert calls[0][0] is None
        for (_, before), (given, _) in zip(calls, calls[1:]):
            assert given is before.hessian and given is not None

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_refused_rebuild_drives_the_last_plan(self, params, cfg,
                                                  dynamic_scenario,
                                                  monkeypatch, controller):
        path0 = build_lane_change_path(
            dynamic_scenario, dynamic_scenario.ego_initial.vx, params)
        refusals = []

        def refuse(*args, **kwargs):
            refusals.append(kwargs["at_time"])
            raise PathConstructionError("forced for the test")

        monkeypatch.setattr(harness, "build_lane_change_path", refuse)
        stale = run(dynamic_scenario, params, cfg, controller=controller,
                    path=path0)
        monkeypatch.setattr(harness, "build_lane_change_path",
                            lambda *args, **kwargs: path0)
        reused = run(dynamic_scenario, params, cfg, controller=controller,
                     path=path0)
        assert len(refusals) == 150
        assert len(stale.rows) == 151
        assert stale == reused


class TestBaseline:
    def test_completes_static_set(self, params, cfg, static_scenario):
        log = run(static_scenario, params, cfg, controller="two_level")
        ys = [r.state.Y for r in log.rows]
        assert max(ys) > 3.0
        assert abs(ys[-1]) < 0.6
        assert min(r.clearance for r in log.rows) > 0.0

    def test_holds_speed(self, params, cfg, static_scenario):
        log = run(static_scenario, params, cfg, controller="two_level")
        assert log.rows[-1].state.vx == pytest.approx(10.0, abs=0.6)

    def test_logged_cost_is_the_integrated_cost(self, params,
                                                small_scenario):
        # With obstacle terms on, each logged J is what the integrated cost
        # scores for the applied control held over the horizon.
        sc = small_scenario
        cfg = MpcConfig(obstacle_weight=0.5)
        log = run(sc, params, cfg, controller="two_level")
        path = build_lane_change_path(sc, sc.ego_initial.vx, params)
        for row in log.rows:
            traj = predict(row.state, (row.control,) * cfg.Np, params, cfg)
            refs = reference_for_horizon(path, row.state, cfg.Np, cfg.dt)
            want = cost(traj, refs, sc.road, cfg,
                        obstacle_points=[obstacle_pose_at(ob, row.t)
                                         for ob in sc.obstacles])
            assert row.cost == pytest.approx(want, rel=1e-12, abs=0.0), row.t


def _synthetic_log(points, rs=None, clearances=None, dt=0.1):
    rs = rs or [0.0] * len(points)
    clearances = clearances or [5.0] * len(points)
    rows = []
    for k, ((x, y), r_val, c) in enumerate(zip(points, rs, clearances)):
        state = VehicleState(vx=10.0, vy=0.0, r=r_val, X=x, Y=y, psi=0.0)
        rows.append(LogRow(t=k * dt, state=state, control=(0.0, 0.0),
                           cost=0.0, ref_x=x, ref_y=0.0, clearance=c,
                           converged=True))
    return SimulationLog(tuple(rows), dt, "integrated")


class TestMetrics:
    def test_perfect_tracking_is_zero(self, params, cfg, empty_scenario):
        path = build_lane_change_path(empty_scenario, 10.0, params)
        log = _synthetic_log([(float(i), 0.0) for i in range(20)])
        m = compute_metrics(log, path, cfg)
        assert m.rms_lateral_error == pytest.approx(0.0, abs=1e-12)
        assert m.max_lateral_error == pytest.approx(0.0, abs=1e-12)
        assert m.yaw_smoothness == 0.0
        assert m.control_saturation_fraction == 0.0

    def test_constant_yaw_rate_is_smooth(self, params, cfg, empty_scenario):
        path = build_lane_change_path(empty_scenario, 10.0, params)
        log = _synthetic_log([(float(i), 0.0) for i in range(20)],
                             rs=[0.4] * 20)
        m = compute_metrics(log, path, cfg)
        assert m.yaw_smoothness == 0.0

    def test_single_offset_sample_rms(self, params, cfg, empty_scenario):
        path = build_lane_change_path(empty_scenario, 10.0, params)
        n = 16
        pts = [(float(i), 0.0) for i in range(n)]
        pts[7] = (7.0, 0.5)
        log = _synthetic_log(pts)
        m = compute_metrics(log, path, cfg)
        assert m.rms_lateral_error == pytest.approx(0.5 / math.sqrt(n),
                                                    rel=1e-12)
        assert m.max_lateral_error == pytest.approx(0.5, rel=1e-12)

    def test_min_clearance_and_saturation(self, params, cfg, empty_scenario):
        path = build_lane_change_path(empty_scenario, 10.0, params)
        log = _synthetic_log([(float(i), 0.0) for i in range(10)],
                             clearances=[3.0] * 9 + [0.25])
        m = compute_metrics(log, path, cfg)
        assert m.min_clearance == 0.25
        # a saturated control counts toward the fraction
        import dataclasses
        rows = list(log.rows)
        rows[3] = dataclasses.replace(rows[3], control=(cfg.delta_max, 0.0))
        log2 = SimulationLog(tuple(rows), log.dt, log.controller)
        m2 = compute_metrics(log2, path, cfg)
        assert m2.control_saturation_fraction == pytest.approx(0.1)

    def test_empty_log_rejected(self, params, cfg, empty_scenario):
        path = build_lane_change_path(empty_scenario, 10.0, params)
        with pytest.raises(ValueError):
            compute_metrics(SimulationLog((), 0.1, "integrated"), path, cfg)
