import dataclasses
import math

import pytest

from lanempc import harness, kernels
from lanempc.dubins import (PathConstructionError, build_lane_change_path,
                            nearest_arclength, sample_reference)
from lanempc.dynamics import VehicleState
from lanempc.harness import (LogRow, Metrics, SimulationAborted,
                             SimulationLog, compute_metrics, run)
from lanempc.mpc import (MpcConfig, flatten_pairs, horizon_objective,
                         reference_for_horizon)
from lanempc.scenario import Obstacle, Road, Scenario


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

    def test_run_of_too_many_steps_is_refused(self, params, cfg,
                                              empty_scenario):
        # At most 100,000 control steps, compared before rounding: 1e308 s
        # over 0.1 s is inf.
        at_cap = dataclasses.replace(empty_scenario, duration=10_000.0)
        assert harness.step_count(at_cap, cfg) == 100_000
        for duration in (10_000.1, 1e308):
            sc = dataclasses.replace(empty_scenario, duration=duration)
            with pytest.raises(ValueError,
                               match="more than 100000 control steps"):
                run(sc, params, cfg)

    def test_prebuilt_path_gives_identical_logs(self, params, cfg,
                                                small_scenario, monkeypatch):
        path = build_lane_change_path(small_scenario, params)
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

        def broken_solve(state, road, refs, p, c, warm, hessian=None):
            res = real_solve(state, road, refs, p, c, warm, hessian=hessian)
            return type(res)(u0=res.u0, sequence=res.sequence,
                             cost=math.inf, converged=False,
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

    # Steps after the first at which the ego, driving the first plan of the
    # shipped dynamic scenario throughout, is on its home straight.
    HOME_STRAIGHT_STEPS = {"integrated": 70, "two_level": 65}

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_refused_rebuild_drives_the_last_plan(self, params, cfg,
                                                  dynamic_scenario,
                                                  monkeypatch, controller):
        path0 = build_lane_change_path(dynamic_scenario, params)
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
        assert len(refusals) == self.HOME_STRAIGHT_STEPS[controller]
        assert len(stale.rows) == 151
        assert stale == reused

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_rebuilds_only_on_the_home_straight(self, params, cfg,
                                                dynamic_scenario,
                                                monkeypatch, controller):
        # A rebuild happens at a step exactly when the plan driven so far
        # has its point nearest the ego on the home-lane centreline, off
        # the arcs and diagonals of a swerve.
        rebuilds = {}   # step -> rebuilt plan, or None if refused

        def spy(*args, **kwargs):
            k = round(kwargs["at_time"] / cfg.dt)
            rebuilds[k] = None
            rebuilds[k] = build_lane_change_path(*args, **kwargs)
            return rebuilds[k]

        plan = build_lane_change_path(dynamic_scenario, params)
        monkeypatch.setattr(harness, "build_lane_change_path", spy)
        log = run(dynamic_scenario, params, cfg, controller=controller,
                  path=plan)
        for k, row in enumerate(log.rows[1:], start=1):
            s, _ = nearest_arclength(plan, row.state.X, row.state.Y)
            _, y, _, curvature = sample_reference(plan, s)
            home = curvature == 0.0 and y == plan.waypoints[0][1]
            assert (k in rebuilds) == home, row.t
            plan = rebuilds.get(k) or plan
        assert 0 < len(rebuilds) < len(log.rows) - 1

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_logged_error_is_the_distance_to_the_plan_in_force(
            self, params, cfg, dynamic_scenario, monkeypatch, controller):
        # Each row's lateral error is the ego's distance to the plan it
        # drove at that step, a rebuilt plan from the step of its rebuild
        # on; the t=0 plan would give other distances.
        rebuilds = {}   # step -> rebuilt plan, or None if refused

        def spy(*args, **kwargs):
            k = round(kwargs["at_time"] / cfg.dt)
            rebuilds[k] = None
            rebuilds[k] = build_lane_change_path(*args, **kwargs)
            return rebuilds[k]

        first = plan = build_lane_change_path(dynamic_scenario, params)
        monkeypatch.setattr(harness, "build_lane_change_path", spy)
        log = run(dynamic_scenario, params, cfg, controller=controller,
                  path=plan)
        moved = 0
        for k, row in enumerate(log.rows):
            plan = rebuilds.get(k) or plan
            X, Y = row.state.X, row.state.Y
            assert row.lateral_error == nearest_arclength(plan, X, Y)[1]
            moved += row.lateral_error != nearest_arclength(first, X, Y)[1]
        assert moved > 0

    # Path queries in one run of each shipped three-vehicle scenario: the
    # driver locates the ego on the plan once a step, and once more on the
    # plan an accepted rebuild returns.
    PATH_QUERIES = {("static", "integrated"): 141,
                    ("static", "two_level"): 141,
                    ("dynamic", "integrated"): 221,
                    ("dynamic", "two_level"): 216}

    @pytest.mark.parametrize("kind,controller", sorted(PATH_QUERIES))
    def test_one_path_query_per_step_and_accepted_rebuild(
            self, params, cfg, request, monkeypatch, kind, controller):
        queries = []
        rebuilds = []

        def query(*args):
            queries.append(args)
            return nearest_arclength(*args)

        def build(*args, **kwargs):
            plan = build_lane_change_path(*args, **kwargs)
            if "at_time" in kwargs:
                rebuilds.append(kwargs["at_time"])
            return plan

        monkeypatch.setattr(harness, "nearest_arclength", query)
        monkeypatch.setattr(harness, "build_lane_change_path", build)
        log = run(request.getfixturevalue(f"{kind}_scenario"), params, cfg,
                  controller=controller)
        assert len(queries) == len(log.rows) + len(rebuilds)
        assert len(queries) == self.PATH_QUERIES[kind, controller]

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_reference_moves_laterally_at_most_one_step_of_travel(
            self, params, cfg, dynamic_scenario, controller):
        # A rebuild never moves the reference across a lane: consecutive
        # logged references differ in y by at most what the ego drives in
        # one step.
        log = run(dynamic_scenario, params, cfg, controller=controller)
        for a, b in zip(log.rows, log.rows[1:]):
            assert abs(b.ref_y - a.ref_y) <= b.state.vx * cfg.dt, b.t


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

    def test_logged_cost_is_the_integrated_cost(self, params, cfg,
                                                small_scenario):
        # Each logged J is what the integrated cost scores for the applied
        # control held over the horizon, computed here by the solver's own
        # kernel, the one with the gradient; the baseline runs the same
        # kernel, so the two agree exactly.
        sc = small_scenario
        log = run(sc, params, cfg, controller="two_level")
        path = build_lane_change_path(sc, params)
        for row in log.rows:
            s, _ = nearest_arclength(path, row.state.X, row.state.Y)
            refs = reference_for_horizon(path, s, cfg.Np, cfg.dt)
            want, _ = horizon_objective(
                kernels.active().horizon_cost_grad, row.state, sc.road, refs,
                params, cfg)(flatten_pairs((row.control,) * cfg.Np))
            assert row.cost == want, row.t


def _synthetic_log(errors, rs=None, clearances=None, dt=0.1):
    """A log of one row per entry of errors, each logging that lateral
    error, driving along x at that distance from the line y = 0."""
    rs = rs or [0.0] * len(errors)
    clearances = clearances or [5.0] * len(errors)
    rows = []
    for k, (err, r_val, c) in enumerate(zip(errors, rs, clearances)):
        state = VehicleState(vx=10.0, vy=0.0, r=r_val, X=float(k), Y=err,
                             psi=0.0)
        rows.append(LogRow(t=k * dt, state=state, control=(0.0, 0.0),
                           cost=0.0, ref_x=float(k), ref_y=0.0,
                           lateral_error=err, clearance=c, converged=True))
    return SimulationLog(tuple(rows), dt, "integrated")


class TestMetrics:
    def test_perfect_tracking_is_zero(self, cfg):
        log = _synthetic_log([0.0] * 20)
        m = compute_metrics(log, cfg)
        assert m.rms_lateral_error == pytest.approx(0.0, abs=1e-12)
        assert m.max_lateral_error == pytest.approx(0.0, abs=1e-12)
        assert m.yaw_smoothness == 0.0
        assert m.control_saturation_fraction == 0.0

    def test_constant_yaw_rate_is_smooth(self, cfg):
        log = _synthetic_log([0.0] * 20, rs=[0.4] * 20)
        m = compute_metrics(log, cfg)
        assert m.yaw_smoothness == 0.0

    def test_single_offset_sample_rms(self, cfg):
        n = 16
        errors = [0.0] * n
        errors[7] = 0.5
        log = _synthetic_log(errors)
        m = compute_metrics(log, cfg)
        assert m.rms_lateral_error == pytest.approx(0.5 / math.sqrt(n),
                                                    rel=1e-12)
        assert m.max_lateral_error == pytest.approx(0.5, rel=1e-12)

    def test_min_clearance_and_saturation(self, cfg):
        log = _synthetic_log([0.0] * 10, clearances=[3.0] * 9 + [0.25])
        m = compute_metrics(log, cfg)
        assert m.min_clearance == 0.25
        # a saturated control counts toward the fraction
        rows = list(log.rows)
        rows[3] = dataclasses.replace(rows[3], control=(cfg.delta_max, 0.0))
        log2 = SimulationLog(tuple(rows), log.dt, log.controller)
        m2 = compute_metrics(log2, cfg)
        assert m2.control_saturation_fraction == pytest.approx(0.1)

    def test_empty_log_rejected(self, cfg):
        with pytest.raises(ValueError):
            compute_metrics(SimulationLog((), 0.1, "integrated"), cfg)
