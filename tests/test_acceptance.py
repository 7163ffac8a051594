"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import math
import os
import random
import time

import pytest

from lanempc import _core_py, cli, kernels
from lanempc.dubins import (build_lane_change_path, min_turn_radius,
                            nearest_arclength, sample_reference)
from lanempc.dynamics import ControlInput, VehicleParams, VehicleState, step
from lanempc.harness import compute_metrics, run
from lanempc.mpc import (MpcConfig, horizon_objective, reference_for_horizon,
                         solve_step, zero_sequence)
from lanempc.scenario import (Obstacle, Road, Scenario, obstacle_boundary_at,
                              rect_signed_distance)

from fd_reference import fd_gradient
from loop_reference import _chain
from loop_reference import horizon_cost_grad as loop_cost_grad
from shipped import SCENARIO_DIR, load_scenario


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def table_params():
    return VehicleParams()


@pytest.fixture(scope="module")
def default_cfg():
    return MpcConfig()


@pytest.fixture(scope="module")
def static_runs(table_params, default_cfg):
    sc = load_scenario("static_three_vehicle")
    t0 = time.monotonic()
    log = run(sc, table_params, default_cfg)
    elapsed = time.monotonic() - t0
    baseline = run(sc, table_params, default_cfg, controller="two_level")
    return sc, log, baseline, elapsed


@pytest.fixture(scope="module")
def dynamic_runs(table_params, default_cfg):
    sc = load_scenario("dynamic_three_vehicle")
    t0 = time.monotonic()
    log = run(sc, table_params, default_cfg)
    elapsed = time.monotonic() - t0
    baseline = run(sc, table_params, default_cfg, controller="two_level")
    return sc, log, baseline, elapsed


def _completes_change_and_return(log, target_y=3.5):
    ys = [r.state.Y for r in log.rows]
    reached = max(ys) >= target_y - 0.5
    tail = log.rows[-5:]
    returned = all(abs(r.state.Y) <= 0.35 for r in tail)
    settled = abs(log.rows[-1].state.psi) <= 0.08
    return reached and returned and settled


def test_criterion_1_predictor_equation_fidelity(table_params):
    t0 = time.monotonic()
    cfg = MpcConfig(Np=1)
    p = table_params
    # The loop reference's step record, evaluated by hand below; the
    # library's horizon_cost is held equal to the reference's cost here.
    state = (10.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    args = (*state, [0.05, 0.0], p.m, p.Iz, p.lf, p.lr, p.Caf, p.Car, p.Rw,
            cfg.dt, cfg.yaw_div_m)
    xa, ya, rs, tape = _chain(*args)
    cost_args = (*args, (1.0, 0.0), 5.25, -1.75, cfg.a1, cfg.b1, cfg.b2,
                 cfg.b3, cfg.diff_code, (), 0.0)
    cost = _core_py.horizon_cost(*cost_args)
    same_cost = repr(cost) == repr(loop_cost_grad(*cost_args)[0])
    _, _, _, _, _, fcf_got, cp, sp, vxg, vyg = tape[0]
    # hand evaluation of the discrete chain with the table values
    fcf = -12000.0 * ((0.0 + 1.2 * 0.0) / 10.0 - 0.05)
    fcr = -12000.0 * ((0.0 - 1.05 * 0.0) / 10.0)
    vx1 = 10.0 + (0.0 * 0.0 - (2.0 / 2000.0)
                  * (fcf * math.sin(0.05) - 0.0 / 0.3)) * 0.1
    vy1 = 0.0 + (-10.0 * 0.0 + (2.0 / 2000.0)
                 * (fcf * math.cos(0.05) + fcr)) * 0.1
    r1 = 0.0 + ((2.0 / 1300.0) * (1.2 * fcf - 1.05 * fcr)) * 0.1
    psi1 = 0.0
    vxg1 = vx1 * math.cos(psi1) - vy1 * math.sin(psi1)
    vyg1 = vx1 * math.sin(psi1) + vy1 * math.cos(psi1)
    # The step's record holds the new heading's cosine and sine and the
    # new global velocity, which at psi1 = 0 is (vx1, vy1) exactly; fcr
    # reaches the result through vy1 and r1.
    pairs = [(fcf_got, fcf), (vxg, vx1), (vyg, vy1), (rs[0], r1),
             (cp, math.cos(psi1)), (sp, math.sin(psi1)),
             (xa[0], vxg1 * 0.1), (ya[0], vyg1 * 0.1)]
    worst = max(abs(g - w) / max(abs(w), 1e-30) if w != 0 else abs(g)
                for g, w in pairs)
    elapsed = time.monotonic() - t0
    _report(1, "predictor equation fidelity",
            worst <= 1e-9 and same_cost and elapsed < 1.0,
            f"worst rel err {worst:.2e}, cost {cost!r} "
            f"{'equals' if same_cost else 'differs from'} the reference's, "
            f"{elapsed:.2f}s")


def test_criterion_2_path_geometry(table_params):
    t0 = time.monotonic()
    sc = load_scenario("static_three_vehicle")
    path = build_lane_change_path(sc, table_params)
    R = min_turn_radius(10.0, table_params)
    ok = abs(R - 100.0 / (0.5 * 9.81)) < 1e-9 and round(R, 3) == 20.387
    arcs = [s for s in path.segments if s.kind == "arc"]
    ok &= bool(arcs) and all(abs(a.radius - R) <= 1e-6 for a in arcs)

    from lanempc.dubins import _sample_segment
    for a, b in zip(path.segments, path.segments[1:]):
        xe, ye, he, _ = _sample_segment(a, a.length)
        xs, ys, hs, _ = _sample_segment(b, 0.0)
        ok &= math.hypot(xe - xs, ye - ys) < 1e-9 and abs(he - hs) < 1e-9

    rects = [obstacle_boundary_at(ob, 0.0) for ob in sc.obstacles]
    road = sc.road
    n = int(path.total_length / 0.05)
    for i in range(n + 1):
        s = min(path.total_length, path.total_length * i / n)
        x, y, _, _ = sample_reference(path, s)
        ok &= road.lower_boundary_y < y < road.upper_boundary_y
        ok &= all(rect_signed_distance((x, y), r) > 0.0 for r in rects)
    elapsed = time.monotonic() - t0
    _report(2, "reference geometry", ok and elapsed < 1.0,
            f"R={R:.6f}, {elapsed:.2f}s")


def test_criterion_3_solver_grid_oracle(table_params):
    t0 = time.monotonic()
    cfg = MpcConfig(Np=1)
    sc = load_scenario("static_three_vehicle")
    path = build_lane_change_path(sc, table_params)
    rng = random.Random(2024)
    worst_rel = 0.0
    for _ in range(5):
        state = VehicleState(vx=rng.uniform(8.0, 12.0),
                             vy=rng.uniform(-0.5, 0.5),
                             r=rng.uniform(-0.2, 0.2),
                             X=rng.uniform(5.0, 60.0),
                             Y=rng.uniform(-0.5, 3.0),
                             psi=rng.uniform(-0.15, 0.15))
        s, _ = nearest_arclength(path, state.X, state.Y)
        refs = reference_for_horizon(path, s, 1, cfg.dt)
        res = solve_step(state, sc.road, refs, table_params, cfg,
                         zero_sequence(cfg))
        objective = horizon_objective(kernels.active().horizon_cost, state,
                                      sc.road, refs, table_params, cfg)
        best = math.inf
        for i in range(201):
            d = -cfg.delta_max + i * (2.0 * cfg.delta_max / 200.0)
            for j in range(201):
                tq = -cfg.Tb_max + j * ((cfg.Td_max + cfg.Tb_max) / 200.0)
                val = objective([d, tq])
                if val < best:
                    best = val
        rel = (res.cost - best) / max(abs(best), 1e-30)
        worst_rel = max(worst_rel, rel)
    elapsed = time.monotonic() - t0
    _report(3, "solver vs 201x201 grid oracle",
            worst_rel <= 1e-3 and elapsed < 30.0,
            f"worst rel gap {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_4_static_set(static_runs, default_cfg):
    sc, log, _, elapsed = static_runs
    ok = _completes_change_and_return(log)
    min_clear = min(r.clearance for r in log.rows)
    ok &= min_clear > 0.0
    for r in log.rows:
        ok &= abs(r.control[0]) <= default_cfg.delta_max
        ok &= -default_cfg.Tb_max <= r.control[1] <= default_cfg.Td_max
    ok &= elapsed < 60.0
    _report(4, "static-obstacle set", ok,
            f"min clearance {min_clear:.3f} m, run {elapsed:.1f}s")


def test_criterion_5_dynamic_set(dynamic_runs, default_cfg):
    sc, log, _, elapsed = dynamic_runs
    ok = _completes_change_and_return(log)
    min_clear = min(r.clearance for r in log.rows)
    ok &= min_clear > 0.0
    for r in log.rows:
        ok &= abs(r.control[0]) <= default_cfg.delta_max
        ok &= -default_cfg.Tb_max <= r.control[1] <= default_cfg.Td_max
    ok &= elapsed < 120.0
    _report(5, "dynamic-obstacle set", ok,
            f"min clearance {min_clear:.3f} m, run {elapsed:.1f}s")


def test_criterion_6_smoothness_ordering(static_runs, dynamic_runs,
                                         table_params, default_cfg):
    details = []
    ok = True
    for label, (_, log, baseline, _) in (("static", static_runs),
                                         ("dynamic", dynamic_runs)):
        m = compute_metrics(log, default_cfg)
        mb = compute_metrics(baseline, default_cfg)
        ok &= m.yaw_smoothness < mb.yaw_smoothness
        details.append(f"{label}: {m.yaw_smoothness:.1f} < "
                       f"{mb.yaw_smoothness:.1f}")
    _report(6, "yaw smoothness vs two-level baseline", ok,
            "; ".join(details))


def test_criterion_7_numerical_hygiene(table_params, default_cfg):
    cfg = default_cfg
    # (a) finite-difference gradient consistency at random in-box points
    sc = load_scenario("static_three_vehicle")
    path = build_lane_change_path(sc, table_params)
    state = VehicleState(vx=10.0, X=30.0, Y=0.3, psi=0.02)
    s, _ = nearest_arclength(path, state.X, state.Y)
    refs = reference_for_horizon(path, s, cfg.Np, cfg.dt)
    objective = horizon_objective(kernels.active().horizon_cost, state,
                                  sc.road, refs, table_params, cfg)

    rng = random.Random(11)
    spans = [2 * cfg.delta_max, cfg.Td_max + cfg.Tb_max] * cfg.Np
    grad_ok = True
    for _ in range(5):
        z = [rng.uniform(-0.4, 0.4) if j % 2 == 0 else rng.uniform(-120, 160)
             for j in range(2 * cfg.Np)]
        g1 = fd_gradient(objective, z, [1e-6 * s for s in spans])
        g2 = fd_gradient(objective, z, [1e-5 * s for s in spans])
        for a, b in zip(g1, g2):
            grad_ok &= abs(a - b) <= 1e-3 * (abs(a) + abs(b)) + 1e-9

    # (b) plant integrator order: halving dt shrinks the error by >= 8x
    u = ControlInput(delta_f=0.05, Tr=20.0)

    def integrate(dt):
        s = VehicleState(vx=10.0)
        for _ in range(round(2.0 / dt)):
            s = step(s, u, table_params, dt)
        return s

    s1, s2, s3 = integrate(0.02), integrate(0.01), integrate(0.005)

    def gap(a, b):
        return max(abs(x - y) for x, y in
                   zip((a.vx, a.vy, a.r, a.X, a.Y, a.psi),
                       (b.vx, b.vy, b.r, b.X, b.Y, b.psi)))

    ratio = gap(s1, s2) / gap(s2, s3)
    order_ok = ratio >= 8.0

    # (c) mirrored closed-loop run is the exactly Y-negated trajectory,
    # under both controllers
    sc2 = load_scenario("static_three_vehicle")
    mirrored = Scenario(
        road=Road(lane_width=3.5, lower_boundary_y=-5.25),
        obstacles=tuple(Obstacle(x0=o.x0, y0=-o.y0) for o in sc2.obstacles),
        ego_initial=VehicleState(vx=10.0), duration=sc2.duration)
    worst = 0.0
    for controller in ("integrated", "two_level"):
        log = run(sc2, table_params, cfg, controller=controller)
        mlog = run(mirrored, table_params, cfg, controller=controller)
        assert len(log.rows) == len(mlog.rows)
        for a, b in zip(log.rows, mlog.rows):
            worst = max(worst,
                        abs(a.state.Y + b.state.Y),
                        abs(a.state.psi + b.state.psi),
                        abs(a.state.X - b.state.X),
                        abs(a.state.vx - b.state.vx),
                        abs(a.state.vy + b.state.vy),
                        abs(a.state.r + b.state.r),
                        abs(a.control[0] + b.control[0]),
                        abs(a.control[1] - b.control[1]),
                        abs(a.cost - b.cost))
    mirror_ok = worst == 0.0
    _report(7, "numerical hygiene", grad_ok and order_ok and mirror_ok,
            f"grad ok={grad_ok}, rk ratio {ratio:.1f}, "
            f"mirror dev {worst:.2e}")


def test_criterion_8_deterministic_csv_output(tmp_path):
    scenario_file = os.path.join(SCENARIO_DIR, "static_three_vehicle.json")
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        rc = cli.main(["run", "--scenario", scenario_file,
                       "--controller", "both", "--out", str(out)])
        assert rc == 0
    identical = True
    for name in ("trajectory_integrated.csv", "trajectory_two_level.csv",
                 "metrics_integrated.csv", "metrics_two_level.csv",
                 "reference_path.csv", "waypoints.csv"):
        with open(outs[0] / name, "rb") as fa, open(outs[1] / name, "rb") as fb:
            identical &= fa.read() == fb.read()
    _report(8, "byte-identical repeated runs", identical)
