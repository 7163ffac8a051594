import dataclasses
import json
import math
import os
import re
import tracemalloc

import pytest

from lanempc import cli, dubins, harness
from lanempc.dynamics import VehicleParams
from lanempc.mpc import MpcConfig
from lanempc.scenario import ScenarioSchemaError, scenario_from_dict

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SMALL = os.path.join(SCENARIO_DIR, "single_obstacle.json")
EMPTY = os.path.join(SCENARIO_DIR, "empty_road.json")


def read_trajectory_csv(path):
    """Inverse of cli.write_trajectory_csv; returns a list of dicts."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        out = []
        for line in fh:
            cells = line.strip().split(",")
            row = {k: float(v) for k, v in zip(header, cells)}
            row["converged"] = bool(int(cells[header.index("converged")]))
            out.append(row)
    return out


def read_path_csv(path):
    """Rows of reference_path.csv as tuples of floats, header checked."""
    with open(path) as fh:
        assert fh.readline() == "s,x,y,heading,curvature\n"
        return [tuple(map(float, line.split(","))) for line in fh]


def test_help_exits_zero(capsys):
    assert cli.main(["run", "--help"]) == 0


def test_missing_scenario_file_names_path(capsys):
    rc = cli.main(["run", "--scenario", "/nonexistent/file.json"])
    assert rc == 1
    assert "/nonexistent/file.json" in capsys.readouterr().err


def test_invalid_json_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--scenario", str(bad)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_schema_violation_names_key(tmp_path, capsys):
    doc = {"road": {}, "ego": {}, "duration": 5.0, "obstacles": [],
           "weather": "wet"}
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(p)]) == 1
    assert "weather" in capsys.readouterr().err


def test_road_other_than_two_lanes_is_a_schema_error(tmp_path, capsys):
    # Refused when parsed (exit 1), not left for the planner (exit 3).
    doc = {"road": {"n_lanes": 3}, "ego": {}, "duration": 5.0}
    with pytest.raises(ScenarioSchemaError, match="'n_lanes'"):
        scenario_from_dict(doc)
    p = tmp_path / "three_lanes.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(p), "--out", str(tmp_path)]) == 1
    assert "'n_lanes'" in capsys.readouterr().err


def test_malformed_scenario_values_exit_one_naming_the_key(tmp_path,
                                                          capsys):
    # Python's json writes and reads NaN, so a document can carry one.
    cases = {"duration": {"road": {}, "ego": {}, "duration": float("nan")},
             "'road'": {"road": [], "ego": {}, "duration": 5.0},
             "'vx'": {"road": {}, "ego": {"vx": True}, "duration": 5.0},
             "'x'": {"road": {}, "ego": {}, "duration": 5.0,
                     "obstacles": [{"x": None, "y": 0.0}]}}
    for key, doc in cases.items():
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1, key
        assert key in err and "Traceback" not in err


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["run", "--scenario", SMALL, "--frobnicate"]) == 1


def test_unknown_override_key_named(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", EMPTY, "--out", str(tmp_path),
                   "--set", "warp=9"])
    assert rc == 1
    assert "warp" in capsys.readouterr().err


def test_obstacle_weight_is_an_unknown_override_key(tmp_path, capsys):
    # The cost has no obstacle term: obstacles reach it through the plan.
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(tmp_path),
                   "--set", "obstacle_weight=0.5"])
    assert rc == 1
    assert "unknown --set key 'obstacle_weight'" in capsys.readouterr().err


def test_override_without_a_value_is_refused(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", EMPTY, "--out", str(tmp_path),
                   "--set", "Np"])
    assert rc == 1
    assert "--set expects KEY=VALUE, got 'Np'" in capsys.readouterr().err


def test_unparsable_override_value(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", EMPTY, "--out", str(tmp_path),
                   "--set", "Np=three"])
    assert rc == 1
    assert "Np" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["dt=nan", "dt=inf", "delta_max=inf"])
def test_non_finite_override_is_refused(tmp_path, capsys, override):
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(tmp_path),
                   "--set", override])
    assert rc == 1
    assert f"{override.partition('=')[0]} must be finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("duration,overrides,named", [
    (1e9, [], "duration=1000000000.0, dt=0.1"),
    (6.0, ["--set", "dt=1e-9"], "duration=6.0, dt=1e-09"),
    (1e6, ["--dump-path"], "duration=1000000.0, dt=0.1"),
    (6.0, ["--set", "dt=1e-320"], "duration=6.0, dt=1e-320"),
], ids=["duration", "dt", "dump", "dt_overflow"])
def test_run_of_too_many_steps_is_refused(tmp_path, capsys, duration,
                                          overrides, named):
    # 10^10, 6·10^9, 10^7 and an inf of control steps (6 / 1e-320
    # overflows): refused at once instead of simulated, and before
    # --dump-path plans or writes anything.
    p = tmp_path / "long.json"
    p.write_text(json.dumps({"road": {}, "ego": {}, "duration": duration}))
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", str(p), "--out", str(out),
                   *overrides])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{named}: more than 100000 control steps" in err
    assert not out.exists()


def _far_obstacle_doc(tmp_path):
    # A 10 s run (100 m at 10 m/s) past an obstacle 200 km ahead: the plan
    # swerves around it, so the path runs 200 km although the run is short.
    p = tmp_path / "far.json"
    p.write_text(json.dumps({"road": {}, "ego": {}, "duration": 10.0,
                             "obstacles": [{"x": 2e5, "y": 0.0}]}))
    return p


def test_far_obstacle_run_completes(tmp_path):
    assert cli.main(["run", "--scenario", str(_far_obstacle_doc(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0


def test_far_obstacle_dump_writes_one_row_per_segment(tmp_path, params):
    p = _far_obstacle_doc(tmp_path)
    rc = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path),
                   "--dump-path"])
    assert rc == 0
    with open(p) as fh:
        sc = scenario_from_dict(json.load(fh))
    path = dubins.build_lane_change_path(sc, params)
    assert path.total_length > 2e5
    rows = read_path_csv(tmp_path / "reference_path.csv")
    assert len(rows) == len(path.segments) + 1


def test_long_straight_dump_writes_two_rows(tmp_path):
    # 100,000 steps at dt=10 pass the step limit; the 10^7 m straight is
    # written as its start and its end.
    p = tmp_path / "long.json"
    p.write_text(json.dumps({"road": {}, "ego": {}, "duration": 1e6}))
    rc = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path),
                   "--set", "dt=10", "--dump-path"])
    assert rc == 0
    rows = read_path_csv(tmp_path / "reference_path.csv")
    assert len(rows) == 2
    assert rows[0][0] == 0.0 and rows[1][0] > 1e7


@pytest.mark.parametrize("override,named", [
    ("solver_tol=-1", "solver_tol must be >= 0"),
    ("solver_max_iter=0", "solver_max_iter must be >= 1"),
    ("solver_max_iter=-3", "solver_max_iter must be >= 1"),
], ids=["tol", "max_iter_zero", "max_iter_negative"])
def test_solver_settings_out_of_range_are_refused(tmp_path, capsys,
                                                  override, named):
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(out),
                   "--set", override])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_out_that_is_a_file_exits_one_naming_it(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(taken)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to --out {str(taken)!r}: ")
    assert "File exists" in err
    assert taken.read_text() == "not a directory"


def test_every_numeric_field_is_overridable(tmp_path):
    # Exhaustive: every numeric field of both config dataclasses round-trips
    # through --set (identity values; --dump-path avoids simulating).
    table = cli.override_targets()
    expected = set()
    for klass in (MpcConfig, VehicleParams):
        for f in dataclasses.fields(klass):
            if f.type in ("int", "float", int, float):
                expected.add(f.name)
    assert set(table) == expected
    defaults = {**dataclasses.asdict(MpcConfig()),
                **dataclasses.asdict(VehicleParams())}
    for name in sorted(expected):
        rc = cli.main(["run", "--scenario", EMPTY, "--out", str(tmp_path),
                       "--dump-path", "--set", f"{name}={defaults[name]}"])
        assert rc == 0, name


def test_dump_path_writes_geometry_only(tmp_path):
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(tmp_path),
                   "--dump-path"])
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["reference_path.csv", "waypoints.csv"]
    with open(tmp_path / "waypoints.csv") as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "label,x,y"
    assert first[0] == "P0"


def test_full_run_outputs_and_roundtrip(tmp_path, params, cfg):
    rc = cli.main(["run", "--scenario", SMALL, "--controller", "integrated",
                   "--out", str(tmp_path)])
    assert rc == 0
    for name in ("trajectory_integrated.csv", "metrics_integrated.csv",
                 "reference_path.csv", "waypoints.csv"):
        assert os.path.exists(tmp_path / name)

    # CSV round-trip reproduces the in-memory log exactly.
    import lanempc
    with open(SMALL) as fh:
        sc = lanempc.scenario_from_dict(json.load(fh))
    log = lanempc.run(sc, params, cfg)
    rows = read_trajectory_csv(tmp_path / "trajectory_integrated.csv")
    assert len(rows) == len(log.rows)
    for got, want in zip(rows, log.rows):
        assert got["t"] == want.t
        assert got["vx"] == want.state.vx
        assert got["Y"] == want.state.Y
        assert got["delta_f"] == want.control[0]
        assert got["Tr"] == want.control[1]
        assert got["J"] == want.cost
        assert got["clearance"] == want.clearance
        assert got["converged"] == want.converged

    with open(tmp_path / "metrics_integrated.csv") as fh:
        header = fh.readline().strip().split(",")
        values = fh.readline().strip().split(",")
    assert header == list(cli.METRIC_COLUMNS)
    assert len(values) == len(header)


def test_controller_both_writes_both_logs(tmp_path):
    rc = cli.main(["run", "--scenario", EMPTY, "--controller", "both",
                   "--out", str(tmp_path)])
    assert rc == 0
    names = set(os.listdir(tmp_path))
    assert {"trajectory_integrated.csv", "trajectory_two_level.csv",
            "metrics_integrated.csv", "metrics_two_level.csv"} <= names


def test_collision_exit_code(tmp_path):
    # Steering crippled by override: the vehicle cannot leave its lane and
    # drives through the parked obstacle's safety boundary.
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(tmp_path),
                   "--set", "delta_max=0.002"])
    assert rc == 2


def test_abort_after_collision_reports_it(tmp_path, capsys):
    # A one-step horizon steers the static run into an obstacle boundary
    # before the solver finds no finite cost: the abort exit code stays,
    # and the message carries the partial log's worst clearance.
    static = os.path.join(SCENARIO_DIR, "static_three_vehicle.json")
    rc = cli.main(["run", "--scenario", static, "--out", str(tmp_path),
                   "--set", "Np=1"])
    assert rc == 3
    err = capsys.readouterr().err
    rows = read_trajectory_csv(tmp_path / "trajectory_integrated.csv")
    worst = min(rows, key=lambda row: row["clearance"])
    assert worst["clearance"] <= 0.0
    assert "no finite cost" in err
    assert (f"collision before the abort: min clearance "
            f"{worst['clearance']:.4f} m at t={worst['t']:.2f}") in err


def test_abort_after_leaving_the_road_reports_it(tmp_path, capsys):
    # One solver iteration per step lets the static run cross the lower
    # boundary line before the solver finds no finite cost.
    static = os.path.join(SCENARIO_DIR, "static_three_vehicle.json")
    rc = cli.main(["run", "--scenario", static, "--out", str(tmp_path),
                   "--set", "solver_max_iter=1"])
    assert rc == 3
    err = capsys.readouterr().err
    rows = read_trajectory_csv(tmp_path / "trajectory_integrated.csv")
    worst = min(rows, key=lambda row: row["Y"])
    assert worst["Y"] <= -1.75
    assert "no finite cost" in err and "collision" not in err
    assert (f"road boundary reached before the abort: Y={worst['Y']:.4f} m "
            f"at t={worst['t']:.2f} against the lower line at "
            f"y=-1.7500 m") in err


def test_abort_without_collision_reports_only_the_abort(tmp_path, capsys,
                                                        monkeypatch):
    def aborted(scenario, params, cfg, controller, path):
        raise harness.SimulationAborted(
            "forced for the test", harness.SimulationLog((), 0.1, controller))

    monkeypatch.setattr(harness, "run", aborted)
    rc = cli.main(["run", "--scenario", SMALL, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "forced for the test" in err and "collision" not in err


def test_unplannable_layout_exit_code(tmp_path, capsys):
    doc = {"road": {}, "ego": {"vx": 10.0}, "duration": 4.0,
           "obstacles": [{"x": 8.0, "y": 0.0}]}
    p = tmp_path / "blocked.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 3
    assert "cannot plan" in capsys.readouterr().err


@pytest.mark.parametrize("ego_x,options,message,runaway_y", [
    # The plant reaches |X| ~ 1e160 m; squaring its distance to the plan
    # overflows to inf instead of raising OverflowError.
    (0.0, ["--set", "Rw=1e-200", "--controller", "two_level"],
     "two_level run aborted: plant failure at t=2.70", True),
    # An RK4 stage reaches an infinite heading, whose cosine raises
    # ValueError inside the plant.
    (0.0, ["--set", "Iz=1e-300", "--controller", "both"],
     "plant failure at t=2.50: non-finite heading", False),
    # At x = 1e308 the run's length rounds away, and the planner refuses
    # a plan of zero length.
    (1e308, [], "cannot plan a path for this scenario", False),
], ids=["overflowing_distance", "infinite_stage_heading",
        "zero_length_plan"])
def test_extreme_input_aborts_without_a_traceback(tmp_path, capsys, ego_x,
                                                  options, message,
                                                  runaway_y):
    # The static three-vehicle scenario, its ego starting at ego_x.
    with open(os.path.join(SCENARIO_DIR, "static_three_vehicle.json")) as fh:
        doc = json.load(fh)
    doc["ego"]["x"] = ego_x
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["run", "--scenario", str(p),
                   "--out", str(tmp_path / "out"), *options])
    err = capsys.readouterr().err
    assert rc == 3
    assert message in err and "Traceback" not in err
    # A runaway Y in the road-boundary note is printed in exponent form,
    # not as hundreds of digits.
    ys = re.findall(r"road boundary reached before the abort: Y=(\S+) m", err)
    assert [abs(float(y)) > 1e100 for y in ys] == [True] * runaway_y
    assert all(len(y) <= 12 for y in ys), ys


# Plan searches in one CLI run of each shipped scenario: one per step and
# one per accepted rebuild, all made by harness.run; the metrics read the
# logged distances and search nothing.
CLI_PATH_QUERIES = {
    ("static_three_vehicle", "integrated"): 141,
    ("static_three_vehicle", "two_level"): 141,
    ("dynamic_three_vehicle", "integrated"): 221,
    ("dynamic_three_vehicle", "two_level"): 216,
    ("single_obstacle", "integrated"): 81,
    ("single_obstacle", "two_level"): 81,
    ("empty_road", "integrated"): 61,
    ("empty_road", "two_level"): 61,
}


@pytest.mark.parametrize("name,controller", sorted(CLI_PATH_QUERIES))
def test_path_queries_per_cli_run(tmp_path, monkeypatch, name, controller):
    queries = []
    search = dubins.nearest_arclength

    def counted(*args):
        queries.append(args)
        return search(*args)

    monkeypatch.setattr(dubins, "nearest_arclength", counted)
    monkeypatch.setattr(harness, "nearest_arclength", counted)
    rc = cli.main(["run", "--scenario",
                   os.path.join(SCENARIO_DIR, f"{name}.json"),
                   "--out", str(tmp_path), "--controller", controller])
    assert rc == 0
    assert len(queries) == CLI_PATH_QUERIES[name, controller]


def test_repeated_runs_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["run", "--scenario", SMALL, "--out", str(out)]) == 0
    for name in ("trajectory_integrated.csv", "metrics_integrated.csv",
                 "reference_path.csv", "waypoints.csv"):
        with open(out1 / name, "rb") as fa, open(out2 / name, "rb") as fb:
            assert fa.read() == fb.read()


def _peak_alloc(write, *args):
    """Peak bytes traced while ``write(*args)`` runs."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writers_stream_their_rows(tmp_path, params, cfg,
                                       static_scenario):
    # The trajectory writer formats each row as it writes it and holds no
    # list of rows: building that list peaked at 186 KB on this scenario,
    # on Python 3.11.
    log = harness.run(static_scenario, params, cfg)
    traj = tmp_path / "trajectory_integrated.csv"
    assert _peak_alloc(cli.write_trajectory_csv, traj, log) < 96 * 1024
    with open(traj) as fh:
        assert len(fh.read().splitlines()) == len(log.rows) + 1


@pytest.mark.parametrize("name", ["static_scenario", "dynamic_scenario",
                                  "empty_scenario"])
def test_path_csv_round_trips_the_segments(tmp_path, params, request, name):
    # One row per segment start, plus the end: each is sample_reference at
    # that arclength, bit for bit.
    sc = request.getfixturevalue(name)
    path = dubins.build_lane_change_path(sc, params)
    cli.write_path_csvs(tmp_path, path)
    rows = read_path_csv(tmp_path / "reference_path.csv")
    assert len(rows) == len(path.segments) + 1
    expected = [(s, *dubins.sample_reference(path, s))
                for s in (*path.offsets, path.total_length)]
    assert repr(rows) == repr(expected)  # repr tells -0.0 from 0.0
    # Each row's line or arc (README's rebuild) reaches the next row.
    for (s0, x0, y0, h0, k0), (s1, x1, y1, h1, _) in zip(rows, rows[1:]):
        run = s1 - s0
        if k0 == 0.0:
            end = (x0 + run * math.cos(h0), y0 + run * math.sin(h0))
        else:
            cx, cy = x0 - math.sin(h0) / k0, y0 + math.cos(h0) / k0
            h = h0 + k0 * run
            end = (cx + math.sin(h) / k0, cy - math.cos(h) / k0)
            assert math.isclose(h, h1, abs_tol=1e-9)
        assert math.dist(end, (x1, y1)) < 1e-9