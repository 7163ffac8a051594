import dataclasses
import json
import os


from lanempc import cli
from lanempc.dynamics import VehicleParams
from lanempc.mpc import MpcConfig

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


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["run", "--scenario", SMALL, "--frobnicate"]) == 1


def test_unknown_override_key_named(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", EMPTY, "--out", str(tmp_path),
                   "--set", "warp=9"])
    assert rc == 1
    assert "warp" in capsys.readouterr().err


def test_unparsable_override_value(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", EMPTY, "--out", str(tmp_path),
                   "--set", "Np=three"])
    assert rc == 1
    assert "Np" in capsys.readouterr().err


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


def test_unplannable_layout_exit_code(tmp_path, capsys):
    doc = {"road": {}, "ego": {"vx": 10.0}, "duration": 4.0,
           "obstacles": [{"x": 8.0, "y": 0.0}]}
    p = tmp_path / "blocked.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 3
    assert "cannot plan" in capsys.readouterr().err


def test_repeated_runs_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["run", "--scenario", SMALL, "--out", str(out)]) == 0
    for name in ("trajectory_integrated.csv", "metrics_integrated.csv",
                 "reference_path.csv", "waypoints.csv"):
        with open(out1 / name, "rb") as fa, open(out2 / name, "rb") as fb:
            assert fa.read() == fb.read()
