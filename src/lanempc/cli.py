"""Command-line simulator.

    lanempc run --scenario scenarios/static_three_vehicle.json \
                --controller both --out results/

Loads a scenario document (JSON; schema in the README), runs the requested
controller(s), and writes CSV logs plus a metrics summary.  Exit codes:
0 collision-free completion, 1 usage/config error or an --out that cannot
be written, 2 collision, 3 solver/plant abort (its message also reports a
collision, or a road boundary line reached, before the abort).
"""

import argparse
import dataclasses
import json
import os
import sys

from . import dubins, harness
from .dynamics import VehicleParams
from .mpc import MpcConfig
from .scenario import ScenarioSchemaError, scenario_from_dict

TRAJECTORY_COLUMNS = ("t", "vx", "vy", "r", "X", "Y", "psi", "delta_f",
                      "Tr", "J", "Xd", "Yd", "clearance", "converged")

METRIC_COLUMNS = ("rms_lateral_error", "max_lateral_error", "min_clearance",
                  "yaw_smoothness", "control_saturation_fraction")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="lanempc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="simulate a scenario", )
    run.add_argument("--scenario", required=True,
                     help="path to a scenario JSON document")
    run.add_argument("--controller", default="integrated",
                     choices=("integrated", "two_level", "both"))
    run.add_argument("--out", default=".",
                     help="output directory for CSV files (default: cwd)")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a controller/vehicle field by name "
                          "(repeatable), e.g. --set Np=5 --set mu=0.6")
    run.add_argument("--dump-path", action="store_true",
                     help="write reference_path.csv and waypoints.csv only "
                          "(no simulation)")
    return parser


def override_targets():
    """Overridable field names -> (dataclass name, field type)."""
    table = {}
    for cls, label in ((MpcConfig, "mpc"), (VehicleParams, "vehicle")):
        for f in dataclasses.fields(cls):
            if f.type in ("int", "float", int, float):
                table[f.name] = (label, int if f.type in ("int", int) else float)
    return table


def _apply_overrides(pairs, cfg, params):
    table = override_targets()
    cfg_updates = {}
    par_updates = {}
    for raw in pairs:
        if "=" not in raw:
            raise _UsageError(f"--set expects KEY=VALUE, got {raw!r}")
        key, _, text = raw.partition("=")
        key = key.strip()
        if key not in table:
            raise _UsageError(f"unknown --set key {key!r}")
        label, typ = table[key]
        try:
            value = typ(text)
        except ValueError:
            raise _UsageError(
                f"--set {key}: cannot parse {text!r} as {typ.__name__}")
        (cfg_updates if label == "mpc" else par_updates)[key] = value
    try:
        if cfg_updates:
            cfg = dataclasses.replace(cfg, **cfg_updates)
        if par_updates:
            params = dataclasses.replace(params, **par_updates)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return cfg, params


def _write_csv(path, header, rows):
    """Write the header, then each row as it is produced: rows may be a
    generator of string cells, and no list of rows is built."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _float_cells(values):
    """Full-precision CSV cells: the shortest decimal that parses back
    exactly."""
    return map(repr, map(float, values))


def _trajectory_cells(r):
    s = r.state
    return (*_float_cells((r.t, s.vx, s.vy, s.r, s.X, s.Y, s.psi,
                           r.control[0], r.control[1], r.cost, r.ref_x,
                           r.ref_y, r.clearance)),
            "1" if r.converged else "0")


def write_trajectory_csv(path, log):
    _write_csv(path, TRAJECTORY_COLUMNS, map(_trajectory_cells, log.rows))


def write_metrics_csv(path, metrics):
    values = _float_cells(getattr(metrics, name) for name in METRIC_COLUMNS)
    _write_csv(path, METRIC_COLUMNS, [values])


def write_path_csvs(out_dir, path):
    """reference_path.csv holds one row per segment start and one at the
    end; each row's curvature holds up to the next row's s."""
    _write_csv(os.path.join(out_dir, "reference_path.csv"),
               ("s", "x", "y", "heading", "curvature"),
               (_float_cells((s, *dubins.sample_reference(path, s)))
                for s in (*path.offsets, path.total_length)))
    _write_csv(os.path.join(out_dir, "waypoints.csv"), ("label", "x", "y"),
               ((label, *_float_cells(point)) for label, point
                in zip(path.waypoint_labels(), path.waypoints)))


def _summary_line(name, metrics):
    return (f"{name}: rms_err={metrics.rms_lateral_error:.4f} m  "
            f"max_err={metrics.max_lateral_error:.4f} m  "
            f"min_clearance={metrics.min_clearance:.4f} m  "
            f"yaw_smoothness={metrics.yaw_smoothness:.6f}  "
            f"saturation={metrics.control_saturation_fraction:.3f}")


def _left_road_note(rows, road):
    """The abort message's note when a logged Y is on or beyond a road
    boundary line: the line, the worst Y and its time; otherwise ''."""
    lo, hi = road.lower_boundary_y, road.upper_boundary_y
    worst = min(rows, key=lambda row: min(row.state.Y - lo, hi - row.state.Y))
    y = worst.state.Y
    if lo < y < hi:
        return ""
    name, line = ("lower", lo) if y - lo <= hi - y else ("upper", hi)
    return (f"; road boundary reached before the abort: Y={y:.4f} m at "
            f"t={worst.t:.2f} against the {name} line at y={line:.4f} m")


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1

    try:
        with open(args.scenario) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario file {args.scenario!r}: {exc}",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: scenario file {args.scenario!r} is not valid JSON: "
              f"{exc}", file=sys.stderr)
        return 1

    try:
        scenario = scenario_from_dict(doc)
    except (ScenarioSchemaError, ValueError) as exc:
        print(f"error: scenario file {args.scenario!r}: {exc}",
              file=sys.stderr)
        return 1

    cfg = MpcConfig()
    params = VehicleParams()
    try:
        cfg, params = _apply_overrides(args.overrides, cfg, params)
        harness.step_count(scenario, cfg)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return _run(args, scenario, cfg, params)
    except OSError as exc:
        print(f"error: cannot write to --out {args.out!r}: {exc}",
              file=sys.stderr)
        return 1


def _run(args, scenario, cfg, params):
    """Plan, simulate and write the CSVs into args.out; returns the exit
    code.  Raises OSError when args.out cannot be created or written."""
    os.makedirs(args.out, exist_ok=True)
    try:
        path = dubins.build_lane_change_path(scenario, params)
    except dubins.PathConstructionError as exc:
        print(f"error: cannot plan a path for this scenario: {exc}",
              file=sys.stderr)
        return 3
    write_path_csvs(args.out, path)
    if args.dump_path:
        print(f"wrote reference_path.csv and waypoints.csv to {args.out}")
        return 0

    controllers = (("integrated", "two_level") if args.controller == "both"
                   else (args.controller,))
    collided = False
    for name in controllers:
        try:
            log = harness.run(scenario, params, cfg, controller=name,
                              path=path)
        except harness.SimulationAborted as exc:
            message = f"error: {name} run aborted: {exc.cause}"
            if exc.log.rows:
                write_trajectory_csv(
                    os.path.join(args.out, f"trajectory_{name}.csv"), exc.log)
                worst = min(exc.log.rows, key=lambda row: row.clearance)
                if worst.clearance <= 0.0:
                    message += (f"; collision before the abort: min "
                                f"clearance {worst.clearance:.4f} m at "
                                f"t={worst.t:.2f}")
                message += _left_road_note(exc.log.rows, scenario.road)
            print(message, file=sys.stderr)
            return 3
        write_trajectory_csv(
            os.path.join(args.out, f"trajectory_{name}.csv"), log)
        metrics = harness.compute_metrics(log, path, cfg)
        write_metrics_csv(
            os.path.join(args.out, f"metrics_{name}.csv"), metrics)
        print(_summary_line(name, metrics))
        if metrics.min_clearance <= 0.0:
            collided = True
    return 2 if collided else 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
