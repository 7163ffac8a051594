"""SHA-256 digests of everything the CLI writes, for showing that a change
leaves every output byte-identical.

For each case it runs ``lanempc.cli.main`` into a fresh temporary
directory and prints the exit code, one digest each of stdout, stderr and
every solver result (``repr`` of each ``SolveResult``: iterates,
evaluation counts, stop reasons and curvature estimates), and one digest
per output file.  The cases are the four shipped scenarios at Np = 3, 5
and 8 with ``--controller both``, and the static scenario's aborts at
``--set Np=1`` and ``--set solver_max_iter=1``.  Given a seed range, it
also prints one digest over every logged row and abort message of both
controllers on the closed-loop fuzz layouts (tests/fuzz_layouts.py).

The first line names the platform (Python version and ``sys.platform``),
because the digests depend on its ``libm``.  Run it at two commits and
compare the listings (the CLI cases take a few seconds; fuzz seeds 1-300
about 15 s more):

    PYTHONPATH=src python tests/output_digest.py > digest.txt
    PYTHONPATH=src python tests/output_digest.py 1 300 > digest.txt

tests/golden_digests.txt is this listing with fuzz seeds 1-40, and
tests/test_golden_outputs.py checks every output against it.  A change
that alters an output on purpose regenerates it:

    PYTHONPATH=src python tests/output_digest.py 1 40 > tests/golden_digests.txt
"""

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile

from lanempc import MpcConfig, VehicleParams, cli, harness

from fuzz_layouts import layout, planned_path

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "scenarios")
SHIPPED = ("static_three_vehicle", "dynamic_three_vehicle",
           "single_obstacle", "empty_road")


def cases():
    """(label, CLI arguments after --scenario and --out) of every case."""
    for name in SHIPPED:
        for np_ in (3, 5, 8):
            yield (f"{name} Np={np_}",
                   (name, "--controller", "both", "--set", f"Np={np_}"))
    for setting in ("Np=1", "solver_max_iter=1"):
        yield (f"static_three_vehicle {setting}",
               ("static_three_vehicle", "--controller", "both",
                "--set", setting))


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def recorded_solves():
    """Collects repr(SolveResult) of every solve the harness makes."""
    seen = []
    original = harness.solve_step

    def recording(*args, **kwargs):
        res = original(*args, **kwargs)
        seen.append(repr(res))
        return res

    harness.solve_step = recording
    try:
        yield seen
    finally:
        harness.solve_step = original


def digest_case(name, options):
    """Lines of one CLI case: exit code, stream and solve digests, and one
    digest per output file; the output directory reads as <out>."""
    scenario = os.path.join(SCENARIO_DIR, f"{name}.json")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with recorded_solves() as solves, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(["run", "--scenario", scenario, "--out", out_dir,
                             *options])
        lines = [f"exit {code}",
                 f"stdout {sha(stdout.getvalue().replace(out_dir, '<out>'))}",
                 f"stderr {sha(stderr.getvalue().replace(out_dir, '<out>'))}",
                 f"solves {len(solves)} {sha(chr(10).join(solves))}"]
        for file_name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, file_name), "rb") as fh:
                lines.append(f"{file_name} {sha(fh.read())}")
    return lines


def digest_fuzz(first, last):
    """One digest over the logged rows (or the abort cause and partial
    rows) of both controllers on every planned layout of the seeds."""
    params, cfg = VehicleParams(), MpcConfig()
    h = hashlib.sha256()
    runs = 0
    for seed in range(first, last + 1):
        scenario = layout(seed)
        path = planned_path(scenario, params)
        if path is None:
            continue
        for controller in ("integrated", "two_level"):
            try:
                rows = harness.run(scenario, params, cfg,
                                   controller=controller, path=path).rows
            except harness.SimulationAborted as exc:
                h.update(f"abort {exc.cause}\n".encode())
                rows = exc.log.rows
            runs += 1
            h.update(f"seed {seed} {controller}\n".encode())
            for row in rows:
                h.update(f"{row!r}\n".encode())
    return f"fuzz seeds {first}-{last}: {runs} runs {h.hexdigest()}"


def platform_header():
    """The listing's first line: the platform the digests were made on."""
    return f"# python {platform.python_version()} {sys.platform}"


def listing(seeds=None):
    """The lines after the header: each case's label, then its digest
    lines indented; with ``seeds = (first, last)``, the fuzz line."""
    for label, (name, *options) in cases():
        yield label
        for line in digest_case(name, options):
            yield f"  {line}"
    if seeds:
        yield digest_fuzz(*seeds)


def differences(expected, actual):
    """Each line where two listings differ, named by the case (the last
    unindented line) it falls under; missing lines read "<missing>"."""
    out = []
    case = None
    for i in range(max(len(expected), len(actual))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = actual[i] if i < len(actual) else "<missing>"
        if not got.startswith(" "):
            case = got
        if want != got:
            out.append(f"{case}: committed {want.strip()!r}, "
                       f"now {got.strip()!r}")
    return out


def main(argv):
    print(platform_header())
    seeds = (int(argv[0]), int(argv[1])) if len(argv) > 1 else None
    for line in listing(seeds):
        print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
