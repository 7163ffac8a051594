"""Bytecodes the interpreter executes in lanempc's code, for comparing the
work of two commits without timing them.

For each shipped scenario it runs one integrated ``harness.run`` (the
initial plan included) under ``sys.settrace`` with opcode events on, and
counts every bytecode executed in a ``lanempc`` module, per module and in
total.  Code outside the package (the standard library) is not counted;
code the package generates and compiles at run time counts under the
module that generated it.  The counts need no quiet host: a repeat run
gives the same numbers.  Each scenario first runs once untraced, because
the first solve at a size in a process generates that size's kernels;
the count is of a run that reuses them, the same in any process, and
leaves the one-off generation out.  The runs take a few seconds.

The first line names the platform (Python version and ``sys.platform``),
because the bytecode a function compiles to depends on the Python
version.  tests/work_counts.txt is this listing, and
tests/test_work_counts.py checks it.  A change that alters the count
regenerates it and states the change:

    PYTHONPATH=src python tests/work_counts.py > tests/work_counts.txt

With ``--functions`` it prints, after each scenario's module counts, the
count of every (module, function) pair, largest first, so a reader can
see where a count moved.  That listing is for reading only; the committed
file and its check hold the module counts alone.
"""

import sys
from collections import Counter

from lanempc import MpcConfig, VehicleParams, harness

from output_digest import SHIPPED, platform_header
from shipped import load_scenario


def count_bytecodes(fn):
    """Calls fn() and returns a Counter of the bytecodes it executed, keyed
    by (module, function name) for each ``lanempc`` module."""
    counts = Counter()

    def on_call(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("lanempc"):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        key = (module, frame.f_code.co_name)

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[key] += 1
            return on_event
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return counts


def listing(functions=False):
    """The lines after the header: each scenario's name, then its counts
    per module and in total, indented; with functions, then the count of
    each (module, function) pair, largest first."""
    params, cfg = VehicleParams(), MpcConfig()
    for name in SHIPPED:
        scenario = load_scenario(name)
        harness.run(scenario, params, cfg)
        counts = count_bytecodes(lambda: harness.run(scenario, params, cfg))
        modules = Counter()
        for (module, _), count in counts.items():
            modules[module] += count
        yield name
        for module in sorted(modules):
            yield f"  {module} {modules[module]}"
        yield f"  total {sum(modules.values())}"
        if functions:
            for (module, function), count in sorted(
                    counts.items(), key=lambda item: (-item[1], item[0])):
                yield f"    {module}.{function} {count}"


def main():
    print(platform_header())
    for line in listing("--functions" in sys.argv[1:]):
        print(line)


if __name__ == "__main__":
    main()
