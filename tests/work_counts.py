"""Bytecodes the interpreter executes in lanempc's code, for comparing the
work of two commits without timing them.

For each shipped scenario it runs one integrated ``harness.run`` (the
initial plan included) under ``sys.settrace`` with opcode events on, and
counts every bytecode executed in a ``lanempc`` module, per module and in
total.  Code outside the package (the standard library) is not counted.
The counts need no warm-up and no quiet host: a repeat run gives the
same numbers.  The four traced runs take a few seconds.

The first line names the platform (Python version and ``sys.platform``),
because the bytecode a function compiles to depends on the Python
version.  tests/work_counts.txt is this listing, and
tests/test_work_counts.py checks it.  A change that alters the count
regenerates it and states the change:

    PYTHONPATH=src python tests/work_counts.py > tests/work_counts.txt
"""

import sys
from collections import Counter

from lanempc import MpcConfig, VehicleParams, harness

from output_digest import SHIPPED, platform_header
from shipped import load_scenario


def count_bytecodes(fn):
    """Calls fn() and returns a Counter of the bytecodes it executed, keyed
    by the name of each ``lanempc`` module they belong to."""
    counts = Counter()

    def on_call(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("lanempc"):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            return on_event
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return counts


def listing():
    """The lines after the header: each scenario's name, then its counts
    per module and in total, indented."""
    params, cfg = VehicleParams(), MpcConfig()
    for name in SHIPPED:
        scenario = load_scenario(name)
        counts = count_bytecodes(lambda: harness.run(scenario, params, cfg))
        yield name
        for module in sorted(counts):
            yield f"  {module} {counts[module]}"
        yield f"  total {sum(counts.values())}"


def main():
    print(platform_header())
    for line in listing():
        print(line)


if __name__ == "__main__":
    main()
