"""The interpreter's work in one integrated run of each shipped scenario
matches the committed counts.

tests/work_counts.txt is ``tests/work_counts.py``'s listing: per shipped
scenario, the bytecodes executed in each lanempc module and in total.  A
change that alters the work regenerates it (see tests/work_counts.py) and
states the change; any other mismatch is a change nobody meant.
"""

import os

from output_digest import differences, platform_header
from work_counts import listing

COUNTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "work_counts.txt")


def test_work_matches_committed_counts():
    with open(COUNTS) as fh:
        header, *expected = fh.read().splitlines()
    mismatches = differences(expected, list(listing()))
    note = ""
    if header != platform_header():
        note = (f"\nThe counts were made on {header[2:]!r} and this is "
                f"{platform_header()[2:]!r}; bytecode depends on the Python "
                "version, so a mismatch here may be the platform, not the "
                "code.")
    assert not mismatches, (f"{len(mismatches)} lines differ from {COUNTS}:\n"
                            + "\n".join(mismatches) + note)
