"""Every CLI output and the fuzz logs match the committed digests.

tests/golden_digests.txt is ``tests/output_digest.py 1 40``'s listing: the
14 CLI cases and one digest over fuzz seeds 1-40.  A change that alters an
output on purpose regenerates it (see tests/output_digest.py) and lists
each changed line with its reason; any other mismatch is a regression.
"""

import os

from output_digest import listing, platform_header

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.txt")


def test_outputs_match_golden_digests():
    with open(GOLDEN) as fh:
        header, *expected = fh.read().splitlines()
    actual = list(listing((1, 40)))
    mismatches = []
    case = None
    for i in range(max(len(expected), len(actual))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = actual[i] if i < len(actual) else "<missing>"
        if not got.startswith(" "):
            case = got
        if want != got:
            mismatches.append(f"{case}: golden {want.strip()!r}, "
                              f"now {got.strip()!r}")
    note = ""
    if header != platform_header():
        note = (f"\nThe digests were made on {header[2:]!r} and this is "
                f"{platform_header()[2:]!r}; they depend on the platform's "
                "libm, so a mismatch here may be the platform, not the code.")
    assert not mismatches, (f"{len(mismatches)} lines differ from {GOLDEN}:\n"
                            + "\n".join(mismatches) + note)
