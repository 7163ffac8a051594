"""The shipped scenario files (scenarios/*.json), loaded as the CLI loads
them."""

import json
import os

from lanempc.scenario import scenario_from_dict

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def load_scenario(name):
    """The Scenario of scenarios/<name>.json."""
    with open(os.path.join(SCENARIO_DIR, f"{name}.json")) as fh:
        return scenario_from_dict(json.load(fh))
