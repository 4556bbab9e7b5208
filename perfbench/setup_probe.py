"""Set-up probe: what a fresh interpreter pays before a run starts.

    python3 setup_probe.py SRC_DIR DOCUMENTS_JSON

Imports pfltank from SRC_DIR, then loads and validates every scenario in
DOCUMENTS_JSON: a string is a bundled scenario name or a path, given to
load_scenario; an object is a scenario document, given to
scenario_from_config.  The caller times the whole process.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from pfltank.cli import load_scenario, scenario_from_config  # noqa: E402

with open(sys.argv[2]) as fh:
    for doc in json.load(fh):
        if isinstance(doc, str):
            load_scenario(doc)
        else:
            scenario_from_config(doc)
