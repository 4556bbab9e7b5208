"""Fixtures shared across the test modules."""

import pytest

from pfltank.cli import load_scenario
from pfltank.sim_harness import run

BUNDLED = ("paper_replica", "push_at_floor", "stricter_switch", "budget_starved")


@pytest.fixture(scope="session")
def bundled_runs():
    """Each bundled scenario's RunResult by name, run once per session.  The
    results are shared, so a test that changes one works on a copy."""
    return {name: run(load_scenario(name)) for name in BUNDLED}
