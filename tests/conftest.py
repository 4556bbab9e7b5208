"""Fixtures shared across the test modules."""

from pathlib import Path

import pytest

from pfltank.cli import load_scenario
from pfltank.sim_harness import run

BUNDLED = ("paper_replica", "push_at_floor", "stricter_switch", "budget_starved")
ARM_REACH = str(Path(__file__).resolve().parents[1] / "perfbench" / "arm_reach.json")


@pytest.fixture(scope="session")
def bundled_runs():
    """Each bundled scenario's RunResult by name, run once per session.  The
    results are shared, so a test that changes one works on a copy."""
    return {name: run(load_scenario(name)) for name in BUNDLED}


@pytest.fixture(scope="session")
def arm_reach_run():
    """The RunResult of the benchmark's arm scenario, perfbench/arm_reach.json,
    run once per session and shared like bundled_runs."""
    return run(load_scenario(ARM_REACH))
