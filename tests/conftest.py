"""Fixtures shared across the test modules."""

import contextlib
import io
from pathlib import Path

import pytest

from pfltank import cli

BUNDLED = ("paper_replica", "push_at_floor", "stricter_switch", "budget_starved")
ARM_REACH = str(Path(__file__).resolve().parents[1] / "perfbench" / "arm_reach.json")


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """``pfltank run`` of each bundled scenario and of the benchmark's arm
    scenario, perfbench/arm_reach.json, run once per session through
    cli.main: by scenario name, the RunResult that main's run() returned and
    the ticks.csv it streamed.  The results are shared, so a test that
    changes one works on a copy."""
    runs = {}
    real_run = cli.run

    def keep(scenario, ticks_csv=None):
        result = real_run(scenario, ticks_csv)
        runs[scenario.name] = result, Path(ticks_csv)
        return result

    cli.run = keep
    try:
        for spec in (*BUNDLED, ARM_REACH):
            out = tmp_path_factory.mktemp("run")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", spec, "--out", str(out)]) == cli.EXIT_OK
    finally:
        cli.run = real_run
    return runs


@pytest.fixture(scope="session")
def bundled_runs(cli_runs):
    """Each bundled scenario's RunResult by name, from cli_runs."""
    return {name: cli_runs[name][0] for name in BUNDLED}


@pytest.fixture(scope="session")
def arm_reach_run(cli_runs):
    """The RunResult of the benchmark's arm scenario, from cli_runs."""
    return cli_runs["arm_reach"][0]
