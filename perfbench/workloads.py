"""The benchmark's workloads and the checks on their outputs.

Each workload is a list of operations; an operation is one scenario run
through pfltank's public entry points, followed by its audit (replay).  An
``Iteration`` runs every operation once and records each operation's timed
parts (run and replay), the artefact digests and the checks' verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from pfltank import cli, sim_harness

HERE = Path(__file__).resolve().parent
BUNDLED = ("paper_replica", "push_at_floor", "stricter_switch", "budget_starved")
ARM_REACH = HERE / "arm_reach.json"

#: Summary fields that do not come from the tick log: the scenario name, the
#: fault and the ISO comparison are attached by run() from the scenario.
NOT_FROM_LOG = {"scenario", "fault"}
SEGMENT_NOT_FROM_LOG = {"v_max_quasi_static", "v_max_transient",
                        "exceeded_quasi_static", "exceeded_transient"}


def log_fields(summary: dict) -> dict:
    """The part of a summary dict that summarize() recomputes from the log."""
    out = {k: v for k, v in summary.items() if k not in NOT_FROM_LOG}
    out["segments"] = [{k: v for k, v in seg.items() if k not in SEGMENT_NOT_FROM_LOG}
                       for seg in summary["segments"]]
    return out


def replay(ticks_path: Path, summary_path: Path) -> tuple[bool, list]:
    """The README's audit: does summarize(read_ticks_csv(...)) equal
    summary.json?  Returns the verdict and the replayed log."""
    ticks = sim_harness.read_ticks_csv(ticks_path)
    replayed = sim_harness.summarize(ticks)
    recorded = json.loads(summary_path.read_text())
    # a JSON round trip gives the replay the recorded file's value types
    same = log_fields(json.loads(json.dumps(replayed.to_dict()))) == log_fields(recorded)
    return same, ticks


def bound_violations(ticks) -> int:
    """Ticks whose true kinetic energy exceeds the active bound while the
    tank is not in deficit (a deficit is the legitimate braking transient
    after a tightening switch)."""
    budget = ticks[0].h_truth + ticks[0].tank_T
    return sum(1 for tk in ticks
               if tk.h_truth > (budget - tk.epsilon) + 1e-9
               and tk.tank_T >= tk.epsilon - 1e-9)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Iteration:
    run_s: dict = field(default_factory=dict)
    replay_s: dict = field(default_factory=dict)
    ticks: int = 0
    attempted: int = 0
    failed: int = 0
    faults: int = 0
    violations: int = 0
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, op: str, why: str):
        self.failed += 1
        self.errors.append(f"{op}: {why}")


class CliWorkload:
    """Scenario documents run through ``pfltank run`` in-process, each
    artefact pair then replayed from disk (bundled and arm_reach)."""

    def __init__(self, specs, work: Path, require_no_violations: bool):
        self.specs = list(specs)
        self.work = work
        # the README guarantees H <= E_active on the bundled scenarios;
        # arm_reach keeps the known arm overshoot visible instead
        self.require_no_violations = require_no_violations

    def documents(self) -> list[str]:
        return [str(s) for s in self.specs]

    def op_names(self) -> list[str]:
        return [Path(str(spec)).stem for spec in self.specs]

    def iterate(self, span) -> Iteration:
        it = Iteration()
        for spec, op in zip(self.specs, self.op_names()):
            out = self.work / op
            shutil.rmtree(out, ignore_errors=True)
            it.attempted += 1
            try:
                span("op", self._one, spec, op, out, it)
            except Exception as exc:  # a raising operation counts as failed
                it.fail(op, f"raised {type(exc).__name__}: {exc}")
        return it

    def _one(self, spec, op: str, out: Path, it: Iteration):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(spec), "--out", str(out)])
        t1 = time.perf_counter()
        it.run_s[op] = t1 - t0
        if code != 0:
            it.faults += 1
            it.fail(op, f"pfltank run exited {code}")
            return
        ticks_path, summary_path = out / "ticks.csv", out / "summary.json"
        ok, ticks = replay(ticks_path, summary_path)
        it.replay_s[op] = time.perf_counter() - t1
        if not ok:
            it.fail(op, "replay of ticks.csv disagrees with summary.json")
        summary = json.loads(summary_path.read_text())
        it.ticks += summary["n_ticks"]
        if summary["fault"] is not None:
            it.faults += 1
            it.fail(op, f"fault {summary['fault']}")
        for path in (ticks_path, summary_path):
            it.digests[f"{op}/{path.name}"] = sha256(path.read_bytes())
        violations = bound_violations(ticks)
        it.violations += violations
        if violations and self.require_no_violations:
            it.fail(op, f"{violations} ticks above the energy bound")


class SweepWorkload:
    """Generated scenario documents run in memory: scenario_from_config ->
    run, no CSV.  The replay is the same audit on the in-memory log."""

    def __init__(self, docs):
        self.docs = docs

    def documents(self) -> list[dict]:
        return self.docs

    def op_names(self) -> list[str]:
        return [doc["name"] for doc in self.docs]

    def iterate(self, span) -> Iteration:
        it = Iteration()
        for doc in self.docs:
            it.attempted += 1
            try:
                span("op", self._one, doc, it)
            except Exception as exc:  # a raising operation counts as failed
                it.fail(doc["name"], f"raised {type(exc).__name__}: {exc}")
        return it

    def _one(self, doc: dict, it: Iteration):
        op = doc["name"]
        t0 = time.perf_counter()
        result = sim_harness.run(cli.scenario_from_config(doc))
        t1 = time.perf_counter()
        recorded = result.summary.to_dict()
        replayed = sim_harness.summarize(result.ticks).to_dict()
        ok = log_fields(replayed) == log_fields(recorded)
        it.replay_s[op] = time.perf_counter() - t1
        it.run_s[op] = t1 - t0
        it.ticks += len(result.ticks)
        if result.fault is not None:
            it.faults += 1
            it.fail(op, f"fault {result.fault}")
        if not ok:
            it.fail(op, "summarize of the tick log disagrees with the run's summary")
        it.digests[op] = sha256(json.dumps(recorded, sort_keys=True).encode())
        it.violations += bound_violations(result.ticks)
