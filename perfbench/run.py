"""pfltank benchmark: run and replay timings per workload, plus a traced run.

    python3 perfbench/run.py --workload {bundled,arm_reach,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` next
to this directory; nothing is installed.  Inputs come from ``--seed`` (only
``sweep`` generates its scenarios from it; ``bundled`` and ``arm_reach`` run
fixed documents).  One process, no threads; operations run one after
another.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
of a fresh interpreter, then one untimed warm-up iteration, then as many
timed iterations as fit in ``--seconds``.  Each set-up sample and each
operation's times are scaled by the host's speed, measured with a fixed
reference chunk just before and after (``speed.py``); a timing is the
median over iterations of the scaled totals, and the unscaled median and
quartiles are printed alongside.  ``--trace 1``
alternates untraced and traced iterations for ``--seconds`` and reports
per-layer metrics from the traced ones (each figure the smallest over the
traced iterations).  Every iteration's outputs are checked (no fault,
replay equal to the summary, artefacts byte-identical to the warm-up's).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed and 1 when one failed; without pfltank's sources next to this
directory the benchmark exits 1 and prints no result.
Results go to ``.bench_work/results/``, spans of the traced run to
``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("bundled", "arm_reach", "sweep")
#: Fresh-interpreter set-ups per run; the median is reported.
SETUP_REPEATS = 11
#: Reference chunks timed on each side of a set-up sample and of an
#: operation (operations next to each other share the chunks between them).
SETUP_CHUNKS = 2
OP_CHUNKS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "safety_controller.control_cycle.calls": "count",
    "safety_controller.control_cycle.us": "us",
    "safety_controller.control_cycle.self_us": "us",
    "safety_controller.solve_alpha.us": "us",
    "safety_controller.supervise.us": "us",
    "safety_controller.supervise.retarget_ratio": "ratio",
    "safety_controller.scaled_ratio": "ratio",
    "safety_controller.deficit_ratio": "ratio",
    "energy_tank.commit_step.calls": "count",
    "energy_tank.commit_step.us": "us",
    "energy_tank.damper_coefficient.us": "us",
    "energy_tank.damper_armed_ratio": "ratio",
    "robot_dynamics.cartesian_step.calls": "count",
    "robot_dynamics.cartesian_step.us": "us",
    "robot_dynamics.observe.us": "us",
    "robot_dynamics.arm_step.calls": "count",
    "robot_dynamics.arm_step.us": "us",
    "sim_harness.run.s": "s",
    "sim_harness.loop_self_us": "us",
    "sim_harness.wrench_at.us": "us",
    "sim_harness.summarize.s": "s",
    "sim_harness.write_ticks_csv.s": "s",
    "sim_harness.write_ticks_csv.bytes": "bytes",
    "sim_harness.read_ticks_csv.s": "s",
    "sim_harness.read_ticks_csv.bytes": "bytes",
    "sim_harness.ticks_held": "count",
    "sim_harness.faults": "count",
    "cli.load.calls": "count",
    "cli.load.s": "s",
    "iso15066.calls": "count",
    "iso15066.s": "s",
    "bound_violations": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import pfltank from this checkout's sources, and nowhere else."""
    package = SRC / "pfltank"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no pfltank sources at {package}")
    sys.path.insert(0, str(SRC))
    import pfltank
    if Path(pfltank.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported pfltank from {pfltank.__file__}, "
                         f"not from {package}")


def make_workload(name: str, seed: int, work: Path):
    import sweep
    import workloads
    if name == "bundled":
        return workloads.CliWorkload(workloads.BUNDLED, work, require_no_violations=True)
    if name == "arm_reach":
        return workloads.CliWorkload([workloads.ARM_REACH], work,
                                     require_no_violations=False)
    return workloads.SweepWorkload(sweep.generate(seed))


def measure_setup(documents, work: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing pfltank and loading and
    validating the workload's documents, and the host's slowdown around
    each; the first, which may compile bytecode, is not kept."""
    docs_path = work / "documents.json"
    docs_path.write_text(json.dumps(documents))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(docs_path)]
    times, slowdowns = [], []
    for _ in range(SETUP_REPEATS + 1):
        before = speed.sample(SETUP_CHUNKS)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        slowdowns.append(speed.slowdown(before + speed.sample(SETUP_CHUNKS)))
    return times[1:], slowdowns[1:]


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class SpeedSpan:
    """A span that times reference chunks on each side of every operation
    and records, in call order, the host's slowdown around it.  Each
    operation starts from a collected heap, as a fresh ``pfltank run``
    does, so garbage left by earlier operations is not collected inside
    its timing."""

    def __init__(self):
        self.slowdowns: list[float] = []
        self._last = None

    def __call__(self, name, fn, *args, **kwargs):
        before = self._last if self._last is not None else speed.sample(OP_CHUNKS)
        gc.collect()
        try:
            return fn(*args, **kwargs)
        finally:
            self._last = speed.sample(OP_CHUNKS)
            self.slowdowns.append(speed.slowdown(before + self._last))


class Checker:
    """Counts operations and failures across iterations, and checks that
    each iteration's artefacts are byte-identical to the first one's."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.errors: list[str] = []

    def add(self, it):
        self.attempted += it.attempted
        self.failed += it.failed
        self.errors += it.errors
        if self.reference is None:
            self.reference = dict(it.digests)
            return
        for key in sorted(set(self.reference) | set(it.digests)):
            if it.digests.get(key) != self.reference.get(key):
                self.failed += 1
                self.errors.append(f"{key}: artefact bytes differ from the first iteration")


def quartiles(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def op_fastest(iterations, attr: str) -> float:
    """An iteration's time as the sum over its operations of each one's
    fastest sample in the run (timeit's convention)."""
    times = [getattr(it, attr) for it in iterations]
    return sum(min(t[op] for t in times if op in t) for op in times[0])


def totals(iterations, attr: str) -> list[float]:
    return [sum(getattr(it, attr).values()) for it in iterations]


class Deadline:
    """Stops a timed loop before an iteration that would overrun it; the
    first iteration always runs."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.last = None

    def more(self) -> bool:
        now = time.perf_counter()
        first = self.last is None
        step = 0.0 if first else now - self.last
        self.last = now
        return first or now + step - self.start < self.seconds


def scaled_totals(iterations, slowdowns, ops, attr: str) -> list[float]:
    """Each iteration's total of ``attr``, every operation's time divided by
    the host's slowdown around that operation."""
    return [sum(getattr(it, attr).get(op, 0.0) / s for op, s in zip(ops, per_op))
            for it, per_op in zip(iterations, slowdowns)]


def untraced(args, workload, work: Path, checker: Checker):
    setup, setup_slowdowns = measure_setup(workload.documents(), work)
    checker.add(workload.iterate(plain_call))  # warm-up, untimed
    iterations, slowdowns = [], []
    deadline = Deadline(args.seconds)
    while deadline.more():
        span = SpeedSpan()
        it = workload.iterate(span)
        slowdowns.append(span.slowdowns)
        checker.add(it)
        iterations.append(it)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = workload.op_names()
    unscaled = {"setup_s": setup, "run_s": totals(iterations, "run_s"),
                "replay_s": totals(iterations, "replay_s")}
    scaled_samples = {"setup_s": [t / s for t, s in zip(setup, setup_slowdowns)],
                      "run_s": scaled_totals(iterations, slowdowns, ops, "run_s"),
                      "replay_s": scaled_totals(iterations, slowdowns, ops, "replay_s")}
    stats = {name: quartiles(values) for name, values in unscaled.items()}
    metrics = {name: statistics.median(values) for name, values in scaled_samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    last = iterations[-1]
    report = {"stats": stats, "ticks_per_iteration": last.ticks,
              "scaled_stats": {name: quartiles(values)
                               for name, values in scaled_samples.items()},
              "slowdown": {"setup_s": quartiles(setup_slowdowns),
                           "operations": quartiles([s for per_op in slowdowns
                                                    for s in per_op])},
              "samples": {attr: {op: [getattr(it, attr).get(op) for it in iterations]
                                 for op in getattr(last, attr)}
                          for attr in ("run_s", "replay_s")},
              "us_per_tick": 1e6 * metrics["run_s"] / last.ticks,
              "bound_violations": last.violations, "faults": last.faults,
              "violations_by_iteration": sorted({it.violations for it in iterations})}
    return metrics, report


def layer_values(agg: dict, it) -> dict:
    calls, total, self_ns, counts = (agg["calls"], agg["total_ns"], agg["self_ns"],
                                     agg["counts"])

    def us(name):
        return total.get(name, 0) / 1e3

    def sec(name):
        return total.get(name, 0) / 1e9

    def ratio(count, name):
        return counts.get(count, 0) / calls[name] if calls.get(name) else 0.0

    return {
        "safety_controller.control_cycle.calls": calls.get("safety_controller.control_cycle", 0),
        "safety_controller.control_cycle.us": us("safety_controller.control_cycle"),
        "safety_controller.control_cycle.self_us":
            self_ns.get("safety_controller.control_cycle", 0) / 1e3,
        "safety_controller.solve_alpha.us": us("safety_controller.solve_alpha"),
        "safety_controller.supervise.us": us("safety_controller.supervise"),
        "safety_controller.supervise.retarget_ratio":
            ratio("retarget", "safety_controller.supervise"),
        "safety_controller.scaled_ratio": ratio("scaled", "safety_controller.solve_alpha"),
        "safety_controller.deficit_ratio": ratio("deficit", "safety_controller.control_cycle"),
        "energy_tank.commit_step.calls": calls.get("energy_tank.commit_step", 0),
        "energy_tank.commit_step.us": us("energy_tank.commit_step"),
        "energy_tank.damper_coefficient.us": us("energy_tank.damper_coefficient"),
        "energy_tank.damper_armed_ratio": ratio("armed", "energy_tank.damper_coefficient"),
        "robot_dynamics.cartesian_step.calls": calls.get("robot_dynamics.cartesian_step", 0),
        "robot_dynamics.cartesian_step.us": us("robot_dynamics.cartesian_step"),
        "robot_dynamics.observe.us": agg["observe_by_loop_ns"] / 1e3,
        "robot_dynamics.arm_step.calls": calls.get("robot_dynamics.arm_step", 0),
        "robot_dynamics.arm_step.us": us("robot_dynamics.arm_step"),
        "sim_harness.run.s": sec("sim_harness.run"),
        "sim_harness.loop_self_us": self_ns.get("sim_harness.run", 0) / 1e3,
        "sim_harness.wrench_at.us": us("sim_harness.wrench_at"),
        "sim_harness.summarize.s": sec("sim_harness.summarize"),
        "sim_harness.write_ticks_csv.s": sec("sim_harness.write_ticks_csv"),
        "sim_harness.write_ticks_csv.bytes": counts.get("sim_harness.write_ticks_csv.bytes", 0),
        "sim_harness.read_ticks_csv.s": sec("sim_harness.read_ticks_csv"),
        "sim_harness.read_ticks_csv.bytes": counts.get("sim_harness.read_ticks_csv.bytes", 0),
        "sim_harness.ticks_held": it.ticks,
        "sim_harness.faults": it.faults,
        "cli.load.calls": calls.get("cli.load", 0),
        "cli.load.s": sec("cli.load"),
        "iso15066.calls": calls.get("iso15066", 0),
        "iso15066.s": sec("iso15066"),
        "bound_violations": it.violations,
    }


def traced(args, workload, work: Path, checker: Checker):
    import tracing

    tracer = tracing.Tracer()
    checker.add(workload.iterate(plain_call))  # warm-up, untimed
    plain, traced_its, layers = [], [], []
    spans_path = WORK / "spans" / f"{args.workload}.csv"
    deadline = Deadline(args.seconds)
    while deadline.more():
        it = workload.iterate(plain_call)
        checker.add(it)
        plain.append(it)
        with tracer:
            it = workload.iterate(tracer.span)
        checker.add(it)
        traced_its.append(it)
        layers.append(layer_values(tracer.layer_metrics(), it))
        if len(layers) == 1:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_path)
        tracer.clear()
    for attr in tracing.find_wrappers():
        checker.failed += 1
        checker.errors.append(f"{attr}: still wrapped after the traced run")
    metrics = {name: min(v[name] for v in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = op_fastest(traced_its, "run_s") - op_fastest(plain, "run_s")
    report = {"traced_iterations": len(layers), "spans": str(spans_path.relative_to(ROOT)),
              "run_s_traced": quartiles(totals(traced_its, "run_s")),
              "run_s_untraced": quartiles(totals(plain, "run_s"))}
    return metrics, report


def print_report(args, metrics: dict, units: dict, report: dict, checker: Checker):
    print(f"pfltank benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        line = f"  {name:<44} {value:.6g} {units[name]}"
        stats = report.get("stats", {}).get(name)
        if stats:
            spread = report["scaled_stats"][name]
            line += (f"  (scaled q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}; unscaled "
                     f"samples {stats['n']}: median {stats['median']:.6g}, "
                     f"q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, max {stats['max']:.6g})")
        print(line)
    if args.trace == 0:
        slow = report["slowdown"]["operations"]
        print(f"  host slowdown around operations: median {slow['median']:.4g}, "
              f"min {slow['min']:.4g}, max {slow['max']:.4g}")
        print(f"  {'bound_violations':<44} {report['bound_violations']} count"
              f"  (per iteration; values seen {report['violations_by_iteration']})")
        print(f"  ticks per iteration {report['ticks_per_iteration']}, "
              f"{report['us_per_tick']:.4g} us/tick, faults {report['faults']}")
        for key, digest in sorted((report.get("digests") or {}).items()):
            print(f"  sha256 {key} {digest}")
        if "digests" in report:
            differing = report["digests_differing_from_recorded"]
            print(f"  artefacts differing from perfbench/digests.json: {differing or 'none'}")
    print(f"  attempted {checker.attempted} failed {checker.failed}")
    for error in checker.errors[:20]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    work = WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checker = Checker()
    try:
        workload = make_workload(args.workload, args.seed, work)
        if args.trace:
            metrics, report = traced(args, workload, work, checker)
            units = PER_LAYER
        else:
            metrics, report = untraced(args, workload, work, checker)
            units = END_TO_END
            if args.workload != "sweep":
                report["digests"] = checker.reference
                recorded = json.loads((HERE / "digests.json").read_text())
                report["digests_differing_from_recorded"] = sorted(
                    key for key, digest in checker.reference.items()
                    if recorded.get(key) != digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = checker.failed == 0
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "seconds": args.seconds, "correct": correct,
                                   "attempted": checker.attempted, "failed": checker.failed,
                                   "errors": checker.errors, "metrics": metrics,
                                   **report}, indent=2) + "\n")
    print_report(args, metrics, units, report, checker)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
