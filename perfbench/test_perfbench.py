"""Tests of the benchmark itself: the generator, the replay check, the tracer.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pfltank import cli  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    assert sweep.generate(7) == sweep.generate(7)


def test_generator_varies_with_the_seed():
    assert sweep.generate(7) != sweep.generate(8)


def test_generator_keeps_the_batch_work_fixed():
    for seed in (1, 2):
        docs = sweep.generate(seed)
        assert len(docs) == len(sweep.KINDS) * sweep.RUNS_PER_KIND
        ticks = sum(round(d["duration"] / d["tau"]) for d in docs)
        assert ticks == len(sweep.KINDS) * sweep.TICKS_PER_KIND


def _short_run(tmp_path) -> Path:
    doc = json.loads(workloads.ARM_REACH.read_text())
    doc["duration"] = 0.05
    spec = tmp_path / "short.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(spec), "--out", str(out)]) == 0
    return out


def test_replay_catches_a_one_byte_edit(tmp_path):
    out = _short_run(tmp_path)
    ticks, summary = out / "ticks.csv", out / "summary.json"
    assert workloads.replay(ticks, summary)[0]

    lines = ticks.read_text().splitlines(keepends=True)
    column = lines[0].rstrip("\n").split(",").index("tank_T")
    fields = lines[1].split(",")
    value = fields[column]  # the first tick's tank energy, about 5 J
    fields[column] = str((int(value[0]) + 1) % 10) + value[1:]
    lines[1] = ",".join(fields)
    ticks.write_text("".join(lines))
    assert not workloads.replay(ticks, summary)[0]


def test_traced_run_leaves_no_wrapper():
    docs = sweep.generate(3)[:2]
    for doc in docs:
        doc["duration"] = 20 * doc["tau"]
    workload = workloads.SweepWorkload(docs)
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.find_wrappers()
        it = workload.iterate(tracer.span)
    assert it.failed == 0
    assert tracing.find_wrappers() == []
    layers = tracer.layer_metrics()
    assert layers["calls"]["safety_controller.control_cycle"] == 40
    assert layers["calls"]["cli.load"] == 2
    values = run.layer_values(layers, it)
    assert set(values) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert values["robot_dynamics.cartesian_step.calls"] + values["robot_dynamics.arm_step.calls"] == 40


def test_tracer_restores_after_an_error():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert tracing.find_wrappers() == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_speed_span_scales_each_operation_by_its_own_slowdown():
    span = run.SpeedSpan()
    assert [span("op", lambda x: x + 1, x) for x in (1, 2, 3)] == [2, 3, 4]
    assert len(span.slowdowns) == 3 and all(s > 0 for s in span.slowdowns)
    it = workloads.Iteration(run_s={"a": 2.0, "b": 6.0})
    assert run.scaled_totals([it], [[2.0, 3.0]], ["a", "b"], "run_s") == [3.0]
