"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from covvsched import covv, oracle, trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace_flag", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace_flag):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", trace_flag, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace_flag == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    details = json.loads(lines[-2])["perfbench"]
    assert details["environment"]["seed"] == 5
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "git_revision"} <= set(
        details["environment"])


def test_traced_split_covers_the_replays(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    proc = run_bench("--workload", "desk-simulate", "--seconds", "0.1", "--trace", "1", "--smoke",
                     "--spans", str(spans_file))
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["perfbench.self_coverage"] == pytest.approx(1.0, abs=0.01)
    assert metrics["perfbench.label_checks"] > 0
    assert metrics["oracle.count_calls"] > 0 and metrics["covv.encode_calls"] > 0
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert spans and all(-1 <= s["parent"] < s["id"] for s in spans)
    assert {s["name"] for s in spans} >= {"pipeline.run_simulation", "oracle.count_suitable",
                                          "covv.encode_task", "neural.forward_pass"}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "desk-simulate", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_subtract_direct_children():
    spans = [["a.root", -1, 0.0, 10.0], ["b.f", 0, 1.0, 4.0], ["c.g", 1, 2.0, 3.0],
             ["b.f", 0, 5.0, 6.0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = tracing.summarize(spans)
    assert summary["layer_self"] == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert summary["total"]["b.f"] == 4.0 and summary["calls"]["b.f"] == 2


def test_split_check_passes_when_the_layers_cover_the_wall_time():
    spans = [["perfbench.replay", -1, 0.0, 10.0], ["pipeline.run_simulation", 0, 0.0, 10.0],
             ["oracle.count_suitable", 1, 1.0, 8.0]]
    summary = tracing.summarize(spans)
    assert tracing.coverage(summary, 10.0) == pytest.approx(1.0)
    assert tracing.split_problems(summary, 10.0) == []


def test_split_check_fails_on_time_outside_the_layers():
    # the benchmark's root span keeps 9 of the 10 seconds as its own
    spans = [["perfbench.replay", -1, 0.0, 10.0], ["oracle.count_suitable", 0, 1.0, 2.0]]
    summary = tracing.summarize(spans)
    assert tracing.coverage(summary, 10.0) == pytest.approx(0.1)
    assert len(tracing.split_problems(summary, 10.0)) == 1


def test_tracer_wraps_cross_module_call_sites_and_restores_them():
    original, leaf = trace.count_suitable, oracle.node_satisfies
    tracer = tracing.Tracer()
    with tracer.installed():
        assert trace.count_suitable is not original
        assert oracle.count_suitable is not original
        assert oracle.node_satisfies is leaf  # per-node helpers stay bare
        trace.count_suitable(oracle.NodeInventory(), covv.TaskConstraintSet(0))
    assert trace.count_suitable is original and oracle.count_suitable is original
    assert [s[0] for s in tracer.spans] == ["oracle.count_suitable"]


def _snapshot_capture():
    registry, inventory = covv.FeatureRegistry(), oracle.NodeInventory()
    for node in range(6):
        oracle.apply_machine_event(inventory, registry, node, "uid", str(node))
        oracle.apply_machine_event(inventory, registry, node, "a", str(node % 2))
    tasks = [covv.TaskConstraintSet(i, (covv.Constraint("uid", covv.Op.EQ, (str(i % 8),)),))
             if i % 3 == 0 else covv.TaskConstraintSet(i, (covv.Constraint("a", covv.Op.EQ, ("1",)),))
             for i in range(40)]
    grouping = oracle.GroupingConfig(increment=2)
    counted = {}
    tracer = tracing.Tracer({"oracle.count_suitable": lambda args, kwargs, result: counted.__setitem__(
        args[1].constraints, (args[1], result))})
    with tracer.installed():
        snapshot = trace.build_snapshot(tasks, registry, inventory, grouping)
    return workloads.capture_snapshot((tasks, registry, inventory, grouping), snapshot, counted)


def test_relabel_agrees_with_the_snapshot():
    captured = _snapshot_capture()
    checked, problems = workloads.relabel(captured)
    assert captured["counts"] and checked > len(captured["counts"]) and problems == []


def test_relabel_catches_a_wrong_label():
    captured = _snapshot_capture()
    captured["y"][-1] = 7
    _, problems = workloads.relabel(captured)
    assert len(problems) == 1


def test_relabel_catches_a_wrong_count_within_a_group():
    captured = _snapshot_capture()
    # one more suitable node keeps the label (increment 2) but not the count
    k = next(i for i, (_, count) in enumerate(captured["counts"]) if count == 3)
    task, count = captured["counts"][k]
    captured["counts"][k] = (task, count + 1)
    _, problems = workloads.relabel(captured)
    assert len(problems) == 1 and "count_suitable returned 4" in problems[0]
