"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its runtime (run with -s to see them
all) and enforces the stated tolerance. The desk-scale end-to-end runs are
shared across criteria through a session fixture.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import gradient_check

from covvsched.covv import (
    Constraint,
    FeatureRegistry,
    Op,
    TaskConstraintSet,
    encode_constraint,
    encode_task,
)
from covvsched.evalkit import REPORT_COLUMNS
from covvsched.growing import TrainConfig, extend_input_layer, run_training_epoch
from covvsched.neural import (
    AdamState,
    DenseLayer,
    Gradients,
    TwoLayerClassifier,
    adam_step,
    class_weight_vector,
    forward,
    gradient_multipliers,
    init_model,
    weighted_cross_entropy,
)
from covvsched.oracle import (
    UNSCHEDULABLE,
    GroupingConfig,
    NodeInventory,
    apply_machine_event,
    count_suitable,
    group_label,
)
from covvsched.pipeline import ARM_FULLY_RETRAIN, ARM_GROWING, RunConfig, run_simulation
from covvsched.schedsim import OracleClassifier, SchedulerConfig, simulate
from covvsched.trace import (
    MachineEvent,
    SyntheticTraceConfig,
    TaskEvent,
    generate_events,
)

DESK_SEEDS = (11, 12, 13, 14, 15)


def report(number, name, ok, elapsed, budget=None, detail=""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[criterion {number:02d}] {verdict} {name} ({elapsed:.2f}s){extra}")
    assert ok, f"criterion {number} failed: {name}{extra}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran its {budget}s budget ({elapsed:.2f}s)"


def desk_config(seed, out_dir):
    growth = tuple((2_000_000 + i * 2_000_000, 3) for i in range(20))
    return RunConfig(
        trace=SyntheticTraceConfig(
            node_count=200, attribute_count=8, values_per_attribute=10,
            task_count=42_000, constrained_fraction=0.4, restrictive_rate=15,
            growth_schedule=growth, span_us=44_000_000, seed=seed),
        grouping=GroupingConfig(increment=500),
        train=TrainConfig(),
        seed=seed,
        out_dir=str(out_dir),
    )


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """One end-to-end run per fixed seed: 200 nodes, 20 growth steps,
    roughly 2,000 tasks per step."""
    runs = {}
    for seed in DESK_SEEDS:
        out = tmp_path_factory.mktemp(f"desk-{seed}")
        started = time.perf_counter()
        result = run_simulation(desk_config(seed, out))
        runs[seed] = (result, time.perf_counter() - started)
    return runs


def test_criterion_01_reference_constraint_encodings():
    started = time.perf_counter()
    registry = FeatureRegistry()
    for v in range(10):
        registry.register("AM", str(v))
    ge5 = encode_constraint(Constraint("AM", Op.GE, ("5",)), registry)
    gt0 = encode_constraint(Constraint("AM", Op.GT, ("0",)), registry)
    band = encode_task(TaskConstraintSet(0, (
        Constraint("AM", Op.GT, ("0",)),
        Constraint("AM", Op.LT, ("3",)),
    )), registry)
    ok = (
        ge5.tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        and gt0.tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        and band.tolist() == [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1]
    )
    report(1, "reference constraint encodings reproduce bit-exact",
           ok, time.perf_counter() - started, budget=1.0)


def test_criterion_02_gradient_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    weights = class_weight_vector()
    worst = 0.0
    for _ in range(200):
        features = int(rng.integers(2, 11))
        model = init_model(features, seed=int(rng.integers(0, 2**31)))
        model.layer1.bias = rng.normal(0, 0.1, 30)
        model.layer2.bias = rng.normal(0, 0.1, 26)
        rows = int(rng.integers(2, 5))
        X = (rng.random((rows, features)) < 0.5).astype(float)
        y = rng.integers(0, 26, size=rows)
        worst = max(worst, gradient_check(model, X, y, weights, h=1e-5))
    report(2, "analytic gradients match central finite differences",
           worst < 1e-4, time.perf_counter() - started, budget=30.0,
           detail=f"max_rel_err={worst:.2e}")


def test_criterion_03_extension_invariance():
    started = time.perf_counter()
    model = init_model(300, seed=303)
    extended = extend_input_layer(model, 340)
    rng = np.random.default_rng(303)
    X_old = (rng.random((1000, 300)) < 0.05).astype(float)
    X_pad = np.hstack([X_old, np.zeros((1000, 40))])
    diff = np.abs(forward(extended, X_pad) - forward(model, X_old)).max()
    report(3, "zero-padded inputs keep exact logits after extension",
           diff == 0.0, time.perf_counter() - started, budget=5.0,
           detail=f"max_abs_diff={diff}")


def test_criterion_04_gradient_scaling_locality():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    model = extend_input_layer(init_model(20, seed=404), 26)
    n = 256
    y = (rng.random(n) < 0.5).astype(np.int64)
    X = np.zeros((n, 26))
    X[:, :20] = (rng.random((n, 20)) < 0.2).astype(float)
    X[y == 0, 20:23] = 1.0  # labels hinge on the new columns
    X[y == 1, 23:26] = 1.0
    pretrained = model.layer1.weights[:, :20].copy()
    fresh = model.layer1.weights[:, 20:].copy()
    model.layer2.frozen = True
    run_training_epoch(model, AdamState(), X, y, class_weight_vector(),
                       gradient_multipliers(20, 26, rate=0.0),
                       np.random.default_rng(0), batch_size=64)
    ok = (np.array_equal(model.layer1.weights[:, :20], pretrained)
          and not np.array_equal(model.layer1.weights[:, 20:], fresh))
    report(4, "zero-rate training leaves pretrained columns bit-unchanged",
           ok, time.perf_counter() - started, budget=5.0)


def reference_group_label(nodes, task, increment):
    """Brute-force labeler written independently of the library code."""
    def cmp(a, b):
        try:
            x, z = int(a), int(b)
        except ValueError:
            return (a > b) - (a < b)
        return (x > z) - (x < z)

    def holds(attrs, c):
        v = attrs.get(c.attribute)
        op = c.op.value
        if op == "PRESENT":
            return v is not None
        if op == "ABSENT":
            return v is None
        if v is None:
            return op in ("NE", "NOT_IN")
        if op == "EQ":
            return cmp(v, c.operands[0]) == 0
        if op == "NE":
            return cmp(v, c.operands[0]) != 0
        if op == "LT":
            return cmp(v, c.operands[0]) < 0
        if op == "LE":
            return cmp(v, c.operands[0]) <= 0
        if op == "GT":
            return cmp(v, c.operands[0]) > 0
        if op == "GE":
            return cmp(v, c.operands[0]) >= 0
        if op == "IN":
            return any(cmp(v, o) == 0 for o in c.operands)
        if op == "NOT_IN":
            return all(cmp(v, o) != 0 for o in c.operands)
        raise AssertionError(op)

    count = sum(1 for attrs in nodes.values()
                if all(holds(attrs, c) for c in task.constraints))
    if count == 0:
        return UNSCHEDULABLE
    if count == 1:
        return 0
    return min(25, math.ceil(count / increment))


def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    cfg = SyntheticTraceConfig(
        node_count=200, attribute_count=8, values_per_attribute=10,
        task_count=1000, constrained_fraction=0.45, restrictive_rate=100, seed=505)
    events = generate_events(cfg)
    inventory, registry = NodeInventory(), FeatureRegistry()
    grouping = GroupingConfig(increment=500)
    agree = total = 0
    for event in events:
        if isinstance(event, MachineEvent):
            apply_machine_event(inventory, registry, event.node, event.attribute, event.value)
            continue
        total += 1
        pipeline_label = group_label(count_suitable(inventory, event.task), grouping)
        independent = reference_group_label(inventory.nodes, event.task, grouping.increment)
        agree += pipeline_label == independent
    report(5, "pipeline labels match an independent brute-force relabeling",
           agree == total == 1000, time.perf_counter() - started, budget=10.0,
           detail=f"{agree}/{total} agree")


def test_criterion_06_loss_and_optimizer_anchors():
    started = time.perf_counter()
    loss, _ = weighted_cross_entropy(np.zeros((1, 26)), [7], np.ones(26))
    uniform_ok = abs(loss - math.log(26)) < 1e-9

    model = init_model(5, seed=606)
    before = [model.layer1.weights.copy(), model.layer1.bias.copy(),
              model.layer2.weights.copy(), model.layer2.bias.copy()]
    zeros = Gradients(np.zeros_like(model.layer1.weights), np.zeros_like(model.layer1.bias),
                      np.zeros_like(model.layer2.weights), np.zeros_like(model.layer2.bias))
    state = AdamState()
    adam_step(state, model, zeros)
    zero_ok = (np.array_equal(model.layer1.weights, before[0])
               and np.array_equal(model.layer1.bias, before[1])
               and np.array_equal(model.layer2.weights, before[2])
               and np.array_equal(model.layer2.bias, before[3]))

    scalar = TwoLayerClassifier(
        layer1=DenseLayer(np.array([[1.0]]), np.zeros(1)),
        layer2=DenseLayer(np.zeros((2, 1)), np.zeros(2), frozen=True),
    )
    grads = Gradients(np.array([[4.0]]), np.zeros(1), np.zeros((2, 1)), np.zeros(2))
    adam_step(AdamState(lr=0.05), scalar, grads)
    expected = 1.0 - 0.05 * 4.0 / (4.0 + 1e-8)
    scalar_ok = abs(scalar.layer1.weights[0, 0] - expected) < 1e-9

    report(6, "loss and optimizer anchors hold",
           uniform_ok and zero_ok and scalar_ok, time.perf_counter() - started,
           detail=f"uniform={uniform_ok} zero_step={zero_ok} scalar_step={scalar_ok}")


def test_criterion_07_desk_scale_growing_quality(desk_runs):
    result, elapsed = desk_runs[DESK_SEEDS[0]]
    rows = [r for r in result.reports if r.model == ARM_GROWING]
    acc_share = sum(r.accuracy > 0.95 for r in rows) / len(rows)
    with_support = [r for r in rows if r.group0_f1 is not None]
    f1_share = sum(r.group0_f1 > 0.9 for r in with_support) / len(with_support)
    within_limit = all(r.epochs <= TrainConfig().epochs_limit * TrainConfig().max_attempts
                       for r in rows)
    ok = acc_share >= 0.8 and f1_share >= 0.8 and within_limit and len(rows) >= 20
    report(7, "growing arm clears 0.95 accuracy and 0.9 group-0 F1 gates",
           ok, elapsed, budget=300.0,
           detail=f"steps={len(rows)} acc_share={acc_share:.2f} "
                  f"f1_share={f1_share:.2f} (support at {len(with_support)} steps)")


def test_criterion_08_epoch_savings(desk_runs):
    started = time.perf_counter()
    ratios = {}
    holds = 0
    for seed in DESK_SEEDS:
        result, _ = desk_runs[seed]
        growing = sum(r.epochs for r in result.reports if r.model == ARM_GROWING)
        full = sum(r.epochs for r in result.reports if r.model == ARM_FULLY_RETRAIN)
        ratio = growing / full if full else float("inf")
        ratios[seed] = ratio
        holds += ratio <= 0.6
    elapsed = sum(t for _, t in desk_runs.values()) + (time.perf_counter() - started)
    detail = " ".join(f"seed{seed}={ratio:.2f}" for seed, ratio in ratios.items())
    report(8, "growing epochs within 60% of fully-retrain epochs (4 of 5 seeds)",
           holds >= 4, elapsed, detail=detail)


def adversarial_trace(node_count=40, seed=909):
    """Single-node tasks arriving behind bursts of unconstrained work."""
    rng = np.random.default_rng(seed)
    events = [MachineEvent(0, n, "uid", str(n)) for n in range(node_count)]
    tid = 0
    for wave in range(3):
        base = 1_000 + wave * 150_000
        for _ in range(400):
            events.append(TaskEvent(base, TaskConstraintSet(tid), 20_000))
            tid += 1
        for _ in range(4):
            target = int(rng.integers(0, node_count))
            events.append(TaskEvent(
                base + 1_000,
                TaskConstraintSet(tid, (Constraint("uid", Op.EQ, (str(target),)),)),
                5_000))
            tid += 1
    return sorted(events, key=lambda e: e.time)


def test_criterion_09_scheduler_routing_benefit():
    started = time.perf_counter()
    events = adversarial_trace()
    fifo = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
    co = simulate(events, NodeInventory(), OracleClassifier(GroupingConfig()),
                  SchedulerConfig(policy="co-analyzer"))

    def mean_group0(result):
        lat = [s.placement_tick - s.submit_tick for s in result.samples if s.true_group == 0]
        return sum(lat) / len(lat)

    fifo_mean = mean_group0(fifo)
    co_mean = mean_group0(co)
    ok = (co_mean <= 0.8 * fifo_mean
          and fifo.placed == co.placed
          and fifo.unplaced == co.unplaced)
    report(9, "priority routing cuts single-node-task latency by 20%",
           ok, time.perf_counter() - started, budget=60.0,
           detail=f"fifo={fifo_mean:.1f} co-analyzer={co_mean:.1f} ticks")


def test_criterion_10_simulate_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text("""{
      "trace": {"node_count": 30, "attribute_count": 3, "values_per_attribute": 5,
                "task_count": 600, "constrained_fraction": 0.4, "restrictive_rate": 60,
                "growth_schedule": [[1000000, 2], [2000000, 2]],
                "span_us": 3000000, "seed": 5},
      "run": {"seed": 5}
    }""")
    outputs = []
    # the package source, not an installed copy, and importable without PYTHONPATH set
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for name in ("first", "second"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "covvsched", "simulate",
             "--config", str(config), "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "step_reports.csv").read_bytes())
    header_ok = outputs[0].decode().splitlines()[0] == ",".join(REPORT_COLUMNS)
    report(10, "repeated simulate runs write byte-identical reports",
           outputs[0] == outputs[1] and header_ok, time.perf_counter() - started)
