"""The benchmark's workloads: offline batch replays of synthetic traces.

Each workload replays a batch of traces, one process, no wall-clock
arrival process. The traces come from the run seed: instance i of a run
with seed s uses trace seed `s * 1000 + i`. Set-up writes every trace to
the work directory (and, for the scheduler workload, trains the classifier
the co-analyzer policy routes with); the timed replay then starts from the
trace file, as `covvsched simulate` and `covvsched sched-sim` do.

All calls into covvsched go through module attributes (`pipeline.run_simulation`,
`schedsim.simulate`, ...), so a traced run sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from covvsched import growing, oracle, pipeline, schedsim, trace

SIMULATE = "simulate"
SCHED = "sched"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # SIMULATE or SCHED
    default_seed: int  # README.md names a second seed for checking a claim
    trace: dict  # SyntheticTraceConfig fields, without seed and growth_schedule
    growth_steps: int  # evenly spaced injections of GROWTH_VALUES new values
    train: dict = field(default_factory=dict)  # TrainConfig overrides

    def trace_config(self, seed: int, smoke: bool = False) -> trace.SyntheticTraceConfig:
        kwargs = dict(self.trace)
        if smoke:
            kwargs["task_count"] = max(200, kwargs["task_count"] // 4)
            kwargs["span_us"] = max(200_000, kwargs["span_us"] // 4)
        gap = kwargs["span_us"] // (self.growth_steps + 1)
        growth = tuple((gap * (i + 1), GROWTH_VALUES) for i in range(self.growth_steps))
        return trace.SyntheticTraceConfig(growth_schedule=growth, seed=seed, **kwargs)

    def train_config(self) -> growing.TrainConfig:
        return growing.TrainConfig(**self.train)


GROWTH_VALUES = 3

#: Traces per run.
INSTANCES = 8

DESK_CELL = dict(node_count=200, attribute_count=8, values_per_attribute=10,
                 duration_mean_us=2_000_000)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-simulate",
        kind=SIMULATE, default_seed=11,
        trace=dict(DESK_CELL, task_count=800, constrained_fraction=0.4,
                   restrictive_rate=200, span_us=800_000),
        growth_steps=5,
        train=dict(epochs_limit=30, max_attempts=3),
    ),
    Workload(
        name="sched-backlog",
        kind=SCHED, default_seed=31,
        trace=dict(DESK_CELL, node_count=40, task_count=600, constrained_fraction=0.4,
                   restrictive_rate=200, span_us=600_000),
        growth_steps=2,
        train=dict(epochs_limit=30, max_attempts=2),
    ),
)}


@dataclass
class Instance:
    seed: int
    trace_path: str
    out_dir: str
    model: object = None  # sched: the classifier trained during set-up
    training: object = None  # sched: the RunResult that trained it


def run_config(w: Workload, inst: Instance, out_dir: str, arms=pipeline.ARMS) -> pipeline.RunConfig:
    return pipeline.RunConfig(
        trace_path=inst.trace_path,
        grouping=oracle.GroupingConfig(),
        train=w.train_config(),
        seed=inst.seed,
        out_dir=out_dir,
        arms=arms,
    )


def set_up(w: Workload, seed: int, workdir: str, smoke: bool = False) -> Instance:
    """Write one trace; for the scheduler workload, also train its classifier."""
    path = os.path.join(workdir, f"trace-{seed}.jsonl")
    data = trace.generate_trace(w.trace_config(seed, smoke))
    with open(path, "wb") as f:
        f.write(data)
    inst = Instance(seed=seed, trace_path=path, out_dir=os.path.join(workdir, f"out-{seed}"))
    if w.kind == SCHED:
        cfg = run_config(w, inst, inst.out_dir + "-train", arms=(pipeline.ARM_GROWING,))
        inst.training = pipeline.run_simulation(cfg)
        inst.model = inst.training.models[pipeline.ARM_GROWING]
    return inst


def replay(w: Workload, inst: Instance):
    """The timed work: one replay of the instance's trace."""
    if w.kind == SIMULATE:
        return pipeline.run_simulation(run_config(w, inst, inst.out_dir))
    return sched_replay(inst)


def sched_replay(inst: Instance, on_policy=None):
    events = trace.read_trace(inst.trace_path)
    results = {}
    for policy in (schedsim.POLICY_FIFO, schedsim.POLICY_CO_ANALYZER):
        classifier = None
        if policy == schedsim.POLICY_CO_ANALYZER:
            classifier = schedsim.ModelClassifier(inst.model)
        cfg = schedsim.SchedulerConfig(policy=policy)
        with on_policy(policy) if on_policy else nullcontext():
            results[policy] = schedsim.simulate(events, oracle.NodeInventory(), classifier, cfg)
    return results


# -- output checks ----------------------------------------------------------

def check(w: Workload, inst: Instance, result) -> tuple[str, list[str], dict]:
    """Digest of the replay's deterministic output, problems found, and its quality figures."""
    if w.kind == SIMULATE:
        return _check_simulate(w, inst, result)
    return _check_sched(inst, result)


def _check_simulate(w, inst, result):
    problems = []
    digest = hashlib.sha256()
    for name in (pipeline.REPORT_CSV, pipeline.REPORT_JSON):
        with open(os.path.join(inst.out_dir, name), "rb") as f:
            digest.update(f.read())
    max_attempts = w.train_config().max_attempts
    steps = {}
    for r in result.reports:
        steps.setdefault(r.model, []).append(r.step_time)
        if not 0.0 <= r.accuracy <= 1.0:
            problems.append(f"accuracy {r.accuracy} outside [0, 1]")
        if r.group0_f1 is not None and not 0.0 <= r.group0_f1 <= 1.0:
            problems.append(f"group-0 F1 {r.group0_f1} outside [0, 1]")
        if not 1 <= r.attempts <= max_attempts or r.epochs < 0:
            problems.append(f"step {r.step_time} {r.model}: {r.epochs} epochs, {r.attempts} attempts")
    # one step per growth injection plus the end-of-trace flush, for every arm
    want = w.growth_steps + 1
    for arm in pipeline.ARMS:
        got = steps.get(arm, [])
        if len(got) != want or got != steps.get(pipeline.ARMS[0]):
            problems.append(f"arm {arm} reported {len(got)} steps, expected {want} shared by both arms")
    quality = {
        "reports": [dataclasses.asdict(r) for r in result.reports],
        "failed_steps": sum(v["failed_steps"] for v in result.summary.values()),
    }
    return digest.hexdigest(), problems, quality


def _waits(result, group=None):
    return [s.placement_tick - s.submit_tick for s in result.samples
            if group is None or s.true_group == group]


def _check_sched(inst, results):
    problems = []
    fifo = results[schedsim.POLICY_FIFO]
    routed = results[schedsim.POLICY_CO_ANALYZER]
    doc = {}
    for policy, res in results.items():
        if res.submitted != res.placed + res.unplaced:
            problems.append(f"{policy}: submitted {res.submitted} != placed {res.placed} "
                            f"+ unplaced {res.unplaced}")
        if any(s.placement_tick < s.submit_tick for s in res.samples):
            problems.append(f"{policy}: a task was placed before it was submitted")
        doc[policy] = {"stats": res.latency_stats(), "queue_trace": res.queue_trace}
    if (fifo.submitted, fifo.placed, fifo.unplaced) != (routed.submitted, routed.placed, routed.unplaced):
        problems.append("fifo and co-analyzer disagree on submitted/placed/unplaced")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    depth = [high + main for _, high, main, _ in routed.queue_trace]
    quality = {
        "fifo_group0_waits": _waits(fifo, 0),
        "routed_group0_waits": _waits(routed, 0),
        "fifo_waits": _waits(fifo),
        "routed_waits": _waits(routed),
        "unplaced": fifo.unplaced,
        "submitted": fifo.submitted,
        "ticks": len(fifo.queue_trace) + len(routed.queue_trace),
        "queue_depth": depth,
    }
    return hashlib.sha256(blob).hexdigest(), problems, quality


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def quality_metrics(w: Workload, qualities: list[dict], trainings: list) -> dict:
    """Deterministic outcome figures of one cycle over the instances."""
    if w.kind == SIMULATE:
        reports = [r for q in qualities for r in q["reports"]]
    else:
        # the classifier-training runs made during set-up
        reports = [dataclasses.asdict(r) for t in trainings for r in t.reports]
    grow = [r for r in reports if r["model"] == pipeline.ARM_GROWING]
    full = [r for r in reports if r["model"] == pipeline.ARM_FULLY_RETRAIN]
    full_epochs = sum(r["epochs"] for r in full)
    if w.kind == SIMULATE:
        failed = sum(q["failed_steps"] for q in qualities)
    else:
        failed = sum(v["failed_steps"] for t in trainings for v in t.summary.values())
    out = {
        "pipeline.epoch_ratio": sum(r["epochs"] for r in grow) / full_epochs if full_epochs else 0.0,
        "pipeline.growing_accuracy_mean": _mean([r["accuracy"] for r in grow]),
        "pipeline.growing_group0_f1_mean": _mean([r["group0_f1"] for r in grow
                                                  if r["group0_f1"] is not None]),
        "pipeline.failed_step_share": failed / len(reports) if reports else 0.0,
        "growing.epochs_growing": sum(r["epochs"] for r in grow) / len(qualities),
        "growing.epochs_full": full_epochs / len(qualities),
        "growing.attempts": sum(r["attempts"] for r in reports) / len(qualities),
        "growing.restart_share": (sum(r["attempts"] - 1 for r in reports)
                                  / max(1, sum(r["attempts"] for r in reports))),
        "pipeline.steps": len({(i, r["step_time"]) for i, q in enumerate(qualities)
                               for r in q.get("reports", ())}) / len(qualities),
    }
    if w.kind == SCHED:
        pooled = {k: [v for q in qualities for v in q[k]]
                  for k in ("fifo_group0_waits", "routed_group0_waits", "fifo_waits",
                            "routed_waits", "queue_depth")}
        fifo_g0 = _mean(pooled["fifo_group0_waits"])
        depth = pooled["queue_depth"]
        out.update({
            "schedsim.group0_wait_ratio": _mean(pooled["routed_group0_waits"]) / fifo_g0 if fifo_g0 else 0.0,
            "schedsim.routed_wait_ticks_mean": _mean(pooled["routed_waits"]),
            "schedsim.fifo_wait_ticks_mean": _mean(pooled["fifo_waits"]),
            "schedsim.unplaced_share": (sum(q["unplaced"] for q in qualities)
                                        / max(1, sum(q["submitted"] for q in qualities))),
            "schedsim.ticks": sum(q["ticks"] for q in qualities) / len(qualities),
            "schedsim.queue_depth_p50": float(np.percentile(depth, 50)) if depth else 0.0,
            "schedsim.queue_depth_p99": float(np.percentile(depth, 99)) if depth else 0.0,
        })
    return out


# -- independent label check (traced runs) -----------------------------------

LABEL_SAMPLE = 16  # tasks re-labelled from each end of every step's snapshot

#: Every returned count up to this is re-counted: these sit on the edges of
#: the unschedulable, group-0 and group-1 buckets, which few tasks reach.
BOUNDARY_COUNT = 2


def capture_snapshot(args, result, counted: dict) -> dict:
    """Keep what re-checking a sample of a step's rows needs, copied now:
    the inventory is live and changes after the step.

    `counted` maps each constraint signature passed to `count_suitable`
    while the snapshot was built to `(task, returned count)`.
    """
    tasks, inventory, grouping = list(args[0]), args[2], args[3]
    if len(tasks) > 2 * LABEL_SAMPLE:
        head, tail = tasks[:LABEL_SAMPLE], tasks[-LABEL_SAMPLE:]
    else:
        head, tail = tasks, []
    sampled = {task.constraints for task in head + tail}
    return {
        "head": head, "tail": tail,
        "counts": [pair for key, pair in counted.items()
                   if key in sampled or pair[1] <= BOUNDARY_COUNT],
        "nodes": [dict(attrs) for attrs in inventory.nodes.values()],
        "increment": grouping.increment,
        "y": result.y.copy(),
    }


def _expected_label(count: int, increment: int):
    # written from the grouping rule, not by calling the library's bucketing
    if count == 0:
        return None
    if count == 1:
        return 0
    return min(25, (count + increment - 1) // increment)


def relabel(captured: dict) -> tuple[int, list[str]]:
    """Re-count and re-label the sampled tasks with `oracle.node_satisfies` over every node.

    Each count `count_suitable` returned for a sampled task (and every
    count up to BOUNDARY_COUNT) must equal the re-count. Snapshot rows keep
    task order with unschedulable tasks dropped, so the head maps onto the
    first rows and the tail, walked backwards, onto the last.
    """
    y = captured["y"]
    problems = []
    checked = 0
    recounts = {}

    def recount(task):
        if task.constraints not in recounts:
            recounts[task.constraints] = sum(
                1 for attrs in captured["nodes"] if oracle.node_satisfies(attrs, task))
        return recounts[task.constraints]

    for task, returned in captured["counts"]:
        checked += 1
        if returned != recount(task):
            problems.append(f"task {task.task_id}: count_suitable returned {returned}, "
                            f"re-counted {recount(task)}")

    for tasks, rows in ((captured["head"], range(len(y))),
                        (list(reversed(captured["tail"])), range(len(y) - 1, -1, -1))):
        rows = iter(rows)
        for task in tasks:
            want = _expected_label(recount(task), captured["increment"])
            if want is None:
                continue
            row = next(rows, None)
            checked += 1
            if row is None or int(y[row]) != want:
                problems.append(f"task {task.task_id}: snapshot label "
                                f"{None if row is None else int(y[row])}, re-labelled {want}")
    return checked, problems
