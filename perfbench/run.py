#!/usr/bin/env python3
"""covvsched benchmark: replays synthetic cluster traces through the public API.

    python3 perfbench/run.py --workload desk-simulate [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from `src/`. Each
run sets up a batch of traces from the seed, replays them in cycles for
about `--seconds`, and checks every replay's output. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer split
with `--trace 1`. The line before it holds the details (environment,
per-cycle samples, outcome figures). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Untraced runs replay every instance at least this many times.
MIN_CYCLES = 3

PER_LAYER = {
    # oracle labelling, encoding and snapshots (desk-simulate)
    "oracle.count_s": "s", "oracle.count_calls": "count", "oracle.node_checks": "count",
    "covv.encode_s": "s", "covv.encode_calls": "count", "covv.encode_reuse_share": "ratio",
    "trace.snapshot_s": "s", "trace.snapshot_self_s": "s", "trace.snapshot_rows": "count",
    "trace.dropped_rows": "count",
    # training and evaluation
    "neural.forward_s": "s", "neural.loss_s": "s", "neural.backward_s": "s", "neural.adam_s": "s",
    "neural.rows_forward": "count", "growing.epoch_s": "s", "growing.train_growing_s": "s",
    "growing.train_full_s": "s", "growing.extend_s": "s", "evalkit.evaluate_s": "s",
    "evalkit.evaluate_calls": "count", "evalkit.split_s": "s",
    "growing.epochs_growing": "count", "growing.epochs_full": "count", "growing.attempts": "count",
    "growing.restart_share": "ratio",
    # scheduler replay (sched-backlog)
    "schedsim.fifo_s": "s", "schedsim.routed_s": "s", "schedsim.self_s": "s",
    "schedsim.ticks": "count", "schedsim.queue_depth_p50": "tasks",
    "schedsim.queue_depth_p99": "tasks", "schedsim.predict_calls": "count",
    "oracle.suitable_s": "s", "oracle.suitable_calls": "count", "oracle.rescan_share": "ratio",
    "neural.infer_s": "s",
    # trace I/O, pipeline glue and reports (every workload)
    "trace.generate_s": "s", "trace.parse_s": "s", "pipeline.run_s": "s",
    "pipeline.self_s": "s", "pipeline.steps": "count", "evalkit.report_s": "s",
    # self time of every layer
    "trace.self_s": "s", "covv.self_s": "s", "oracle.self_s": "s", "neural.self_s": "s",
    "growing.self_s": "s", "evalkit.self_s": "s", "perfbench.self_s": "s",
    # outcome figures: deterministic for a seed
    "pipeline.epoch_ratio": "ratio", "pipeline.growing_accuracy_mean": "ratio",
    "pipeline.growing_group0_f1_mean": "ratio", "pipeline.failed_step_share": "ratio",
    "schedsim.group0_wait_ratio": "ratio", "schedsim.routed_wait_ticks_mean": "ticks",
    "schedsim.fifo_wait_ticks_mean": "ticks", "schedsim.unplaced_share": "ratio",
    # the traced run itself
    "perfbench.traced_run_s": "s", "perfbench.trace_overhead_s": "s",
    "perfbench.self_coverage": "ratio", "perfbench.label_checks": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="covvsched benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=50.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run printing the per-layer split")
    p.add_argument("--smoke", action="store_true", help="two small traces, for tests")
    p.add_argument("--spans", help="traced runs: write every span to this JSONL file")
    return p.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads or "unset (OpenBLAS uses nproc)",
        "git_revision": git_revision(),
        "seed": seed,
    }


class Run:
    """One benchmark run: set-up, measured replay cycles, checks."""

    def __init__(self, workload, seed, workdir, smoke):
        import workloads

        self.wl = workloads
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.instances = []
        self.setup_times = []  # per instance, the wall time of each of its set-ups
        self.reference = {}  # instance index -> digest of its first replay
        self.qualities = {}  # instance index -> outcome figures of its first replay
        self.attempted = 0
        self.failed = 0

    def set_up(self, tracer=None):
        """Set up every instance of the batch."""
        count = 2 if self.smoke else self.wl.INSTANCES
        self.instances = [None] * count
        self.setup_times = [[] for _ in range(count)]
        for k in range(count):
            self.set_up_one(k, tracer)

    def set_up_one(self, k, tracer=None):
        """Set up instance k (again, if it was set up before) and time it."""
        seed = self.seed * 1000 + k
        started = time.perf_counter()
        if tracer is None:
            inst = self.wl.set_up(self.w, seed, self.workdir, self.smoke)
        else:
            with tracer.installed(), tracer.span("perfbench.setup"):
                inst = self.wl.set_up(self.w, seed, self.workdir, self.smoke)
        self.setup_times[k].append(time.perf_counter() - started)
        self.instances[k] = inst

    def replay(self, k, replay_fn=None):
        """One checked replay of instance k; returns its wall time, or None if it failed."""
        inst = self.instances[k]
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = (replay_fn or self.wl.replay)(self.w, inst)
        except Exception:
            elapsed = None
            traceback.print_exc()
            problems = ["replay raised"]
        else:
            elapsed = time.perf_counter() - started
            digest, problems, quality = self.wl.check(self.w, inst, result)
            if self.reference.setdefault(k, digest) != digest:
                problems.append("output differs from the instance's first replay")
            self.qualities.setdefault(k, quality)
        return elapsed, problems

    def record(self, k, problems):
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {self.w.name} instance {k}: {problem}", file=sys.stderr)

    def outcome(self) -> dict:
        qualities = [self.qualities[k] for k in sorted(self.qualities)]
        trainings = [inst.training for inst in self.instances if inst.training is not None]
        return self.wl.quality_metrics(self.w, qualities, trainings) if qualities else {}


def measure(run: Run, seconds: float) -> dict:
    """Untraced cycles over every instance, each replay after a new set-up.

    run_s is the mean over the instances of each one's median replay time:
    the host's speed drifts over seconds, and a per-instance median keeps
    the speed the run mostly saw. setup_s is the sum over the instances of
    each one's median set-up time: the set-up of the whole batch, timed
    under the same drift as the replays.
    """
    run.set_up()
    elapsed, problems = run.replay(0)  # warm-up, not timed
    run.record(0, problems)
    times = [[] for _ in run.instances]
    cycles = 0
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        for k, samples in enumerate(times):
            run.set_up_one(k)
            elapsed, problems = run.replay(k)
            run.record(k, problems)
            if elapsed is not None:
                samples.append(elapsed)
        cycles += 1
        now = time.perf_counter()
        if run.failed or (cycles >= MIN_CYCLES and now - started + (now - cycle_started) > seconds):
            break
    medians = [statistics.median(samples) for samples in times if samples]
    return {
        "metrics": {
            "setup_s": sum(statistics.median(samples) for samples in run.setup_times),
            "run_s": statistics.fmean(medians) if medians else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "samples": {"setup_s": run.setup_times, "replay_s": times},
    }


class LayerCounters:
    """Counts taken at the traced call boundaries, by hooks on the wrappers."""

    def __init__(self, workloads):
        self.wl = workloads
        self.counts = dict.fromkeys(("node_checks", "encode_reuse", "snapshot_rows",
                                     "dropped_rows", "rows_forward"), 0)
        self.seen = set()  # task ids encoded in the current replay
        self.counted = {}  # constraints -> (task, count) returned since the last snapshot
        self.captures = []  # snapshots of the current replay, for re-labelling

    def start_replay(self):
        self.seen.clear()
        self.counted.clear()

    def hooks(self):
        counts, seen, counted = self.counts, self.seen, self.counted

        def count_suitable(args, kwargs, result):
            counts["node_checks"] += len(args[0].nodes)
            counted[args[1].constraints] = (args[1], result)

        def encode_task(args, kwargs, result):
            tid = args[0].task_id
            if tid in seen:
                counts["encode_reuse"] += 1
            else:
                seen.add(tid)

        def build_snapshot(args, kwargs, result):
            counts["snapshot_rows"] += len(result)
            counts["dropped_rows"] += result.dropped_unschedulable
            self.captures.append(self.wl.capture_snapshot(args, result, counted))
            counted.clear()

        def forward_pass(args, kwargs, result):
            counts["rows_forward"] += result.X.shape[0]

        return {"oracle.count_suitable": count_suitable, "covv.encode_task": encode_task,
                "trace.build_snapshot": build_snapshot, "neural.forward_pass": forward_pass}


def measure_traced(run: Run, seconds: float, spans_path=None) -> dict:
    """Cycles of one untraced and one traced replay per instance; the per-layer split."""
    import tracing

    counters = LayerCounters(run.wl)
    tracer = tracing.Tracer(counters.hooks())
    setup_tracer = tracing.Tracer()
    run.set_up(setup_tracer)
    elapsed, problems = run.replay(0)  # warm-up, not timed
    run.record(0, problems)

    def traced_replay(w, inst):
        counters.start_replay()
        with tracer.installed(), tracer.span("perfbench.replay"):
            if w.kind == run.wl.SCHED:
                return run.wl.sched_replay(inst, on_policy=lambda policy: tracer.span(
                    "perfbench.fifo" if policy == "fifo" else "perfbench.routed"))
            return run.wl.replay(w, inst)

    plain, traced = [], []
    label_checks = 0
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        for k in range(len(run.instances)):
            # alternate which replay goes first, so order effects cancel
            for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
                counters.captures.clear()
                elapsed, problems = run.replay(k, traced_replay if is_traced else None)
                for captured in counters.captures:
                    checked, wrong = run.wl.relabel(captured)
                    label_checks += checked
                    problems.extend(wrong)
                run.record(k, problems)
                if elapsed is not None:
                    (traced if is_traced else plain).append(elapsed)
        now = time.perf_counter()
        if now - started + (now - cycle_started) > seconds or run.failed:
            break

    replays = max(1, len(traced))
    summary = tracing.summarize(tracer.spans)
    setup_summary = tracing.summarize(setup_tracer.spans)
    total, calls, layer_self = summary["total"], summary["calls"], summary["layer_self"]
    counts = counters.counts
    spans = tracer.spans
    infer_s = infer_calls = 0
    for name, parent, start, end in spans:
        if name == "neural.forward" and parent >= 0 and spans[parent][0].startswith("schedsim."):
            infer_s += end - start
            infer_calls += 1
    # every replay submits each task once per policy
    submitted = 2 * sum(q.get("submitted", 0) for q in run.qualities.values()) / max(1, len(run.qualities))

    def per(value):
        return value / replays

    suitable_calls = per(calls["oracle.suitable_nodes"])
    encode_calls = calls["covv.encode_task"]
    traced_wall = sum(traced)
    metrics = {
        "oracle.count_s": per(total["oracle.count_suitable"]),
        "oracle.count_calls": per(calls["oracle.count_suitable"]),
        "oracle.node_checks": per(counts["node_checks"]),
        "covv.encode_s": per(total["covv.encode_task"]),
        "covv.encode_calls": per(encode_calls),
        "covv.encode_reuse_share": counts["encode_reuse"] / encode_calls if encode_calls else 0.0,
        "trace.snapshot_s": per(total["trace.build_snapshot"]),
        "trace.snapshot_self_s": per(summary["self"]["trace.build_snapshot"]),
        "trace.snapshot_rows": per(counts["snapshot_rows"]),
        "trace.dropped_rows": per(counts["dropped_rows"]),
        "neural.forward_s": per(total["neural.forward_pass"]),
        "neural.loss_s": per(total["neural.weighted_cross_entropy"]),
        "neural.backward_s": per(total["neural.backward"]),
        "neural.adam_s": per(total["neural.adam_step"]),
        "neural.rows_forward": per(counts["rows_forward"]),
        "growing.epoch_s": per(total["growing.run_training_epoch"]),
        "growing.train_growing_s": per(total["growing.train_growing"]),
        "growing.train_full_s": per(total["growing.train_full"]),
        "growing.extend_s": per(total["growing.extend_input_layer"]),
        "evalkit.evaluate_s": per(total["evalkit.evaluate"]),
        "evalkit.evaluate_calls": per(calls["evalkit.evaluate"]),
        "evalkit.split_s": per(total["evalkit.stratified_split"]),
        "schedsim.fifo_s": per(total["perfbench.fifo"]),
        "schedsim.routed_s": per(total["perfbench.routed"]),
        "schedsim.predict_calls": per(infer_calls),
        "oracle.suitable_s": per(total["oracle.suitable_nodes"]),
        "oracle.suitable_calls": suitable_calls,
        "oracle.rescan_share": (suitable_calls - submitted) / suitable_calls if suitable_calls else 0.0,
        "neural.infer_s": per(infer_s),
        "trace.generate_s": setup_summary["total"]["trace.generate_trace"] / len(run.instances),
        "trace.parse_s": per(total["trace.parse_events"]),
        "pipeline.run_s": per(total["pipeline.run_simulation"]),
        "evalkit.report_s": per(total["evalkit.write_report"]),
        "perfbench.traced_run_s": statistics.fmean(traced) if traced else 0.0,
        "perfbench.trace_overhead_s": (statistics.fmean(traced) - statistics.fmean(plain)
                                       if traced and plain else 0.0),
        "perfbench.self_coverage": tracing.coverage(summary, traced_wall),
        "perfbench.label_checks": per(label_checks),
    }
    for layer in tracing.LAYERS + ("perfbench",):
        metrics[f"{layer}.self_s"] = per(layer_self[layer])
    metrics.update(run.outcome())
    problems = tracing.split_problems(summary, traced_wall)
    if problems:
        run.failed += 1
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end) in enumerate(spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start": start, "end": end}) + "\n")
    return {
        "metrics": metrics,
        "samples": {"untraced_replay_s": plain, "traced_replay_s": traced},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "covvsched" / "__init__.py").is_file():
        print(f"perfbench: no covvsched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, str(workdir), args.smoke)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            out = measure_traced(run, args.seconds, args.spans)
            units = PER_LAYER
        else:
            out = measure(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    metrics = {name: {"value": float(out["metrics"].get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "instance_seeds": [inst.seed for inst in run.instances],
        "environment": environment(seed),
        "samples": out["samples"],
        "outcome": run.outcome(),
        "digests": [run.reference.get(k) for k in range(len(run.instances))],
    }
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
