"""Command-line driver.

Subcommands: gen-trace, simulate, train, evaluate, sched-sim,
inspect-model. Every subcommand accepts --config pointing at a JSON file
(sections: trace, grouping, train, split, sched, run; no other); flags
override config values. Exit codes: 0 success, 1 usage error, 2 data
error, 3 training failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .evalkit import SplitConfig, evaluate, stratified_split
from .growing import (
    MODE_FAILED,
    TrainConfig,
    load_state,
    save_state,
    train_full,
    train_growing,
)
from .oracle import GroupingConfig, NodeInventory
from .pipeline import check_sections, dataclass_from_dict, load_run_config, run_simulation
from .schedsim import (
    POLICY_CO_ANALYZER,
    ModelClassifier,
    OracleClassifier,
    SchedulerConfig,
    simulate,
)
from .trace import (
    ConfigError,
    SyntheticTraceConfig,
    generate_trace,
    load_snapshot,
    read_trace,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    check_sections(doc)
    return doc


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return dict(section)


def _cmd_gen_trace(args) -> int:
    doc = _load_config(args.config)
    section = _section(doc, "trace")
    if args.seed is not None:
        section["seed"] = args.seed
    if args.tasks is not None:
        section["task_count"] = args.tasks
    cfg = dataclass_from_dict(SyntheticTraceConfig, section, "trace")
    data = generate_trace(cfg)
    with open(args.out, "wb") as f:
        f.write(data)
    print(f"wrote {len(data.splitlines())} events to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    overrides = {
        "out_dir": args.out_dir,
        "seed": args.seed,
        "trace_path": args.trace,
        "history_windows": args.history_windows,
    }
    if args.arms:
        overrides["arms"] = tuple(args.arms.split(","))
    cfg = load_run_config(doc, **overrides)
    result = run_simulation(cfg)
    for arm, stats in result.summary.items():
        acc = stats["mean_accuracy"]
        f1 = stats["mean_group0_f1"]
        print(f"{arm}: steps={stats['steps']} total_epochs={stats['total_epochs']} "
              f"mean_accuracy={'n/a' if acc is None else f'{acc:.5f}'} "
              f"mean_group0_f1={'n/a' if f1 is None else f'{f1:.5f}'} "
              f"failed={stats['failed_steps']}")
    print(f"reports written to {cfg.out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    doc = _load_config(args.config)
    section = _section(doc, "train")
    if args.seed is not None:
        section["seed"] = args.seed
    train_cfg = dataclass_from_dict(TrainConfig, section, "train")
    split_cfg = dataclass_from_dict(SplitConfig, doc.get("split", {}), "split")
    snapshot = load_snapshot(args.data)
    split = stratified_split(snapshot, split_cfg)
    if args.model:
        model, outcome = train_growing(load_state(args.model), split, train_cfg,
                                       step_time=snapshot.step_time)
    else:
        model, outcome = train_full(split, train_cfg)
    save_state(model, args.out)
    f1 = "n/a" if outcome.group0_f1 is None else f"{outcome.group0_f1:.5f}"
    print(f"mode={outcome.mode} epochs={outcome.epochs_used} attempts={outcome.attempts_used} "
          f"accuracy={outcome.accuracy:.5f} group0_f1={f1}")
    if outcome.mode == MODE_FAILED:
        return EXIT_TRAINING_FAILED
    return EXIT_OK


def _metrics_to_json(metrics) -> dict:
    def clean(arr):
        return [None if np.isnan(v) else float(v) for v in arr]

    return {
        "accuracy": metrics.accuracy,
        "group0_f1": metrics.group0_f1,
        "macro_f1": metrics.macro_f1,
        "support": [int(s) for s in metrics.support],
        "precision": clean(metrics.precision),
        "recall": clean(metrics.recall),
        "f1": clean(metrics.f1),
        "confusion": metrics.confusion.tolist(),
    }


def _cmd_evaluate(args) -> int:
    _load_config(args.config)  # checked like every subcommand's; nothing consumed yet
    model = load_state(args.model)
    snapshot = load_snapshot(args.data)
    if snapshot.features_count != model.features_count:
        raise ConfigError(
            f"model width {model.features_count} does not match data width "
            f"{snapshot.features_count}"
        )
    metrics = evaluate(model, snapshot.X, snapshot.y)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(_metrics_to_json(metrics), f, indent=2)
        f.write("\n")
    f1 = "n/a" if metrics.group0_f1 is None else f"{metrics.group0_f1:.5f}"
    print(f"accuracy={metrics.accuracy:.5f} group0_f1={f1}")
    return EXIT_OK


def _cmd_sched_sim(args) -> int:
    doc = _load_config(args.config)
    sched_section = _section(doc, "sched")
    sched_section["policy"] = args.policy
    sched_cfg = dataclass_from_dict(SchedulerConfig, sched_section, "sched")
    grouping = dataclass_from_dict(GroupingConfig, doc.get("grouping", {}), "grouping")
    events = read_trace(args.trace)

    classifier = None
    if args.policy == POLICY_CO_ANALYZER:
        if args.oracle:
            classifier = OracleClassifier(grouping)
        elif args.model:
            classifier = ModelClassifier(load_state(args.model))
        else:
            raise ConfigError("co-analyzer policy requires --model or --oracle")
    result = simulate(events, NodeInventory(), classifier, sched_cfg, grouping=grouping)
    stats = result.latency_stats()
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(stats, f, indent=2)
        f.write("\n")
    if args.queue_trace:
        with open(args.queue_trace, "w", encoding="utf-8") as f:
            f.write("tick,high_priority,main,running\n")
            for row in result.queue_trace:
                f.write(",".join(str(v) for v in row) + "\n")
    overall = stats["overall"]
    mean = "n/a" if overall is None else f"{overall['mean']:.2f}"
    print(f"placed={stats['placed']} unplaced={stats['unplaced']} mean_latency={mean}")
    return EXIT_OK


def _cmd_inspect_model(args) -> int:
    _load_config(args.config)  # checked like every subcommand's; nothing consumed yet
    model = load_state(args.model)
    print(f"features_count: {model.features_count}")
    print(f"hidden: {model.layer1.weights.shape[0]}")
    print(f"classes: {model.layer2.weights.shape[0]}")
    print(f"activation: {model.activation}")
    print(f"creation_seed: {model.creation_seed}")
    print(f"extensions: {len(model.extension_history)}")
    for step_time, old, new in model.extension_history:
        print(f"  t={step_time} {old} -> {new}")
    print(f"w1_norm: {np.linalg.norm(model.layer1.weights):.6f}")
    print(f"b1_norm: {np.linalg.norm(model.layer1.bias):.6f}")
    print(f"w2_norm: {np.linalg.norm(model.layer2.weights):.6f}")
    print(f"b2_norm: {np.linalg.norm(model.layer2.bias):.6f}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="covvsched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace")
    p.add_argument("--config", help="JSON config file (trace section)")
    p.add_argument("--out", required=True, help="output trace path (JSONL)")
    p.add_argument("--seed", type=int)
    p.add_argument("--tasks", type=int, help="override task_count")
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("simulate", help="run the per-step continuous-learning pipeline")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", help="output directory for reports and manifest")
    p.add_argument("--trace", help="replay this trace file instead of generating one")
    p.add_argument("--arms", help="comma-separated arms: growing,fully_retrain")
    p.add_argument("--seed", type=int)
    p.add_argument("--history-windows", type=int, dest="history_windows")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a model on a dataset snapshot")
    p.add_argument("--data", required=True, help="snapshot file (.npz)")
    p.add_argument("--out", required=True, help="output model state path")
    p.add_argument("--model", help="prior model to extend and fine-tune")
    p.add_argument("--config", help="JSON config file (train/split sections)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a model on a dataset snapshot")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="snapshot file (.npz)")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sched-sim", help="replay a trace through the scheduler simulator")
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", required=True, choices=["fifo", "co-analyzer"])
    p.add_argument("--model", help="model state file backing the analyzer")
    p.add_argument("--oracle", action="store_true", help="use ground-truth labels as the analyzer")
    p.add_argument("--out", required=True, help="latency stats JSON path")
    p.add_argument("--config", help="JSON config file (sched/grouping sections)")
    p.add_argument("--queue-trace", help="optional per-tick queue-length CSV")
    p.set_defaults(func=_cmd_sched_sim)

    p = sub.add_parser("inspect-model", help="print model dimensions and history")
    p.add_argument("--model", required=True)
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=_cmd_inspect_model)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        # TraceFormatError, ModelFormatError and ConfigError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
