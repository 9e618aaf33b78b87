"""End-to-end continuous-learning runs.

Replays a trace in time order. Whenever the feature registry grows and
tasks have accumulated since the previous step, the accumulated window
(merged with a sliding history of recent windows) becomes a dataset
snapshot: it is split, the growing arm extends its carried model to the
snapshot's width and fine-tunes it, the fully-retrain arm trains from
scratch, and both arms are evaluated into step reports. A final step
flushes whatever window remains at end of trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .evalkit import SplitConfig, StepReport, stratified_split, write_report
from .growing import MODE_FAILED, TrainConfig, train_full, train_growing
from .neural import TwoLayerClassifier
from .oracle import GroupingConfig, NodeInventory, apply_machine_event
from .trace import (
    ConfigError,
    MachineEvent,
    SyntheticTraceConfig,
    TaskEvent,
    build_snapshot,
    generate_events,
    read_trace,
)

log = logging.getLogger(__name__)

ARM_GROWING = "growing"
ARM_FULLY_RETRAIN = "fully_retrain"
ARMS = (ARM_GROWING, ARM_FULLY_RETRAIN)

REPORT_CSV = "step_reports.csv"
REPORT_JSON = "step_reports.json"
MANIFEST = "manifest.json"

BULK_GROWTH_WARNING = 40  # warn when one step adds more features


@dataclass
class RunConfig:
    trace: SyntheticTraceConfig | None = None
    trace_path: str | None = None
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    seed: int = 0
    out_dir: str = "run-output"
    arms: tuple = ARMS
    history_windows: int = 3  # previous windows merged into each snapshot

    def __post_init__(self):
        self.arms = tuple(self.arms)
        for arm in self.arms:
            if arm not in ARMS:
                raise ConfigError(f"unknown arm {arm!r}, expected one of {ARMS}")
        if not self.arms:
            raise ConfigError("at least one arm is required")
        if self.trace is None and self.trace_path is None:
            raise ConfigError("either a synthetic trace config or a trace path is required")
        if self.trace_path is not None and not isinstance(self.trace_path, str):
            raise ConfigError(f"trace_path must be a string, got {type(self.trace_path).__name__}")
        if self.history_windows < 0:
            raise ConfigError(f"history_windows must be >= 0, got {self.history_windows}")


# JSON types a config value may take, by the type of its field's default
_SCALAR_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def dataclass_from_dict(cls, data: dict, where: str):
    """Build a config dataclass from one config-file section; ConfigError on
    a non-object section, an unknown key or a rejected value.

    A field whose default is a bool, int, float or str takes only a value of
    that JSON type; a float field also takes an int, and a bool never counts
    as a number.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for f in dataclasses.fields(cls):
        accepted = _SCALAR_TYPES.get(type(f.default))
        if accepted is None or f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, bool) != (accepted is bool) or not isinstance(value, accepted):
            raise ConfigError(f"bad {where} config: {f.name} must be {type(f.default).__name__}, "
                              f"got {type(value).__name__}")
    try:
        return cls(**data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from None


CONFIG_SECTIONS = frozenset({"trace", "grouping", "train", "split", "sched", "run"})


def check_sections(doc) -> None:
    """ConfigError unless a parsed config file is an object of known sections."""
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(doc) - CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")


def load_run_config(doc: dict, **overrides) -> RunConfig:
    """Build a RunConfig from a parsed config file plus flag overrides."""
    check_sections(doc)
    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("section 'run' must be an object")
    nested = sorted(set(run) & CONFIG_SECTIONS)
    if nested:
        raise ConfigError(f"section(s) nested inside run: {', '.join(nested)}; "
                          "give them at the top level")
    kwargs = dict(run)
    if "trace" in doc:
        kwargs["trace"] = dataclass_from_dict(SyntheticTraceConfig, doc["trace"], "trace")
    kwargs["grouping"] = dataclass_from_dict(GroupingConfig, doc.get("grouping", {}), "grouping")
    kwargs["train"] = dataclass_from_dict(TrainConfig, doc.get("train", {}), "train")
    kwargs["split"] = dataclass_from_dict(SplitConfig, doc.get("split", {}), "split")
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    return dataclass_from_dict(RunConfig, kwargs, "run")


def config_digest(cfg: RunConfig) -> str:
    doc = dataclasses.asdict(cfg)
    doc.pop("out_dir", None)  # output location does not shape the results
    canonical = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    manifest: dict
    reports: list[StepReport]
    models: dict  # final model per arm

    @property
    def summary(self) -> dict:
        return self.manifest["summary"]


def run_simulation(cfg: RunConfig) -> RunResult:
    """Replay, retrain per feature-growth step, and write reports.

    Outputs land in cfg.out_dir: step reports as CSV and JSON plus a
    manifest with the config hash and per-arm summary. Identical configs
    produce byte-identical reports.
    """
    if cfg.trace_path is not None:
        events = read_trace(cfg.trace_path)
    else:
        events = generate_events(cfg.trace)

    inventory = NodeInventory()
    registry = inventory.registry  # encodes and labels: one verdict cache
    window: list = []
    history: deque = deque(maxlen=cfg.history_windows)
    growing_model: TwoLayerClassifier | None = None  # carried across steps
    reports: list[StepReport] = []
    failed_steps = {arm: 0 for arm in cfg.arms}
    last_width = 0
    step_index = 0

    def run_step(step_time: int) -> None:
        nonlocal growing_model, last_width, step_index
        step = step_index
        tasks = [t for past in history for t in past] + window
        snapshot = build_snapshot(tasks, registry, inventory, cfg.grouping, step_time=step_time)
        prev_width = last_width
        history.append(list(window))
        window.clear()
        last_width = len(registry)
        step_index += 1

        added = snapshot.features_count - prev_width
        if prev_width and added > BULK_GROWTH_WARNING:
            log.warning("step %d adds %d features at once (limit %d); accuracy may suffer",
                        step, added, BULK_GROWTH_WARNING)
        if len(snapshot) < 4:
            log.warning("skipping step %d at t=%d: only %d usable row(s)",
                        step, step_time, len(snapshot))
            return

        split = stratified_split(
            snapshot, dataclasses.replace(cfg.split, seed=cfg.seed + 10_000 + step))
        for arm in cfg.arms:
            if arm == ARM_GROWING:
                train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed + 20_000 + step)
                if growing_model is None:
                    # nothing to transfer yet; the first step trains from scratch
                    growing_model, outcome = train_full(split, train_cfg)
                else:
                    growing_model, outcome = train_growing(growing_model, split, train_cfg,
                                                           step_time=step_time)
            else:
                train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed + 30_000 + step)
                _, outcome = train_full(split, train_cfg)
            if outcome.mode == MODE_FAILED:
                failed_steps[arm] += 1
                log.warning("step %d arm %s failed after %d attempts; run continues",
                            step, arm, outcome.attempts_used)
            reports.append(StepReport(
                step_time=step_time,
                features_count=snapshot.features_count,
                model=arm,
                epochs=outcome.epochs_used,
                attempts=outcome.attempts_used,
                accuracy=outcome.accuracy,
                group0_f1=outcome.group0_f1,
            ))

    last_time = 0
    i = 0
    while i < len(events):
        # apply one timestamp group; growth plus a pending window marks a step
        t = events[i].time
        group = []
        while i < len(events) and events[i].time == t:
            group.append(events[i])
            i += 1
        for event in group:
            if isinstance(event, MachineEvent):
                apply_machine_event(inventory, registry, event.node, event.attribute, event.value)
        if len(registry) > last_width:
            if window:
                run_step(step_time=t)
            else:
                # growth with nothing to train on (e.g. bootstrap); the new
                # columns simply fold into the next step
                last_width = len(registry)
        for event in group:
            if isinstance(event, TaskEvent):
                window.append(event.task)
        last_time = t
    if window:
        run_step(step_time=last_time)

    summary = _summarize(reports, cfg.arms, failed_steps)
    manifest = {
        "config_hash": config_digest(cfg),
        "version": __version__,
        "report_paths": [REPORT_CSV, REPORT_JSON],
        "summary": summary,
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_report(reports, os.path.join(cfg.out_dir, REPORT_CSV), fmt="csv")
    write_report(reports, os.path.join(cfg.out_dir, REPORT_JSON), fmt="json")
    with open(os.path.join(cfg.out_dir, MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    models = {}
    if growing_model is not None:
        models[ARM_GROWING] = growing_model
    return RunResult(manifest=manifest, reports=reports, models=models)


def _summarize(reports: list[StepReport], arms, failed_steps: dict) -> dict:
    summary = {}
    for arm in arms:
        rows = [r for r in reports if r.model == arm]
        f1s = [r.group0_f1 for r in rows if r.group0_f1 is not None]
        summary[arm] = {
            "steps": len(rows),
            "mean_accuracy": float(np.mean([r.accuracy for r in rows])) if rows else None,
            "mean_group0_f1": float(np.mean(f1s)) if f1s else None,
            "total_epochs": int(sum(r.epochs for r in rows)),
            "failed_steps": failed_steps.get(arm, 0),
        }
    return summary
