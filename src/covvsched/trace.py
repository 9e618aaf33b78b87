"""Event streams: JSONL codec, synthetic trace generation, dataset snapshots.

A trace is a JSONL file of machine-attribute updates and task submissions,
non-decreasing in time. The synthetic generator produces cluster bootstrap
events, a task mix with a controlled constrained share, rare tasks
engineered to fit exactly one node, and scheduled injections of brand-new
attribute values that grow the feature registry mid-run.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .covv import (
    Constraint,
    FeatureRegistry,
    Op,
    TaskConstraintSet,
    constraint_from_json,
    constraint_to_json,
    encode_task,
)
from .oracle import UNSCHEDULABLE, GroupingConfig, NodeInventory, count_suitable, group_label

log = logging.getLogger(__name__)

#: Attribute holding one distinct value per node; equality on it pins a task
#: to a single machine.
UNIQUE_ATTRIBUTE = "uid"


class TraceFormatError(ValueError):
    """Malformed trace input. Messages carry the offending line number."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


@dataclass(frozen=True)
class MachineEvent:
    time: int
    node: int
    attribute: str
    value: str | None  # None removes the attribute


@dataclass(frozen=True)
class TaskEvent:
    time: int
    task: TaskConstraintSet
    duration: int  # microseconds


TraceEvent = Union[MachineEvent, TaskEvent]


def event_to_json(event: TraceEvent) -> dict:
    if isinstance(event, MachineEvent):
        return {
            "t": event.time,
            "kind": "machine",
            "node": event.node,
            "attr": event.attribute,
            "val": event.value,
        }
    return {
        "t": event.time,
        "kind": "task",
        "id": event.task.task_id,
        "dur": event.duration,
        "cons": [constraint_to_json(c) for c in event.task.constraints],
    }


def event_to_line(event: TraceEvent) -> str:
    return json.dumps(event_to_json(event), separators=(",", ":"))


def serialize_events(events: Iterable[TraceEvent]) -> bytes:
    return "".join(event_to_line(e) + "\n" for e in events).encode("utf-8")


def _require(obj: dict, key: str, types, lineno: int):
    if key not in obj:
        raise TraceFormatError(f"line {lineno}: missing key {key!r}")
    value = obj[key]
    # bool subclasses int, but true/false is never a valid time, id or duration
    if not isinstance(value, types) or (types is int and isinstance(value, bool)):
        raise TraceFormatError(f"line {lineno}: key {key!r} has wrong type {type(value).__name__}")
    return value


def parse_events(source: Union[bytes, str, IO, Iterable[str]]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace, yielding events in file order.

    Validates the schema, time monotonicity and task-id uniqueness; every
    failure names the offending line.
    """
    if isinstance(source, bytes):
        lines: Iterable[str] = source.decode("utf-8").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    last_time = None
    task_ids: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno}: event must be an object")
        time = _require(obj, "t", int, lineno)
        if time < 0:
            raise TraceFormatError(f"line {lineno}: time must be a non-negative integer")
        if last_time is not None and time < last_time:
            raise TraceFormatError(f"line {lineno}: time regression {time} < {last_time}")
        last_time = time
        kind = _require(obj, "kind", str, lineno)
        if kind == "machine":
            node = _require(obj, "node", int, lineno)
            attribute = _require(obj, "attr", str, lineno)
            value = obj.get("val")
            if value is not None and not isinstance(value, str):
                raise TraceFormatError(f"line {lineno}: key 'val' must be a string or null")
            yield MachineEvent(time=time, node=node, attribute=attribute, value=value)
        elif kind == "task":
            task_id = _require(obj, "id", int, lineno)
            if task_id in task_ids:
                raise TraceFormatError(f"line {lineno}: duplicate task id {task_id}")
            task_ids.add(task_id)
            duration = _require(obj, "dur", int, lineno)
            if duration < 0:
                raise TraceFormatError(f"line {lineno}: duration must be a non-negative integer")
            cons_raw = _require(obj, "cons", list, lineno)
            try:
                constraints = tuple(constraint_from_json(c) for c in cons_raw)
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from None
            yield TaskEvent(time=time, task=TaskConstraintSet(task_id, constraints), duration=duration)
        else:
            raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")


def read_trace(path) -> list[TraceEvent]:
    with open(path, "rb") as f:
        return list(parse_events(f.read()))


@dataclass
class SyntheticTraceConfig:
    """Knobs for deterministic synthetic trace generation.

    restrictive_rate is the expected number of engineered single-node tasks
    per 10,000 submissions; it is included in constrained_fraction. Each
    growth_schedule entry is (time_us, new_value_count) and may inject at
    most values_per_attribute new values.
    """

    node_count: int = 200
    attribute_count: int = 8
    values_per_attribute: int = 10
    task_count: int = 10_000
    constrained_fraction: float = 0.4
    restrictive_rate: float = 15.0
    growth_schedule: tuple = ()
    duration_mean_us: int = 2_000_000
    span_us: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        self.growth_schedule = tuple((int(t), int(k)) for t, k in self.growth_schedule)
        for name in ("node_count", "attribute_count", "values_per_attribute", "task_count",
                     "duration_mean_us", "span_us"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.constrained_fraction <= 1.0:
            raise ConfigError(f"constrained_fraction must be in [0,1], got {self.constrained_fraction}")
        if not 0.0 <= self.restrictive_rate <= 10_000.0:
            raise ConfigError(f"restrictive_rate must be in [0,10000], got {self.restrictive_rate}")
        if self.restrictive_rate / 10_000.0 > self.constrained_fraction:
            raise ConfigError("restrictive_rate exceeds the constrained fraction")
        for t, k in self.growth_schedule:
            if t < 0:
                raise ConfigError(f"growth time must be >= 0, got {t}")
            if k < 1:
                raise ConfigError(f"growth step must inject at least one value, got {k}")
            if k > self.values_per_attribute:
                raise ConfigError(
                    f"growth step injects {k} values, more than values_per_attribute={self.values_per_attribute}"
                )


_GENERIC_OPS = (Op.EQ, Op.NE, Op.LE, Op.GE, Op.IN)
_GENERIC_OP_WEIGHTS = (0.35, 0.10, 0.20, 0.20, 0.15)


def _generic_constraints(rng: np.random.Generator, cfg: SyntheticTraceConfig) -> tuple[Constraint, ...]:
    """A plausible non-restrictive constraint set over one attribute.

    Either a single comparison/membership predicate or a two-sided value
    band. Operands come from the bootstrap value pool, so the selected node
    share stays well away from the single-node regime.
    """
    attribute = f"a{rng.integers(0, cfg.attribute_count)}"
    v = cfg.values_per_attribute
    if rng.random() < 0.25 and v >= 3:
        lo = int(rng.integers(0, v - 1))
        hi = int(rng.integers(lo + 1, v))
        return (
            Constraint(attribute, Op.GE, (str(lo),)),
            Constraint(attribute, Op.LE, (str(hi),)),
        )
    op = _GENERIC_OPS[rng.choice(len(_GENERIC_OPS), p=_GENERIC_OP_WEIGHTS)]
    if op is Op.IN:
        k = min(int(rng.integers(2, 4)), v)
        values = rng.choice(v, size=k, replace=False)
        operands = tuple(str(int(x)) for x in sorted(values))
    else:
        operands = (str(int(rng.integers(0, v))),)
    return (Constraint(attribute, op, operands),)


def generate_trace(cfg: SyntheticTraceConfig) -> bytes:
    """Produce a byte-identical trace for a fixed config.

    Bootstrap machine events come first: each node gets one unique value of
    UNIQUE_ATTRIBUTE plus a drawn value per general attribute. Task
    submissions then interleave with growth injections, which set a
    never-seen value on some node. Restrictive tasks pin themselves to one
    node via equality on its unique attribute value.
    """
    rng = np.random.default_rng(cfg.seed)
    events: list[TraceEvent] = []

    for node in range(cfg.node_count):
        events.append(MachineEvent(0, node, UNIQUE_ATTRIBUTE, str(node)))
        for a in range(cfg.attribute_count):
            value = int(rng.integers(0, cfg.values_per_attribute))
            events.append(MachineEvent(0, node, f"a{a}", str(value)))

    next_value = [cfg.values_per_attribute] * cfg.attribute_count
    attr_cursor = 0
    for t, k in cfg.growth_schedule:
        for _ in range(k):
            a = attr_cursor % cfg.attribute_count
            attr_cursor += 1
            node = int(rng.integers(0, cfg.node_count))
            events.append(MachineEvent(t, node, f"a{a}", str(next_value[a])))
            next_value[a] += 1

    times = np.sort(rng.integers(1, cfg.span_us + 1, size=cfg.task_count))
    p_restrictive = cfg.restrictive_rate / 10_000.0
    p_generic = cfg.constrained_fraction - p_restrictive
    for i in range(cfg.task_count):
        draw = rng.random()
        if draw < p_restrictive:
            target = int(rng.integers(0, cfg.node_count))
            constraints = (Constraint(UNIQUE_ATTRIBUTE, Op.EQ, (str(target),)),)
        elif draw < p_restrictive + p_generic:
            constraints = _generic_constraints(rng, cfg)
        else:
            constraints = ()
        duration = max(1, int(rng.exponential(cfg.duration_mean_us)))
        events.append(TaskEvent(int(times[i]), TaskConstraintSet(i, constraints), duration))

    # stable order: machine reconfiguration applies before same-time submissions
    order = {MachineEvent: 0, TaskEvent: 1}
    indexed = list(enumerate(events))
    indexed.sort(key=lambda pair: (pair[1].time, order[type(pair[1])], pair[0]))
    return serialize_events(e for _, e in indexed)


@dataclass
class DatasetSnapshot:
    """Encoded and labeled tasks for one retraining step.

    All rows share the registry length at build time, which is the width
    of `X`; rows with zero suitable nodes are dropped and only counted.
    """

    X: np.ndarray  # [n, features] uint8
    y: np.ndarray  # [n] int64, values 0..25
    step_time: int = 0
    dropped_unschedulable: int = 0

    def __len__(self) -> int:
        return len(self.y)

    @property
    def features_count(self) -> int:
        return self.X.shape[1]


def build_snapshot(
    tasks: Iterable[TaskConstraintSet],
    registry: FeatureRegistry,
    inventory: NodeInventory,
    grouping: GroupingConfig,
    step_time: int = 0,
) -> DatasetSnapshot:
    """Encode every task and label it by its suitable-node group.

    Encoding registers operand-only values, so the registry may grow while
    the snapshot is built. Each row is the encoding `encode_task` returned
    for its task, at the width of that moment, zero-padded to the final
    length: a column registered by a later task of the same snapshot stays
    0 in an earlier row. Encodings and labels come from the registry's and
    the inventory's own caches.
    """
    rows: list[np.ndarray] = []
    labels: list[int] = []
    dropped = 0
    for task in tasks:
        bits = encode_task(task, registry)
        label = group_label(count_suitable(inventory, task), grouping)
        if label == UNSCHEDULABLE:
            dropped += 1
            continue
        rows.append(bits)
        labels.append(label)

    X = np.zeros((len(rows), len(registry)), dtype=np.uint8)
    for i, bits in enumerate(rows):
        X[i, : len(bits)] = bits
    y = np.asarray(labels, dtype=np.int64)
    if dropped:
        log.warning("dropped %d unschedulable task(s) from snapshot at t=%d", dropped, step_time)
    return DatasetSnapshot(X=X, y=y, step_time=step_time, dropped_unschedulable=dropped)


def save_snapshot(snapshot: DatasetSnapshot, path) -> None:
    np.savez(
        path,
        X=snapshot.X.astype(np.uint8),
        y=snapshot.y.astype(np.int64),
        step_time=np.int64(snapshot.step_time),
        dropped_unschedulable=np.int64(snapshot.dropped_unschedulable),
    )


def load_snapshot(path) -> DatasetSnapshot:
    with np.load(path) as data:
        try:
            snapshot = DatasetSnapshot(
                X=data["X"].astype(np.uint8),
                y=data["y"].astype(np.int64),
                step_time=int(data["step_time"]),
                dropped_unschedulable=int(data["dropped_unschedulable"]),
            )
        except KeyError as exc:
            raise ValueError(f"snapshot file {path} missing array {exc}") from None
    if snapshot.X.ndim != 2:
        raise ValueError(f"snapshot file {path}: X is {snapshot.X.ndim}-dimensional, expected 2")
    if len(snapshot.X) != len(snapshot.y):
        raise ValueError(f"snapshot file {path} has {len(snapshot.X)} rows but {len(snapshot.y)} labels")
    return snapshot
