"""Event streams: JSONL codec, synthetic trace generation, dataset snapshots.

A trace is a JSONL file of machine-attribute updates and task submissions,
non-decreasing in time. The synthetic generator produces cluster bootstrap
events, a task mix with a controlled constrained share, rare tasks
engineered to fit exactly one node, and scheduled injections of brand-new
attribute values that grow the feature registry mid-run.

The codec writes and reads the bytes `json.dumps(..., separators=(",", ":"))`
gives for each event's object, one object per line. The writer formats each
line directly, escaping every string with the escaper `json.dumps` uses, so
the output is ASCII: a non-ASCII character is written as its JSON escape.
The reader splits lines at newlines only (U+2028 and the other characters
`str.splitlines` also breaks at are data inside a JSON string), decodes
each line with the C scanner `json.loads` uses, and calls `json.loads`
itself only for a line the scanner refuses, to raise its error message.
"""

from __future__ import annotations

import json
import logging
import sys
from bisect import bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Union

import numpy as np

from .covv import (
    Constraint,
    FeatureRegistry,
    Op,
    TaskConstraintSet,
    _canonical,
    encode_task,
)
from .oracle import GROUP_COUNT, UNSCHEDULABLE, GroupingConfig, NodeInventory, count_suitable, group_label

log = logging.getLogger(__name__)

# what json.loads runs on a line: (object, end index), StopIteration when no
# value starts at the index
_scan = json.JSONDecoder().scan_once

# int() refuses no string this short, whatever its digit limit is set to
_INT_SAFE_LENGTH = getattr(sys.int_info, "str_digits_check_threshold", 0)

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


def _constraint_json(c: Constraint) -> str:
    operands = ",".join(map(_quote, c.operands))
    return f'{{"attr":{_quote(c.attribute)},"op":"{c.op.value}","operands":[{operands}]}}'


def _constraint_from_json(obj: dict) -> Constraint:
    if not isinstance(obj, dict):
        raise ValueError(f"constraint must be an object, got {type(obj).__name__}")
    try:
        attr = obj["attr"]
        op_name = obj["op"]
        operands = obj.get("operands", [])
    except KeyError as exc:
        raise ValueError(f"constraint object missing key {exc}") from None
    try:
        op = Op(op_name)
    except ValueError:
        raise ValueError(f"unknown constraint operator {op_name!r}") from None
    if not isinstance(operands, list):
        raise ValueError("constraint operands must be a list")
    return Constraint(attribute=attr, op=op, operands=tuple(operands))


def serialize_events(events: Iterable[TraceEvent]) -> bytes:
    """The JSONL bytes `json.dumps(obj, separators=(",", ":"))` gives for each event's object."""
    lines = []
    for e in events:
        if isinstance(e, MachineEvent):
            val = "null" if e.value is None else _quote(e.value)
            lines.append(f'{{"t":{e.time},"kind":"machine","node":{e.node},'
                         f'"attr":{_quote(e.attribute)},"val":{val}}}\n')
        else:
            cons = ",".join(map(_constraint_json, e.task.constraints))
            lines.append(f'{{"t":{e.time},"kind":"task","id":{e.task.task_id},'
                         f'"dur":{e.duration},"cons":[{cons}]}}\n')
    return "".join(lines).encode("ascii")


def _require(obj: dict, key: str, types, lineno: int):
    value = obj.get(key)
    if type(value) is types:  # JSON's only int subclass is bool, refused below
        return value
    if key not in obj:
        raise TraceFormatError(f"line {lineno}: missing key {key!r}")
    # bool subclasses int, but true/false is never a valid time, id or duration
    if not isinstance(value, types) or (types is int and isinstance(value, bool)):
        raise TraceFormatError(f"line {lineno}: key {key!r} has wrong type {type(value).__name__}")
    return value


def parse_events(source: bytes | str) -> Iterator[TraceEvent]:
    """Parse a JSONL trace, yielding events in file order.

    Validates the schema, time monotonicity and task-id uniqueness; every
    failure names the offending line.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    last_time = None
    task_ids: set[int] = set()
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):  # refused or ended early: json.loads raises its message
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
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
            if value is not None:
                if not isinstance(value, str):
                    raise TraceFormatError(f"line {lineno}: key 'val' must be a string or null")
                if len(value) > _INT_SAFE_LENGTH:
                    try:
                        _canonical(value)
                    except ValueError as exc:
                        raise TraceFormatError(f"line {lineno}: {exc}") from None
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
                constraints = tuple(_constraint_from_json(c) for c in cons_raw)
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
        self.growth_schedule = tuple(self.growth_schedule)
        for entry in self.growth_schedule:
            # JSON integers only: a float, bool or string is never rounded or parsed
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(type(v) is int for v in entry)):
                raise ConfigError(f"growth_schedule entry must be a pair of integers, got {entry!r}")
        self.growth_schedule = tuple(map(tuple, self.growth_schedule))
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
# the cdf `Generator.choice(p=weights)` builds: bisecting it at one
# `rng.random()` draws the index that choice draws, from the same stream
_GENERIC_OP_CDF = (np.cumsum(_GENERIC_OP_WEIGHTS) / np.cumsum(_GENERIC_OP_WEIGHTS)[-1]).tolist()


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
    op = _GENERIC_OPS[bisect_right(_GENERIC_OP_CDF, rng.random())]
    if op is Op.IN:
        k = min(int(rng.integers(2, 4)), v)
        values = rng.choice(v, size=k, replace=False)
        operands = tuple(str(int(x)) for x in sorted(values))
    else:
        operands = (str(int(rng.integers(0, v))),)
    return (Constraint(attribute, op, operands),)


def generate_trace(cfg: SyntheticTraceConfig) -> bytes:
    """The JSONL bytes of `generate_events(cfg)`, identical for a fixed config."""
    return serialize_events(generate_events(cfg))


def generate_events(cfg: SyntheticTraceConfig) -> list[TraceEvent]:
    """The synthetic trace's events in time order, the same for a fixed config.

    Each event equals its copy parsed back from `generate_trace(cfg)`.
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

    # stable sort: machine reconfiguration applies before same-time submissions
    order = {MachineEvent: 0, TaskEvent: 1}
    events.sort(key=lambda e: (e.time, order[type(e)]))
    return events


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
    the inventory's caches, one verdict cache when `registry` is its own.
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
    """Read a snapshot file, refusing arrays that are not 0/1 rows with labels 0..25."""
    with np.load(path) as data:
        try:
            X, y = data["X"], data["y"]
            step_time, dropped = int(data["step_time"]), int(data["dropped_unschedulable"])
        except KeyError as exc:
            raise ValueError(f"snapshot file {path} missing array {exc}") from None
        except TypeError as exc:  # int() of a non-scalar array
            raise ValueError(f"snapshot file {path}: {exc}") from None
    if X.ndim != 2:
        raise ValueError(f"snapshot file {path}: X is {X.ndim}-dimensional, expected 2")
    if y.ndim != 1:
        raise ValueError(f"snapshot file {path}: y is {y.ndim}-dimensional, expected 1")
    if len(X) != len(y):
        raise ValueError(f"snapshot file {path} has {len(X)} rows but {len(y)} labels")
    bad = X[~np.isin(X, (0, 1))]
    if bad.size:
        raise ValueError(f"snapshot file {path}: X holds {bad[0]}, expected only 0 and 1")
    bad = y[~np.isin(y, np.arange(GROUP_COUNT))]
    if bad.size:
        raise ValueError(f"snapshot file {path}: label {bad[0]} outside 0..{GROUP_COUNT - 1}")
    return DatasetSnapshot(X=X.astype(np.uint8), y=y.astype(np.int64),
                           step_time=step_time, dropped_unschedulable=dropped)
