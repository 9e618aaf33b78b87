"""Node-affinity constraints and their value-vector (CO-VV) encoding.

Every (attribute, value) pair ever observed in the cluster occupies one
column of an append-only feature registry. A task's constraint set encodes
to a bit vector over those columns, with 1 marking a value that is
unacceptable to the task. The 0/1 roles are deliberately reversed from the
usual one-hot convention: downstream models hunt for unacceptable nodes,
and new columns default to 0 (acceptable), so old vectors stay valid when
the feature space grows.

Because columns only append and a column's bit depends only on the
constraint and the column's value, the registry keeps each constraint
signature's encoding and, when columns have been added since, judges only
the new ones. `value_satisfies` thus runs once per (signature, column) over
a registry's life, however often a task is encoded again.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np


class _Unset:
    """Sentinel for "attribute not set". One instance per process."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()

# An attribute value is either a concrete token string or the UNSET sentinel.
AttributeValue = str | _Unset


class Op(Enum):
    """Constraint operators. Enum values are the wire names used in traces."""

    EQ = "EQ"
    NE = "NE"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"
    IN = "IN"
    NOT_IN = "NOT_IN"
    PRESENT = "PRESENT"
    ABSENT = "ABSENT"


_NO_OPERAND = (Op.PRESENT, Op.ABSENT)
_SET_OPERAND = (Op.IN, Op.NOT_IN)

_DECIMAL = re.compile(r"^[+-]?[0-9]+$")


def compare_values(a: str, b: str) -> int:
    """Three-way compare: decimal-integer when both sides parse, else code-point order."""
    if _DECIMAL.match(a) and _DECIMAL.match(b):
        ia, ib = int(a), int(b)
        return (ia > ib) - (ia < ib)
    return (a > b) - (a < b)


@dataclass(frozen=True)
class Constraint:
    """One predicate over a single machine attribute.

    Ranges such as "0 < x < 3" are expressed as two Constraints in a task's
    set; there is no dedicated range operator.
    """

    attribute: str
    op: Op
    operands: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.attribute, str):
            raise ValueError(f"attribute key must be a string, got {self.attribute!r}")
        if not self.attribute or any(ch.isspace() for ch in self.attribute):
            raise ValueError(f"attribute key must be a non-empty token, got {self.attribute!r}")
        object.__setattr__(self, "operands", tuple(self.operands))
        for operand in self.operands:
            if not isinstance(operand, str):
                raise ValueError(f"operands must be strings, got {operand!r}")
        n = len(self.operands)
        if self.op in _NO_OPERAND:
            if n != 0:
                raise ValueError(f"{self.op.value} takes no operand, got {n}")
        elif self.op in _SET_OPERAND:
            if n == 0:
                raise ValueError(f"{self.op.value} requires a non-empty operand set")
        elif n != 1:
            raise ValueError(f"{self.op.value} requires exactly one operand, got {n}")


@dataclass(frozen=True)
class TaskConstraintSet:
    """A task's conjunction of constraints. Empty means unconstrained."""

    task_id: int
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


def value_satisfies(constraint: Constraint, value) -> bool:
    """Whether a node holding `value` for the constraint's attribute satisfies it.

    UNSET satisfies only NE, NOT_IN and ABSENT: a missing attribute can
    never match a positive comparison or membership test.
    """
    op = constraint.op
    if op is Op.PRESENT:
        return value is not UNSET
    if op is Op.ABSENT:
        return value is UNSET
    if value is UNSET:
        return op is Op.NE or op is Op.NOT_IN
    if op is Op.EQ:
        return compare_values(value, constraint.operands[0]) == 0
    if op is Op.NE:
        return compare_values(value, constraint.operands[0]) != 0
    if op is Op.LT:
        return compare_values(value, constraint.operands[0]) < 0
    if op is Op.LE:
        return compare_values(value, constraint.operands[0]) <= 0
    if op is Op.GT:
        return compare_values(value, constraint.operands[0]) > 0
    if op is Op.GE:
        return compare_values(value, constraint.operands[0]) >= 0
    if op is Op.IN:
        return any(compare_values(value, o) == 0 for o in constraint.operands)
    if op is Op.NOT_IN:
        return all(compare_values(value, o) != 0 for o in constraint.operands)
    raise AssertionError(f"unhandled operator {op!r}")


class FeatureRegistry:
    """Append-only ordered catalog of (attribute, value) columns.

    Column positions are dense and never move once assigned. The first
    column created for an attribute is its UNSET column, added when the
    attribute is first observed; concrete values then append strictly in
    observation order. Single writer; readers may share a frozen copy.

    It also keeps the encoding of every constraint signature `encode_task`
    was asked for, as a read-only row at the width of the last request. A
    row never needs invalidation, only extension over the columns appended
    since; each copy starts with an empty cache of its own.
    """

    def __init__(self):
        self._columns: list[tuple[str, object]] = []
        self._index: dict[tuple[str, object], int] = {}
        self._by_attr: dict[str, list[int]] = {}
        self._encodings: dict[tuple[Constraint, ...], np.ndarray] = {}  # signature -> row

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def columns(self) -> list[tuple[str, object]]:
        return list(self._columns)

    def column(self, idx: int) -> tuple[str, object]:
        return self._columns[idx]

    def register(self, attribute: str, value=UNSET) -> int:
        """Idempotently add a column, returning its position.

        A new attribute gets its UNSET column first; registering a concrete
        value then appends at the end.
        """
        idx = self._index.get((attribute, value))
        if idx is not None:
            return idx
        if attribute not in self._by_attr:
            self._append(attribute, UNSET)
        if value is UNSET:
            return self._index[(attribute, UNSET)]
        return self._append(attribute, value)

    def _append(self, attribute: str, value) -> int:
        idx = len(self._columns)
        self._columns.append((attribute, value))
        self._index[(attribute, value)] = idx
        self._by_attr.setdefault(attribute, []).append(idx)
        return idx

    def index_of(self, attribute: str, value=UNSET):
        return self._index.get((attribute, value))

    def indices_for(self, attribute: str) -> list[int]:
        """Column positions belonging to one attribute, in column order."""
        return list(self._by_attr.get(attribute, ()))

    def copy(self) -> "FeatureRegistry":
        snap = FeatureRegistry()
        snap._columns = list(self._columns)
        snap._index = dict(self._index)
        snap._by_attr = {a: list(ix) for a, ix in self._by_attr.items()}
        return snap  # with its own, empty encoding cache

    def _encoding(self, constraints: tuple[Constraint, ...]) -> np.ndarray:
        """The OR of the constraints' encodings at the current width, cached per signature.

        A cached row shorter than the registry is copied into a new row and
        only the columns from its old length on are judged; rows handed out
        earlier keep their bytes.
        """
        row = self._encodings.get(constraints)
        width = len(self._columns)
        if row is not None and len(row) == width:
            return row
        bits = np.zeros(width, dtype=np.uint8)
        start = 0
        if row is not None:
            start = len(row)
            bits[:start] = row
        for constraint in constraints:
            ix = self._by_attr.get(constraint.attribute, [])
            for idx in ix[bisect_left(ix, start):]:
                if not value_satisfies(constraint, self._columns[idx][1]):
                    bits[idx] = 1
        bits.flags.writeable = False
        self._encodings[constraints] = bits
        return bits


def _register_constraint(registry: FeatureRegistry, constraint: Constraint) -> None:
    # operand values become columns too: the feature space must cover values
    # seen only in constraints, never on any machine
    registry.register(constraint.attribute, UNSET)
    for operand in constraint.operands:
        registry.register(constraint.attribute, operand)


def encode_constraint(constraint: Constraint, registry: FeatureRegistry, *, register: bool = True) -> np.ndarray:
    """Bit vector over the current registry: 1 where a column's value fails the constraint.

    Columns of other attributes stay 0. With register=True (the default) the
    constraint's attribute and operands are added to the registry first;
    register=False encodes read-only against a frozen registry.
    """
    if register:
        _register_constraint(registry, constraint)
    bits = np.zeros(len(registry), dtype=np.uint8)
    for idx in registry.indices_for(constraint.attribute):
        _, value = registry.column(idx)
        if not value_satisfies(constraint, value):
            bits[idx] = 1
    return bits


def encode_task(task: TaskConstraintSet, registry: FeatureRegistry, *, register: bool = True) -> np.ndarray:
    """Element-wise OR of the task's constraint encodings.

    A value is unacceptable if any constraint rejects it; an empty
    constraint set encodes to all zeros. The result is the registry's
    cached row for the task's constraint signature, shared with every
    caller that encodes the same signature at the same width, so it is
    read-only: copy it before changing it.
    """
    if register:
        for constraint in task.constraints:
            _register_constraint(registry, constraint)
    return registry._encoding(task.constraints)


def constraint_to_json(constraint: Constraint) -> dict:
    return {
        "attr": constraint.attribute,
        "op": constraint.op.value,
        "operands": list(constraint.operands),
    }


def constraint_from_json(obj: dict) -> Constraint:
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
