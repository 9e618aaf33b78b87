"""Node-affinity constraints and their value-vector (CO-VV) encoding.

Every (attribute, value) pair ever observed in the cluster occupies one
column of an append-only feature registry. A task's constraint set encodes
to a bit vector over those columns, with 1 marking a value that is
unacceptable to the task. The 0/1 roles are deliberately reversed from the
usual one-hot convention: downstream models hunt for unacceptable nodes,
and new columns default to 0 (acceptable), so old vectors stay valid when
the feature space grows.

Because columns only append and a column's bit depends only on the
constraint and the column's value, the registry keeps each constraint's
verdict over its attribute's columns, judging only columns added since:
each (constraint, column) pair is judged once over a registry's life.
Encodings are read from those verdicts, and so is the oracle's
suitability, through `NodeInventory.registry`, the one registry of a run.

Values compare as decimal integers when both sides are decimal strings
(the whole string is an optional sign and ASCII digits), else by code
point. The registry stores each column value's canonical form once (the
int of a decimal string, else the string itself), and one private pass
judges a constraint against many values through those forms: equality
operators as set membership, order operators by int or string
comparison. `value_satisfies` stays the per-value specification that the
pass is checked against. A `Constraint` computes its operands' forms and
its hash once, at construction, since signature dicts hash it on every
lookup.
"""

from __future__ import annotations

import operator
import re
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

# matched against the whole string: "5\n" and " 5" are not decimal
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def compare_values(a: str, b: str) -> int:
    """Three-way compare: decimal-integer when both sides parse, else code-point order."""
    if _DECIMAL.fullmatch(a) and _DECIMAL.fullmatch(b):
        ia, ib = int(a), int(b)
        return (ia > ib) - (ia < ib)
    return (a > b) - (a < b)


def _canonical(value):
    """The form a value compares equal through: its int when decimal, else itself.

    `compare_values(a, b) == 0` iff the two forms are equal (an int never
    equals a str), and UNSET stays UNSET. Raises ValueError for a decimal
    too long for `int()`.
    """
    if value is UNSET or not _DECIMAL.fullmatch(value):
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"decimal value of {len(value)} characters is too long") from None


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
        if self.attribute.split() != [self.attribute]:
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
        # computing the forms also refuses a decimal operand too long for int()
        object.__setattr__(self, "_forms", tuple(map(_canonical, self.operands)))
        # signature dicts hash constraints on every lookup; a str's hash is
        # per process, so `__reduce__` rebuilds the copy to hash afresh
        object.__setattr__(self, "_hash", hash((self.attribute, self.op, self.operands)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Constraint, (self.attribute, self.op, self.operands))


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


# a tuple, not a set: `in` then tests identity and never calls Enum.__hash__
_EQUALITY = (Op.EQ, Op.IN, Op.NE, Op.NOT_IN)
_ORDER = {Op.LT: operator.lt, Op.LE: operator.le, Op.GT: operator.gt, Op.GE: operator.ge}


def _judge(constraint: Constraint, values, forms) -> list[bool]:
    """`[value_satisfies(constraint, v) for v in values]`, read through `forms`,
    the values' canonical forms in the same order.

    Equality operators test membership of the forms; order operators
    compare the forms when both sides are decimal, the strings otherwise.
    """
    op = constraint.op
    if op is Op.PRESENT:
        return [v is not UNSET for v in values]
    if op is Op.ABSENT:
        return [v is UNSET for v in values]
    if op in _EQUALITY:
        targets = set(constraint._forms)
        if op is Op.EQ or op is Op.IN:
            return [f in targets for f in forms]
        return [f not in targets for f in forms]  # NE, NOT_IN: UNSET is in no set
    compare = _ORDER[op]
    operand, target = constraint.operands[0], constraint._forms[0]
    if type(target) is not int:
        return [v is not UNSET and compare(v, operand) for v in values]
    return [v is not UNSET and (compare(f, target) if type(f) is int else compare(v, operand))
            for v, f in zip(values, forms)]


class FeatureRegistry:
    """Append-only ordered catalog of (attribute, value) columns.

    Column positions are dense and never move once assigned. The first
    column created for an attribute is its UNSET column, added when the
    attribute is first observed; concrete values then append strictly in
    observation order. Single writer; readers may share a frozen copy.

    It keeps each constraint's verdict over its attribute's columns, and
    each signature's `encode_task` row (read-only, at the width of the last
    request). Neither needs invalidation, only extension over the columns
    appended since, and extension builds a new array, so a cached array
    never changes. A copy therefore starts with copies of both caches:
    every entry covers only columns the copy holds too, and the copy and
    the original extend their own entries apart.
    """

    def __init__(self):
        self._columns: list[tuple[str, object]] = []
        self._forms: list = []  # canonical form of each column's value
        self._index: dict[tuple[str, object], int] = {}
        self._by_attr: dict[str, list[int]] = {}
        self._verdicts: dict[Constraint, np.ndarray] = {}  # constraint -> verdict per attribute column
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
        form = _canonical(value)
        idx = len(self._columns)
        self._columns.append((attribute, value))
        self._forms.append(form)
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
        snap._forms = list(self._forms)
        snap._index = dict(self._index)
        snap._by_attr = {a: list(ix) for a, ix in self._by_attr.items()}
        snap._verdicts = dict(self._verdicts)
        snap._encodings = dict(self._encodings)
        return snap

    def _verdict(self, constraint: Constraint) -> np.ndarray:
        """Whether each column of the constraint's attribute satisfies it, in
        column order (UNSET first). Cached per constraint; a cached array
        shorter than the attribute is copied into a new one that judges
        only the new columns, so arrays handed out earlier never change.
        """
        ix = self._by_attr.get(constraint.attribute, ())
        ok = self._verdicts.get(constraint)
        if ok is not None and len(ok) == len(ix):
            return ok
        new = ix[0 if ok is None else len(ok):]
        judged = np.array(_judge(constraint, [self._columns[i][1] for i in new],
                                 [self._forms[i] for i in new]), dtype=bool)
        ok = judged if ok is None else np.concatenate((ok, judged))
        self._verdicts[constraint] = ok
        return ok

    def _encoding(self, constraints: tuple[Constraint, ...]) -> np.ndarray:
        """The OR of the constraints' encodings at the current width, cached per signature.

        A cached row shorter than the registry is copied into a new row, and
        only the constraints whose attribute gained columns since are OR-ed
        in again; rows handed out earlier keep their bytes.
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
            ix = self._by_attr.get(constraint.attribute)
            if ix and ix[-1] >= start:
                bits[[i for i, good in zip(ix, self._verdict(constraint)) if not good]] = 1
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
