"""Cluster node state and the task grouping oracle.

The inventory maps every node to its current attribute values. Suitability
of a node for a task is decided purely by constraint matching (no capacity
model here), and the suitable-node count buckets tasks into 26 groups:
group 0 for exactly one suitable node, groups 1..25 in configurable
increments.

Suitability goes through an exact index that the inventory keeps up to
date on every mutation: per attribute, the distinct values it has held,
their canonical forms (see `covv`) and an array of value codes over the
node rows (-1 for UNSET). A constraint is judged in one pass over the
forms of the distinct values plus UNSET, and the verdicts are gathered
onto the rows through the codes; a node is suitable iff no constraint
rejects its value. Value codes only append, so the inventory
keeps each constraint's verdicts across mutations and judges only the
codes added since. The sorted suitable ids are cached per constraint
signature inside the inventory, and every mutation clears that cache, so
`suitable_nodes` and `count_suitable` are the one place the answer is
computed and kept. `node_satisfies` stays the per-node specification the
index is checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import compress, islice
from typing import Mapping

import numpy as np

from .covv import (
    UNSET,
    Constraint,
    FeatureRegistry,
    TaskConstraintSet,
    _canonical,
    _judge,
    value_satisfies,
)

log = logging.getLogger(__name__)

#: Label for tasks with zero suitable nodes. Excluded from training data.
UNSCHEDULABLE = -1

GROUP_COUNT = 26


@dataclass
class GroupingConfig:
    """Suitable-node bucketing. 500 is the default increment; 360 suits
    cells of roughly 9.4k nodes."""

    increment: int = 500

    def __post_init__(self):
        if self.increment < 1:
            raise ValueError(f"increment must be >= 1, got {self.increment}")


class NodeInventory:
    """Mutable map of node id to attribute values, with a suitability index.

    A missing attribute reads as UNSET. Single writer (trace replay order
    defines state). Mutate only through `apply_machine_event`, which keeps
    the index in step with `nodes` and clears the suitability cache. The
    per-constraint verdicts over value codes outlive mutations: a code
    keeps its value for good, so they are only extended over new codes.
    A copy starts with both caches empty, since its codes may diverge.
    `version` bumps on every mutation; the scheduler reads it to tell
    whether a queue was last walked at the current state.
    """

    def __init__(self):
        self.nodes: dict[int, dict[str, str]] = {}
        self.version = 0
        # The index: nodes are never dropped, so row order is `nodes` order.
        self._rows: dict[int, int] = {}
        self._capacity = 16
        self._codes: dict[str, np.ndarray] = {}  # attribute -> value code per row, -1 = UNSET
        self._values: dict[str, dict[str, int]] = {}  # attribute -> value -> code, in code order
        self._forms: dict[str, list] = {}  # attribute -> canonical form per code
        self._suitable: dict[tuple, list[int]] = {}  # constraint signature -> sorted suitable ids
        self._verdicts: dict[Constraint, np.ndarray] = {}  # constraint -> verdict per code, UNSET last

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def value(self, node: int, attribute: str):
        attrs = self.nodes.get(node)
        if attrs is None:
            return UNSET
        return attrs.get(attribute, UNSET)

    def copy(self) -> "NodeInventory":
        snap = NodeInventory()
        snap.nodes = {n: dict(attrs) for n, attrs in self.nodes.items()}
        snap.version = self.version
        snap._rows = dict(self._rows)
        snap._capacity = self._capacity
        snap._codes = {a: codes.copy() for a, codes in self._codes.items()}
        snap._values = {a: dict(values) for a, values in self._values.items()}
        snap._forms = {a: list(forms) for a, forms in self._forms.items()}
        return snap  # with its own, empty caches

    def _row(self, node: int) -> int:
        row = self._rows.get(node)
        if row is None:
            row = self._rows[node] = len(self._rows)
            self.nodes[node] = {}
            if row == self._capacity:
                self._capacity *= 2
                for attribute, codes in self._codes.items():
                    grown = np.full(self._capacity, -1, dtype=np.int32)
                    grown[: len(codes)] = codes
                    self._codes[attribute] = grown
        return row

    def _set(self, node: int, attribute: str, value: str) -> None:
        row = self._row(node)
        if attribute not in self._codes:
            self._codes[attribute] = np.full(self._capacity, -1, dtype=np.int32)
            self._values[attribute] = {}
            self._forms[attribute] = []
        values = self._values[attribute]
        code = values.get(value)
        if code is None:
            self._forms[attribute].append(_canonical(value))
            code = values[value] = len(values)
        self.nodes[node][attribute] = value
        self._codes[attribute][row] = code
        self.version += 1
        self._suitable.clear()

    def _remove(self, node: int, attribute: str) -> None:
        attrs = self.nodes.get(node)
        if attrs is None or attribute not in attrs:
            return
        del attrs[attribute]
        self._codes[attribute][self._rows[node]] = -1
        self.version += 1
        self._suitable.clear()

    def _verdict(self, constraint: Constraint) -> np.ndarray:
        """Whether each value code of the attribute satisfies the constraint, UNSET last.

        Judged once per code: a cached array that predates new codes is
        copied into a new array and extended over those codes only.
        """
        values = self._values.get(constraint.attribute, {})
        ok = self._verdicts.get(constraint)
        if ok is not None and len(ok) == len(values) + 1:
            return ok
        start = 0 if ok is None else len(ok) - 1
        new = np.array(_judge(
            constraint,
            [*islice(values, start, None), UNSET],
            [*self._forms.get(constraint.attribute, ())[start:], UNSET],
        ), dtype=bool)
        ok = new if ok is None else np.concatenate((ok[:-1], new))
        self._verdicts[constraint] = ok
        return ok

    def _suitable_nodes(self, task: TaskConstraintSet) -> list[int]:
        """Sorted ids of the nodes no constraint rejects, cached per constraint signature.

        Each constraint's verdicts are gathered onto the rows through the
        value codes (code -1 selects the UNSET verdict); an attribute no
        node holds reads UNSET on every node.
        """
        nodes = self._suitable.get(task.constraints)
        if nodes is not None:
            return nodes
        n = len(self._rows)
        mask = np.ones(n, dtype=bool)
        for constraint in task.constraints:
            ok = self._verdict(constraint)
            codes = self._codes.get(constraint.attribute)
            mask &= ok[codes[:n]] if codes is not None else ok[-1]
        nodes = self._suitable[task.constraints] = sorted(compress(self.nodes, mask.tolist()))
        return nodes


def apply_machine_event(
    inventory: NodeInventory,
    registry: FeatureRegistry,
    node: int,
    attribute: str,
    value: str | None,
) -> None:
    """Set one node attribute, or remove it when value is None.

    Setting registers the concrete value as a registry column; this is the
    source of feature growth during cluster operation. Removing an absent
    attribute is a no-op.
    """
    if value is None:
        inventory._remove(node, attribute)
        return
    inventory._set(node, attribute, value)
    registry.register(attribute, value)


def node_satisfies(attributes: Mapping[str, str], task: TaskConstraintSet) -> bool:
    """True iff every constraint holds, reading UNSET for missing attributes.

    The per-node specification of suitability; the inventory's index must
    agree with it on every node.
    """
    for constraint in task.constraints:
        if not value_satisfies(constraint, attributes.get(constraint.attribute, UNSET)):
            return False
    return True


def count_suitable(inventory: NodeInventory, task: TaskConstraintSet) -> int:
    """Number of nodes satisfying the task."""
    return len(inventory._suitable_nodes(task))


def suitable_nodes(inventory: NodeInventory, task: TaskConstraintSet) -> list[int]:
    """Ids of all suitable nodes, ascending.

    The list is the inventory's cached one, shared by every caller until the
    next mutation: do not mutate it.
    """
    return inventory._suitable_nodes(task)


def group_label(count: int, cfg: GroupingConfig) -> int:
    """Bucket a suitable-node count into a group.

    0 nodes is UNSCHEDULABLE, exactly 1 node is group 0, otherwise
    ceil(count / increment) clamped to 25 so group 1 starts right next to
    group 0.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return UNSCHEDULABLE
    if count == 1:
        return 0
    return min(GROUP_COUNT - 1, -(-count // cfg.increment))

