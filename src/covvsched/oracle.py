"""Cluster node state and the task grouping oracle.

The inventory maps every node to its current attribute values. Suitability
of a node for a task is decided purely by constraint matching (no capacity
model here), and the suitable-node count buckets tasks into 26 groups:
group 0 for exactly one suitable node, groups 1..25 in configurable
increments.

Suitability goes through an exact index that the inventory keeps up to
date on every mutation. Every (attribute, value) its nodes have held is a
column of the inventory's `registry`, and per attribute the inventory
keeps an array over the node rows of each row's position among that
attribute's columns (0, the UNSET column, when unset). Columns a caller
appends, such as operand values no node holds, never move these. A
constraint's verdict over the columns comes from the registry, which
judges each column once however the nodes change, and is gathered onto
the rows through the positions; a node is suitable iff no constraint
rejects its value. The sorted suitable ids are cached per constraint
signature inside the inventory, and every mutation clears that cache, so
`suitable_nodes` and `count_suitable` are the one place the answer is
computed and kept. `node_satisfies` stays the per-node specification the
index is checked against.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Mapping

import numpy as np

from .covv import (
    UNSET,
    FeatureRegistry,
    TaskConstraintSet,
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
    index reads each node's value as a column of `registry`, which holds
    every value the nodes have held and is the registry a run encodes
    against too, so its per-constraint verdicts, which only ever extend
    over new columns, outlive mutations and serve both. A copy starts with
    an empty suitability cache and a copy of the registry, verdicts
    included, so mutating the copy never adds columns to the original.
    `version` bumps on every mutation; the scheduler reads it to tell
    whether a queue was last walked at the current state.
    """

    def __init__(self):
        self.nodes: dict[int, dict[str, str]] = {}
        self.version = 0
        # The index: nodes are never dropped, so row order is `nodes` order.
        self._rows: dict[int, int] = {}
        self._capacity = 16
        self.registry = FeatureRegistry()  # every (attribute, value) a node has held
        # attribute -> per row, the position of the row's value among the
        # attribute's registry columns (0, the UNSET column, when unset)
        self._codes: dict[str, np.ndarray] = {}
        self._suitable: dict[tuple, list[int]] = {}  # constraint signature -> sorted suitable ids

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
        snap.registry = self.registry.copy()
        snap._codes = {a: codes.copy() for a, codes in self._codes.items()}
        return snap  # with its own, empty suitability cache

    def _row(self, node: int) -> int:
        row = self._rows.get(node)
        if row is None:
            row = self._rows[node] = len(self._rows)
            self.nodes[node] = {}
            if row == self._capacity:
                self._capacity *= 2
                for attribute, codes in self._codes.items():
                    grown = np.zeros(self._capacity, dtype=np.int32)
                    grown[: len(codes)] = codes
                    self._codes[attribute] = grown
        return row

    def _set(self, node: int, attribute: str, value: str) -> None:
        row = self._row(node)
        column = self.registry.register(attribute, value)
        codes = self._codes.get(attribute)
        if codes is None:
            codes = self._codes[attribute] = np.zeros(self._capacity, dtype=np.int32)
        self.nodes[node][attribute] = value
        codes[row] = bisect_left(self.registry._by_attr[attribute], column)
        self.version += 1
        self._suitable.clear()

    def _remove(self, node: int, attribute: str) -> None:
        attrs = self.nodes.get(node)
        if attrs is None or attribute not in attrs:
            return
        del attrs[attribute]
        self._codes[attribute][self._rows[node]] = 0
        self.version += 1
        self._suitable.clear()

    def _suitable_nodes(self, task: TaskConstraintSet) -> list[int]:
        """Sorted ids of the nodes no constraint rejects, cached per constraint signature.

        Each constraint's registry verdicts are gathered onto the rows through
        the codes; an attribute no node has held reads UNSET on every node.
        """
        nodes = self._suitable.get(task.constraints)
        if nodes is not None:
            return nodes
        n = len(self._rows)
        mask = np.ones(n, dtype=bool)
        for constraint in task.constraints:
            codes = self._codes.get(constraint.attribute)
            if codes is None:
                mask &= value_satisfies(constraint, UNSET)
            else:
                mask &= self.registry._verdict(constraint)[codes[:n]]
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

    Setting registers the concrete value as a column of `registry` (in a
    run, the inventory's own); this is the source of feature growth during
    cluster operation. Removing an absent attribute is a no-op.
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

