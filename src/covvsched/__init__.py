"""Constraint-aware task grouping with a growing classifier.

Encodes node-affinity constraints as bit vectors over an append-only
feature registry, labels tasks by their count of suitable nodes via a
brute-force oracle, trains a two-layer classifier whose input layer grows
as new attribute values appear in the cluster, and simulates a scheduler
that routes predicted-restrictive tasks through a high-priority queue.
"""

__version__ = "0.1.0"

from .covv import (  # noqa: F401
    UNSET,
    Constraint,
    FeatureRegistry,
    Op,
    TaskConstraintSet,
    encode_constraint,
    encode_task,
    value_satisfies,
)
from .oracle import (  # noqa: F401
    UNSCHEDULABLE,
    GroupingConfig,
    NodeInventory,
    apply_machine_event,
    count_suitable,
    group_label,
    node_satisfies,
)
