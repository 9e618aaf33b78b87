#!/usr/bin/env python3
"""Label tasks by how many cluster nodes can run them.

The oracle scans the node inventory exhaustively: group 0 means exactly one
suitable node (the tasks worth prioritizing), groups 1..25 bucket larger
counts in configurable increments, and zero suitable nodes is a scheduling
error kept out of training data.
"""

from covvsched import (
    Constraint,
    GroupingConfig,
    NodeInventory,
    Op,
    TaskConstraintSet,
    UNSCHEDULABLE,
    apply_machine_event,
    count_suitable,
    group_label,
)

inventory = NodeInventory()
registry = inventory.registry  # the columns its nodes' values occupy

# a 12-node cell: every node has a unique id value, two thirds have a GPU tag
for node in range(12):
    apply_machine_event(inventory, registry, node, "uid", str(node))
    if node % 3:
        apply_machine_event(inventory, registry, node, "gpu", "a100" if node % 2 else "t4")

print(f"cell: {len(inventory.nodes)} nodes, {len(registry)} feature columns")
print()

grouping = GroupingConfig(increment=5)
cases = {
    "unconstrained": TaskConstraintSet(0),
    "needs any gpu": TaskConstraintSet(1, (Constraint("gpu", Op.PRESENT),)),
    "needs an a100": TaskConstraintSet(2, (Constraint("gpu", Op.EQ, ("a100",)),)),
    "pinned to node 7": TaskConstraintSet(3, (Constraint("uid", Op.EQ, ("7",)),)),
    "impossible": TaskConstraintSet(4, (Constraint("gpu", Op.EQ, ("h100",)),)),
}

print(f"{'task':<18} {'suitable':>8} {'group':>6}")
for name, task in cases.items():
    count = count_suitable(inventory, task)
    label = group_label(count, grouping)
    shown = "unschedulable" if label == UNSCHEDULABLE else label
    print(f"{name:<18} {count:>8} {shown!s:>6}")

print()
print("reconfiguration moves counts: node 7 loses its uid, the pin dies")
apply_machine_event(inventory, registry, 7, "uid", None)
count = count_suitable(inventory, cases["pinned to node 7"])
print(f"pinned task now has {count} suitable node(s) ->",
      "unschedulable" if group_label(count, grouping) == UNSCHEDULABLE else "fine")
