#!/usr/bin/env python3
"""Walk through the value-vector encoding of node-affinity constraints.

Every (attribute, value) pair observed in the cluster gets a column in an
append-only registry. A constraint encodes to a bit vector where 1 marks a
value the task cannot accept; this is deliberately reversed from one-hot
conventions because the models downstream hunt for unacceptable nodes.
"""

import numpy as np

from covvsched import Constraint, FeatureRegistry, Op, TaskConstraintSet
from covvsched.covv import encode_constraint, encode_task


def show(label, bits):
    print(f"  {label:<18} {' '.join(str(b) for b in bits)}")


registry = FeatureRegistry()
for v in range(10):
    registry.register("AM", str(v))

print("registry columns (UNSET column first, concrete values in observation order):")
print(" ", registry.columns)
print()

print("single constraints over attribute AM:")
show("AM >= 5", encode_constraint(Constraint("AM", Op.GE, ("5",)), registry))
show("AM > 0", encode_constraint(Constraint("AM", Op.GT, ("0",)), registry))
show("AM in {2,4}", encode_constraint(Constraint("AM", Op.IN, ("2", "4")), registry))
print()

print("a two-sided range is the OR of two constraints in one task:")
band = TaskConstraintSet(1, (
    Constraint("AM", Op.GT, ("0",)),
    Constraint("AM", Op.LT, ("3",)),
))
show("0 < AM < 3", encode_task(band, registry))
print()

print("an unconstrained task accepts everything:")
show("(no constraints)", encode_task(TaskConstraintSet(2), registry))
print()

# feature growth: new values append on the right, old vectors stay valid
old_vector = encode_task(band, registry)
registry.register("AM", "10")
registry.register("disk", "ssd")
print(f"after growth the registry has {len(registry)} columns;")
print("old vectors right-pad with zeros (new values are acceptable by default):")
show("0 < AM < 3", np.pad(old_vector, (0, len(registry) - len(old_vector))))
