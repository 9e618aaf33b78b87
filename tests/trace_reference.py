"""Reference trace generator: the specification `trace.generate_events` must match.

The plain generation loop with one scalar draw per bootstrap value and per
growth host, written for clarity, not speed. The library draws those in
vector calls; both must read the same random stream and so give equal
events. The per-task draws are shared: `_generic_constraints` is the
library's own.
"""

from __future__ import annotations

import numpy as np

from covvsched.covv import Constraint, Op, TaskConstraintSet
from covvsched.trace import (
    UNIQUE_ATTRIBUTE,
    MachineEvent,
    SyntheticTraceConfig,
    TaskEvent,
    _generic_constraints,
)


def reference_generate_events(cfg: SyntheticTraceConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    events = []

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
