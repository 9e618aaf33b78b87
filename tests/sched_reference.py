"""Reference scheduler walk: the specification `schedsim.simulate` must match.

A plain per-tick replay written for clarity, not speed. Every tick it
walks each queue from the front, re-derives a task's suitable nodes with
`node_satisfies` whenever the inventory changed since it last looked, and
scans the sorted suitable list for a node with a free slot. Nodes already
in the inventory passed in start with all their slots free. It shares no
dispatch code with the library: only the result types and the classifier
interface.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from covvsched.covv import TaskConstraintSet
from covvsched.oracle import GroupingConfig, apply_machine_event, group_label, node_satisfies
from covvsched.schedsim import POLICY_CO_ANALYZER, LatencySample, SimResult
from covvsched.trace import MachineEvent


def _suitable(inventory, task):
    return sorted(n for n, attrs in inventory.nodes.items() if node_satisfies(attrs, task))


@dataclass
class _Queued:
    task: TaskConstraintSet
    duration_ticks: int
    submit_tick: int
    true_group: int
    predicted_group: int | None
    suitable: list[int]
    inventory_version: int


def reference_simulate(events, inventory, classifier, cfg, grouping=None) -> SimResult:
    grouping = grouping or GroupingConfig()
    by_tick = {}
    for event in events:
        by_tick.setdefault(event.time // cfg.tick_us, []).append(event)
    event_ticks = sorted(by_tick)
    next_event = 0

    slots_free = {node: cfg.slots_per_node for node in inventory.nodes}
    releases = []
    release_seq = 0
    refresh_due = []
    high, main, samples, queue_trace = [], [], [], []
    submitted = unplaced = 0
    if classifier is not None:
        classifier.refresh(inventory)

    def dispatch_queue(queue, tick, budget):
        nonlocal release_seq, unplaced
        placed = 0
        kept = []
        for pos, rec in enumerate(queue):
            if budget == 0:
                kept.extend(queue[pos:])
                break
            if rec.inventory_version != inventory.version:
                rec.suitable = _suitable(inventory, rec.task)
                rec.inventory_version = inventory.version
            if not rec.suitable:
                unplaced += 1
                continue
            node = next((n for n in rec.suitable if slots_free.get(n, 0) > 0), None)
            if node is None:
                kept.append(rec)
                continue
            slots_free[node] -= 1
            release_seq += 1
            heapq.heappush(releases, (tick + rec.duration_ticks, release_seq, node))
            samples.append(LatencySample(rec.task.task_id, rec.true_group, rec.predicted_group,
                                         rec.submit_tick, tick))
            placed += 1
            budget -= 1
        queue[:] = kept
        return placed, budget

    tick = event_ticks[0] if event_ticks else 0
    while True:
        if next_event < len(event_ticks) and event_ticks[next_event] == tick:
            changed = False
            for event in by_tick[tick]:
                if isinstance(event, MachineEvent):
                    apply_machine_event(inventory, inventory.registry, event.node,
                                        event.attribute, event.value)
                    slots_free.setdefault(event.node, cfg.slots_per_node)
                    changed = True
                    continue
                submitted += 1
                suitable = _suitable(inventory, event.task)
                if not suitable:
                    unplaced += 1
                    continue
                predicted = None
                target = main
                if cfg.policy == POLICY_CO_ANALYZER:
                    predicted = classifier.predict(event.task)
                    if predicted <= cfg.priority_threshold:
                        target = high
                target.append(_Queued(event.task, max(1, math.ceil(event.duration / cfg.tick_us)),
                                      tick, group_label(len(suitable), grouping), predicted,
                                      suitable, inventory.version))
            if changed and classifier is not None:
                heapq.heappush(refresh_due, tick + cfg.retrain_delay_ticks)
            next_event += 1

        while refresh_due and refresh_due[0] <= tick:
            heapq.heappop(refresh_due)
            classifier.refresh(inventory)

        while releases and releases[0][0] <= tick:
            _, _, node = heapq.heappop(releases)
            slots_free[node] += 1

        budget = cfg.dispatch_rate
        if cfg.policy == POLICY_CO_ANALYZER:
            placed_now, budget = dispatch_queue(high, tick, budget)
            if not high and budget > 0:
                placed_now += dispatch_queue(main, tick, budget)[0]
        else:
            placed_now, budget = dispatch_queue(main, tick, budget)

        queue_trace.append((tick, len(high), len(main),
                            sum(cfg.slots_per_node - f for f in slots_free.values())))

        more_events = next_event < len(event_ticks)
        if not (high or main) and not more_events and not releases:
            break
        if placed_now > 0:
            tick += 1
            continue
        candidates = []
        if more_events:
            candidates.append(event_ticks[next_event])
        if releases:
            candidates.append(releases[0][0])
        if refresh_due:
            candidates.append(refresh_due[0])
        if not candidates:
            raise AssertionError("queued tasks with no pending release or event")
        tick = max(tick + 1, min(candidates))

    return SimResult(samples=samples, unplaced=unplaced, submitted=submitted,
                     queue_trace=queue_trace)
