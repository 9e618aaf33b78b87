"""Discrete-tick scheduling simulation with constraint-aware priority routing.

Arriving tasks are classified by predicted suitable-node group; under the
co-analyzer policy, tasks at or below the priority threshold jump to a
high-priority queue that is always served before the main queue. Placement
itself is ground truth: a task lands on the lowest-numbered suitable node
with a free slot and holds the slot for its duration. Latency is measured
in ticks from submission to placement.

A dispatch walk never scans the whole cluster. Suitable-node lists come
from `suitable_nodes`, which the inventory caches per constraint signature
until its next mutation; the nodes with a free slot are kept as a set, and
a walk over a queue already found placeable at the current inventory
version stops as soon as no slot is free anywhere, because none of its
remaining tasks could move. Nodes already in the inventory passed in get
their slots at the start, like nodes that join through a machine event.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .covv import FeatureRegistry, TaskConstraintSet, encode_task
from .neural import TwoLayerClassifier, forward
from .oracle import (
    GroupingConfig,
    NodeInventory,
    apply_machine_event,
    count_suitable,
    group_label,
    suitable_nodes,
)
from .trace import MachineEvent, TraceEvent

POLICY_FIFO = "fifo"
POLICY_CO_ANALYZER = "co-analyzer"


@dataclass
class SchedulerConfig:
    policy: str = POLICY_FIFO
    priority_threshold: int = 0  # max predicted group routed high-priority
    slots_per_node: int = 4
    dispatch_rate: int = 4  # placements per tick
    retrain_delay_ticks: int = 0  # lag before a classifier sees cluster changes
    tick_us: int = 1000

    def __post_init__(self):
        if self.policy not in (POLICY_FIFO, POLICY_CO_ANALYZER):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.dispatch_rate < 1:
            raise ValueError(f"dispatch_rate must be >= 1, got {self.dispatch_rate}")
        if self.slots_per_node < 1:
            raise ValueError(f"slots_per_node must be >= 1, got {self.slots_per_node}")
        if self.tick_us < 1:
            raise ValueError(f"tick_us must be >= 1, got {self.tick_us}")
        if self.retrain_delay_ticks < 0:
            raise ValueError(f"retrain_delay_ticks must be >= 0, got {self.retrain_delay_ticks}")


@dataclass
class LatencySample:
    task_id: int
    true_group: int
    predicted_group: int | None  # None under fifo
    submit_tick: int
    placement_tick: int


@dataclass
class SimResult:
    samples: list[LatencySample]
    unplaced: int
    submitted: int
    # (tick, high, main, running) for every tick the simulator processed;
    # idle stretches are skipped, nothing can change during them
    queue_trace: list[tuple[int, int, int, int]]

    @property
    def placed(self) -> int:
        return len(self.samples)

    def latency_stats(self) -> dict:
        """Mean/median/p95 latency overall and per true group."""
        def stats(values):
            arr = np.asarray(values, dtype=np.float64)
            return {
                "count": int(arr.size),
                "mean": float(arr.mean()),
                "median": float(np.median(arr)),
                "p95": float(np.percentile(arr, 95)),
            }

        latencies = [s.placement_tick - s.submit_tick for s in self.samples]
        by_group: dict[int, list[int]] = {}
        for s in self.samples:
            by_group.setdefault(s.true_group, []).append(s.placement_tick - s.submit_tick)
        return {
            "submitted": self.submitted,
            "placed": self.placed,
            "unplaced": self.unplaced,
            "overall": stats(latencies) if latencies else None,
            "per_group": {str(g): stats(v) for g, v in sorted(by_group.items())},
        }


class OracleClassifier:
    """Perfect predictions: suitable-node counts of an inventory copy taken
    at each refresh.

    The copy is not a cache but the past state the classifier may see:
    submissions before a refresh comes due, under `retrain_delay_ticks` or
    in the tick of a machine event, are judged against it. It keeps its own
    suitability cache.
    """

    def __init__(self, grouping: GroupingConfig):
        self.grouping = grouping
        self._inventory = NodeInventory()

    def refresh(self, inventory: NodeInventory, registry: FeatureRegistry) -> None:
        self._inventory = inventory.copy()

    def predict(self, task: TaskConstraintSet) -> int:
        return group_label(count_suitable(self._inventory, task), self.grouping)


class ModelClassifier:
    """Trained-model predictions over a frozen registry snapshot.

    Columns beyond the model's input width are ignored, which matches a
    zero-extended model exactly; a narrower registry zero-pads. Between two
    refreshes the model and the registry copy are fixed, so a task's
    prediction depends only on its constraint signature: each signature's
    prediction is computed once and remembered until the next refresh.
    """

    def __init__(self, model: TwoLayerClassifier):
        self.model = model
        self._registry = FeatureRegistry()
        self._predictions: dict = {}  # constraint signature -> group

    def refresh(self, inventory: NodeInventory, registry: FeatureRegistry) -> None:
        self._registry = registry.copy()
        self._predictions.clear()

    def predict(self, task: TaskConstraintSet) -> int:
        group = self._predictions.get(task.constraints)
        if group is None:
            bits = encode_task(task, self._registry, register=False)
            x = np.zeros(self.model.features_count)
            n = min(len(bits), len(x))
            x[:n] = bits[:n]
            group = int(np.argmax(forward(self.model, x)))
            self._predictions[task.constraints] = group
        return group


@dataclass
class _QueuedTask:
    task: TaskConstraintSet
    duration_ticks: int
    submit_tick: int
    true_group: int
    predicted_group: int | None


class _Queue(list):
    """Queued tasks in arrival order.

    `checked_version` is the inventory version at which a dispatch walk
    last reached the end of the queue: every task then in the queue, and
    every task appended at that version, had a suitable node.
    """

    checked_version = -1


def simulate(events: Iterable[TraceEvent], inventory: NodeInventory,
             classifier, cfg: SchedulerConfig,
             grouping: GroupingConfig | None = None) -> SimResult:
    """Replay a trace through the scheduler and measure placement latency.

    Every tick: apply the tick's machine events, apply any classifier
    snapshot refresh that has come due, release finished tasks, then place
    up to dispatch_rate queued tasks. Under co-analyzer no main-queue task
    is dispatched while the high-priority queue is non-empty. Tasks with no
    suitable node count as unplaced. The loop runs until all queues drain.
    """
    if cfg.policy == POLICY_CO_ANALYZER and classifier is None:
        raise ValueError("co-analyzer policy requires a classifier")
    grouping = grouping or GroupingConfig()
    registry = FeatureRegistry()

    by_tick: dict[int, list[TraceEvent]] = {}
    for event in events:
        by_tick.setdefault(event.time // cfg.tick_us, []).append(event)
    event_ticks = sorted(by_tick)
    next_event = 0

    slots_free = dict.fromkeys(inventory.nodes, cfg.slots_per_node)
    # nodes with slots_free > 0; never iterated, since set order is not id order
    free_nodes = set(slots_free)
    running = 0
    releases: list[tuple[int, int]] = []  # (end_tick, node)
    refresh_due: list[int] = []  # ticks at which the classifier re-snapshots

    high = _Queue()
    main = _Queue()
    samples: list[LatencySample] = []
    queue_trace: list[tuple[int, int, int, int]] = []
    submitted = unplaced = 0

    if classifier is not None:
        classifier.refresh(inventory, registry)

    def dispatch_queue(queue: _Queue, tick: int, budget: int) -> tuple[int, int]:
        nonlocal running, unplaced
        placed = 0
        kept: list[_QueuedTask] = []
        for pos, rec in enumerate(queue):
            # with no free slot, a queue checked at this version keeps every
            # remaining task; otherwise the walk must go on, since it also
            # drops tasks whose last suitable node lost an attribute
            if budget == 0 or (not free_nodes and queue.checked_version == inventory.version):
                break
            suitable = suitable_nodes(inventory, rec.task)
            if not suitable:
                unplaced += 1
                continue
            node = next((n for n in suitable if n in free_nodes), None)
            if node is None:
                kept.append(rec)
                continue
            slots_free[node] -= 1
            if slots_free[node] == 0:
                free_nodes.discard(node)
            running += 1
            heapq.heappush(releases, (tick + rec.duration_ticks, node))
            samples.append(LatencySample(
                task_id=rec.task.task_id,
                true_group=rec.true_group,
                predicted_group=rec.predicted_group,
                submit_tick=rec.submit_tick,
                placement_tick=tick,
            ))
            placed += 1
            budget -= 1
        else:
            pos = len(queue)
            queue.checked_version = inventory.version
        queue[:pos] = kept  # the unvisited tail stays in place
        return placed, budget

    tick = event_ticks[0] if event_ticks else 0
    while True:
        # machine reconfiguration and submissions due this tick
        if next_event < len(event_ticks) and event_ticks[next_event] == tick:
            changed = False
            for event in by_tick[event_ticks[next_event]]:
                if isinstance(event, MachineEvent):
                    apply_machine_event(inventory, registry, event.node, event.attribute,
                                        event.value)
                    if event.node not in slots_free:
                        slots_free[event.node] = cfg.slots_per_node
                        free_nodes.add(event.node)
                    changed = True
                else:
                    submitted += 1
                    suitable = suitable_nodes(inventory, event.task)
                    if not suitable:
                        unplaced += 1
                        continue
                    true_group = group_label(len(suitable), grouping)
                    predicted = None
                    target = main
                    if cfg.policy == POLICY_CO_ANALYZER:
                        predicted = classifier.predict(event.task)
                        if predicted <= cfg.priority_threshold:
                            target = high
                    target.append(_QueuedTask(
                        task=event.task,
                        duration_ticks=max(1, math.ceil(event.duration / cfg.tick_us)),
                        submit_tick=tick,
                        true_group=true_group,
                        predicted_group=predicted,
                    ))
            if changed and classifier is not None:
                heapq.heappush(refresh_due, tick + cfg.retrain_delay_ticks)
            next_event += 1

        # model updates never block dispatch; they swap the snapshot between ticks
        while refresh_due and refresh_due[0] <= tick:
            heapq.heappop(refresh_due)
            classifier.refresh(inventory, registry)

        while releases and releases[0][0] <= tick:
            _, node = heapq.heappop(releases)
            slots_free[node] += 1
            free_nodes.add(node)
            running -= 1

        budget = cfg.dispatch_rate
        placed_now = 0
        if cfg.policy == POLICY_CO_ANALYZER:
            placed, budget = dispatch_queue(high, tick, budget)
            placed_now += placed
            if not high and budget > 0:
                placed, budget = dispatch_queue(main, tick, budget)
                placed_now += placed
        else:
            placed_now, budget = dispatch_queue(main, tick, budget)

        queue_trace.append((tick, len(high), len(main), running))
        assert submitted == len(samples) + unplaced + len(high) + len(main)

        queued = bool(high or main)
        more_events = next_event < len(event_ticks)
        if not queued and not more_events and not releases:
            break

        if placed_now > 0:
            tick += 1
        else:
            # nothing placed and nothing can change until the next event,
            # release or snapshot refresh; skipping ahead preserves behavior
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
