import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sched_reference import reference_simulate

from covvsched.covv import Constraint, Op, TaskConstraintSet
from covvsched.neural import CLASS_COUNT, DenseLayer, TwoLayerClassifier
from covvsched import schedsim
from covvsched.oracle import GroupingConfig, NodeInventory, apply_machine_event, suitable_nodes
from covvsched.schedsim import (
    ModelClassifier,
    OracleClassifier,
    SchedulerConfig,
    simulate,
)
from covvsched.trace import (
    MachineEvent,
    SyntheticTraceConfig,
    TaskEvent,
    generate_events,
)


def bootstrap(node_count, extra=()):
    events = [MachineEvent(0, n, "uid", str(n)) for n in range(node_count)]
    events.extend(extra)
    return events


def task(tid, t, dur=1000, constraints=()):
    return TaskEvent(t, TaskConstraintSet(tid, tuple(constraints)), dur)


def pin(tid, t, node, dur=1000):
    return task(tid, t, dur, (Constraint("uid", Op.EQ, (str(node),)),))


class StubClassifier:
    def __init__(self, group):
        self.group = group

    def refresh(self, inventory):
        pass

    def predict(self, task):
        return self.group


def adversarial_events(node_count=40, burst=400, restrictive=10, seed=0):
    rng = np.random.default_rng(seed)
    events = bootstrap(node_count)
    tid = 0
    for i in range(burst):
        events.append(task(tid, 1000, dur=20_000))
        tid += 1
    for i in range(restrictive):
        events.append(pin(tid, 2000, int(rng.integers(0, node_count)), dur=5_000))
        tid += 1
    for i in range(burst // 2):
        events.append(task(tid, 3000, dur=20_000))
        tid += 1
    return sorted(events, key=lambda e: e.time)


def group0_mean_latency(result):
    vals = [s.placement_tick - s.submit_tick for s in result.samples if s.true_group == 0]
    return sum(vals) / len(vals)


class TestPolicyEquivalence:
    def test_unconstrained_trace_identical_under_both_policies(self):
        events = bootstrap(10) + [task(i, 1000 + i * 100) for i in range(50)]
        cfg_f = SchedulerConfig(policy="fifo", dispatch_rate=2)
        cfg_c = SchedulerConfig(policy="co-analyzer", dispatch_rate=2)
        fifo = simulate(events, NodeInventory(), None, cfg_f)
        co = simulate(events, NodeInventory(), OracleClassifier(GroupingConfig()), cfg_c)
        assert [(s.task_id, s.placement_tick) for s in fifo.samples] == \
               [(s.task_id, s.placement_tick) for s in co.samples]

    def test_never_prioritizing_classifier_matches_fifo(self):
        events = adversarial_events()
        fifo = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
        stub = simulate(events, NodeInventory(), StubClassifier(25),
                        SchedulerConfig(policy="co-analyzer"))
        assert [(s.task_id, s.placement_tick) for s in fifo.samples] == \
               [(s.task_id, s.placement_tick) for s in stub.samples]

    def test_deterministic_replay(self):
        events = adversarial_events()
        cfg = SchedulerConfig(policy="co-analyzer")
        clf = OracleClassifier(GroupingConfig())
        a = simulate(events, NodeInventory(), clf, cfg)
        b = simulate(events, NodeInventory(), OracleClassifier(GroupingConfig()), cfg)
        assert [(s.task_id, s.placement_tick) for s in a.samples] == \
               [(s.task_id, s.placement_tick) for s in b.samples]


class TestRoutingBenefit:
    def test_restrictive_tasks_place_sooner_under_co_analyzer(self):
        events = adversarial_events()
        fifo = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
        co = simulate(events, NodeInventory(), OracleClassifier(GroupingConfig()),
                      SchedulerConfig(policy="co-analyzer"))
        assert fifo.placed == co.placed
        assert fifo.unplaced == co.unplaced == 0
        assert group0_mean_latency(co) < group0_mean_latency(fifo)


class TestQueueDiscipline:
    def test_main_queue_waits_while_high_priority_blocked(self):
        # node 0's only slot is busy; the pinned task blocks the whole main queue
        events = bootstrap(2) + [
            task(0, 1000, dur=50_000),          # occupies node 0 until tick 51
            pin(1, 2000, node=0, dur=1000),     # high priority, must wait for node 0
            task(2, 3000, dur=1000),            # placeable on node 1, but held back
        ]
        cfg = SchedulerConfig(policy="co-analyzer", slots_per_node=1, dispatch_rate=4)
        res = simulate(events, NodeInventory(), OracleClassifier(GroupingConfig()), cfg)
        by_id = {s.task_id: s for s in res.samples}
        assert by_id[1].placement_tick == 51
        assert by_id[2].placement_tick == 51  # released the same tick, after the pinned task
        fifo = simulate(events, NodeInventory(), None,
                        SchedulerConfig(policy="fifo", slots_per_node=1, dispatch_rate=4))
        assert {s.task_id: s.placement_tick for s in fifo.samples}[2] == 3

    def test_conservation_every_tick(self):
        # the simulator asserts submitted == placed + unplaced + queued internally
        events = adversarial_events(seed=3)
        res = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
        assert res.submitted == res.placed + res.unplaced

    def test_lowest_node_id_wins_ties(self):
        events = bootstrap(5) + [task(0, 1000)]
        res = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
        # placement on node 0 shows up as the first release freeing node 0; check via queue trace length
        assert res.placed == 1

    def test_lowest_node_id_wins_over_set_order(self):
        # a set of {1, 8, 16} iterates as [8, 1, 16]; the long task must take node 1
        events = [MachineEvent(0, n, "uid", str(n)) for n in (1, 8, 16)] + [
            task(0, 1000, dur=50_000),
            pin(1, 2000, node=1),
            pin(2, 2000, node=8),
        ]
        res = simulate(events, NodeInventory(), None,
                       SchedulerConfig(policy="fifo", slots_per_node=1))
        assert {s.task_id: s.placement_tick for s in res.samples} == {0: 1, 1: 51, 2: 2}

    def test_node_of_the_given_inventory_has_slots(self):
        # node 5 is never touched by a machine event in the trace
        inv = NodeInventory()
        apply_machine_event(inv, inv.registry, 5, "uid", "5")
        res = simulate(bootstrap(2) + [pin(0, 3000, node=5)], inv, None,
                       SchedulerConfig(policy="fifo"))
        assert [(s.task_id, s.submit_tick, s.placement_tick) for s in res.samples] == [(0, 3, 3)]


class TestUnplaced:
    def test_impossible_task_counts_unplaced(self):
        events = bootstrap(3) + [
            task(0, 1000, constraints=(Constraint("uid", Op.EQ, ("99",)),)),
            task(1, 1000),
        ]
        res = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
        assert res.unplaced == 1
        assert res.placed == 1
        assert res.submitted == 2


class TestSnapshotDelay:
    def make_events(self):
        extra = [MachineEvent(0, n, "v", "x") for n in (0, 1)]
        events = bootstrap(2, extra)
        events.append(MachineEvent(2_000_000, 1, "v", None))  # node 1 loses v
        events.append(task(0, 2_005_000, constraints=(Constraint("v", Op.EQ, ("x",)),)))
        return events

    def run(self, delay):
        cfg = SchedulerConfig(policy="co-analyzer", retrain_delay_ticks=delay)
        clf = OracleClassifier(GroupingConfig())
        return simulate(self.make_events(), NodeInventory(), clf, cfg)

    def test_snapshot_lag_changes_only_predictions(self):
        fresh = self.run(delay=0)
        stale = self.run(delay=500)
        (s_fresh,) = fresh.samples
        (s_stale,) = stale.samples
        assert s_fresh.true_group == s_stale.true_group == 0
        assert s_fresh.predicted_group == 0   # refreshed snapshot saw the removal
        assert s_stale.predicted_group == 1   # stale snapshot still counts two nodes
        assert s_fresh.placement_tick == s_stale.placement_tick


class TestClassifiers:
    def test_oracle_classifier_predictions(self):
        inv = NodeInventory()
        for n in range(200):
            apply_machine_event(inv, inv.registry, n, "uid", str(n))
        clf = OracleClassifier(GroupingConfig(increment=500))
        clf.refresh(inv)
        assert clf.predict(TaskConstraintSet(0, (Constraint("uid", Op.EQ, ("7",)),))) == 0
        # min(25, ceil(200 / 500)) for the unconstrained task
        assert clf.predict(TaskConstraintSet(1)) == 1

    def test_model_classifier_pads_and_trims(self):
        b2 = np.zeros(CLASS_COUNT)
        b2[3] = 1.0
        model = TwoLayerClassifier(DenseLayer(np.zeros((30, 6)), np.zeros(30)),
                                   DenseLayer(np.zeros((CLASS_COUNT, 30)), b2))
        clf = ModelClassifier(model)
        inv = NodeInventory()
        for v in range(2):
            inv.registry.register("a", str(v))  # narrower than the model
        clf.refresh(inv)
        assert clf.predict(TaskConstraintSet(0, (Constraint("a", Op.EQ, ("0",)),))) == 3
        for v in range(20):
            inv.registry.register("a", str(v))  # wider than the model
        clf.refresh(inv)
        assert clf.predict(TaskConstraintSet(0, (Constraint("a", Op.EQ, ("0",)),))) == 3

    def test_refresh_that_adds_a_column_changes_a_memoized_prediction(self):
        # input column 2, ("a", "1"), drives hidden unit 0, which outvotes
        # the bias's group 3; columns 0 and 1 are ("a", UNSET) and ("a", "0")
        w1 = np.zeros((30, 3))
        w1[0, 2] = 1.0
        w2 = np.zeros((CLASS_COUNT, 30))
        w2[0, 0] = 10.0
        b2 = np.zeros(CLASS_COUNT)
        b2[3] = 1.0
        clf = ModelClassifier(TwoLayerClassifier(DenseLayer(w1, np.zeros(30)),
                                                 DenseLayer(w2, b2)))
        t = TaskConstraintSet(0, (Constraint("a", Op.EQ, ("0",)),))
        inv = NodeInventory()
        inv.registry.register("a", "0")
        clf.refresh(inv)
        assert clf.predict(t) == 3
        inv.registry.register("a", "1")  # the task rejects this value: its bit is set
        assert clf.predict(t) == 3  # the registry copy is frozen until a refresh
        clf.refresh(inv)
        assert clf.predict(t) == 0

    def test_model_reads_the_columns_of_a_prepopulated_inventory(self):
        # the inventory passed in holds "a" = "0" and "1" before the trace
        # bootstraps "uid", so column 2 is ("a", "1"); it drives hidden unit
        # 0, which outvotes the bias's group 3
        w1 = np.zeros((30, 6))
        w1[0, 2] = 1.0
        w2 = np.zeros((CLASS_COUNT, 30))
        w2[0, 0] = 10.0
        b2 = np.zeros(CLASS_COUNT)
        b2[3] = 1.0
        model = TwoLayerClassifier(DenseLayer(w1, np.zeros(30)), DenseLayer(w2, b2))
        inv = NodeInventory()
        for node, value in enumerate("01"):
            apply_machine_event(inv, inv.registry, node, "a", value)
        rejects_a1 = (Constraint("a", Op.EQ, ("0",)),)
        events = bootstrap(2) + [task(0, 1000, constraints=rejects_a1), task(1, 1000)]
        res = simulate(events, inv, ModelClassifier(model), SchedulerConfig(policy="co-analyzer"))
        assert inv.registry.column(2) == ("a", "1")
        assert {s.task_id: s.predicted_group for s in res.samples} == {0: 0, 1: 3}

    def test_model_classifier_routes_in_simulation(self):
        events = bootstrap(4) + [task(0, 1000), task(1, 1500)]
        b2 = np.zeros(CLASS_COUNT)
        b2[25] = 1.0
        model = TwoLayerClassifier(DenseLayer(np.zeros((30, 5)), np.zeros(30)),
                                   DenseLayer(np.zeros((CLASS_COUNT, 30)), b2))
        res = simulate(events, NodeInventory(), ModelClassifier(model),
                       SchedulerConfig(policy="co-analyzer"))
        assert all(s.predicted_group == 25 for s in res.samples)


class TestConfigValidation:
    def test_missing_classifier_rejected(self):
        with pytest.raises(ValueError):
            simulate([], NodeInventory(), None, SchedulerConfig(policy="co-analyzer"))

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="lifo")

    def test_bad_dispatch_rate_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(dispatch_rate=0)


class TestLatencyStats:
    def test_stats_shape(self):
        events = adversarial_events()
        res = simulate(events, NodeInventory(), None, SchedulerConfig(policy="fifo"))
        stats = res.latency_stats()
        assert stats["placed"] == res.placed
        assert set(stats["overall"]) == {"count", "mean", "median", "p95"}
        assert "0" in stats["per_group"]
        assert stats["per_group"]["0"]["count"] == 10


class ModuloClassifier:
    """Predicts from the task id, so both queues fill whatever the cluster holds."""

    def refresh(self, inventory):
        pass

    def predict(self, task):
        return task.task_id % 3


# Few nodes, attributes and values, and long tasks, so that every slot is
# often busy, sets overwrite, and removals empty a queued task's suitable
# set. A set of {1, 8, 16} iterates as [8, 1, 16], not in id order. The
# trace bootstraps _SIM_NODES; node 9 joins mid-trace, and node 40 exists
# only in a pre-populated inventory, so it never gets a slot.
_SIM_NODES = (1, 2, 8, 16)
_SIM_ATTRS = ("a", "b")
_SIM_VALUES = ("0", "1", "2")
_SIM_DURATIONS = (0, 500, 2_000, 20_000, 60_000)


@st.composite
def _sim_constraint(draw):
    op = draw(st.sampled_from(list(Op)))
    if op in (Op.PRESENT, Op.ABSENT):
        operands = ()
    elif op in (Op.IN, Op.NOT_IN):
        operands = tuple(draw(st.lists(st.sampled_from(_SIM_VALUES), min_size=1, max_size=2,
                                       unique=True)))
    else:
        operands = (draw(st.sampled_from(_SIM_VALUES)),)
    return Constraint(draw(st.sampled_from(_SIM_ATTRS)), op, operands)


def _sim_machine(nodes):
    """(node, attribute, value) with None for a removal."""
    return st.tuples(st.sampled_from(nodes), st.sampled_from(_SIM_ATTRS),
                     st.one_of(st.none(), st.sampled_from(_SIM_VALUES)))


_sim_bootstrap = st.lists(st.tuples(st.sampled_from(_SIM_VALUES), st.sampled_from(_SIM_VALUES)),
                          min_size=len(_SIM_NODES), max_size=len(_SIM_NODES))
# one task per step, after an optional machine event at the same time
_sim_steps = st.lists(st.tuples(
    st.integers(0, 1),  # ticks since the previous step
    st.one_of(st.none(), _sim_machine(_SIM_NODES + (9,))),
    st.lists(_sim_constraint(), max_size=2),
    st.sampled_from(_SIM_DURATIONS),
), min_size=10, max_size=30)


def _sim_events(bootstrap, steps, remove_only_node):
    # every node starts with values of "a" and "b", so it has slots from
    # tick 0; node 30 only ever sees a remove, so it gets slots that no
    # task can use
    events = [MachineEvent(0, n, attribute, value)
              for n, values in zip(_SIM_NODES, bootstrap)
              for attribute, value in zip(_SIM_ATTRS, values)]
    if remove_only_node:
        events.append(MachineEvent(0, 30, "a", None))
    t = 0
    for tid, (gap, machine, constraints, duration) in enumerate(steps):
        t += gap * 1000 + (tid % 2) * 300
        if machine is not None:
            events.append(MachineEvent(t, *machine))
        events.append(TaskEvent(t, TaskConstraintSet(tid, tuple(constraints)), duration))
    return events


def _sim_outcome(run, events, preload, classifier, cfg):
    inv = NodeInventory()
    for node, attribute, value in preload:
        apply_machine_event(inv, inv.registry, node, attribute, value)
    clf = {None: None, "oracle": OracleClassifier(GroupingConfig(increment=2)),
           "modulo": ModuloClassifier()}[classifier]
    res = run(events, inv, clf, cfg, GroupingConfig(increment=2))
    # every sample field, task id and placement tick included
    return res.latency_stats(), res.queue_trace, res.samples


class TestReferenceWalk:
    @settings(max_examples=400, deadline=None)
    @given(bootstrap=_sim_bootstrap, steps=_sim_steps, remove_only_node=st.booleans(),
           preload=st.lists(_sim_machine(_SIM_NODES + (40,)), max_size=6),
           policy=st.sampled_from([("fifo", None), ("co-analyzer", "oracle"),
                                   ("co-analyzer", "modulo")]),
           slots=st.integers(1, 2), rate=st.integers(1, 3), delay=st.integers(0, 3))
    def test_simulate_matches_reference(self, bootstrap, steps, remove_only_node, preload,
                                        policy, slots, rate, delay):
        events = _sim_events(bootstrap, steps, remove_only_node)
        cfg = SchedulerConfig(policy=policy[0], slots_per_node=slots, dispatch_rate=rate,
                              retrain_delay_ticks=delay)
        assert _sim_outcome(simulate, events, preload, policy[1], cfg) == \
            _sim_outcome(reference_simulate, events, preload, policy[1], cfg)

    @pytest.mark.parametrize("policy", [("fifo", None), ("co-analyzer", "oracle")])
    def test_blocked_signature_ahead_of_a_placeable_task(self, policy, monkeypatch):
        # node 0's only slot is busy until tick 51, so tasks 1 and 2, pinned
        # to it, wait in the queue ahead of task 3, pinned to the free node 1
        events = bootstrap(2) + [task(0, 1000, dur=50_000), pin(1, 2000, node=0),
                                 pin(2, 2000, node=0), pin(3, 2000, node=1)]
        cfg = SchedulerConfig(policy=policy[0], slots_per_node=1)
        scanned = []

        def spy(inventory, task):
            scanned.append(task.task_id)
            return suitable_nodes(inventory, task)

        monkeypatch.setattr(schedsim, "suitable_nodes", spy)
        outcome = _sim_outcome(simulate, events, (), policy[1], cfg)
        assert {s.task_id: s.placement_tick for s in outcome[2]} == {0: 1, 3: 2, 1: 51, 2: 52}
        # task 2 is scanned at submission, at tick 51 after task 1 took node
        # 0, and at tick 52 where it places; in the walks of ticks 2 and 3,
        # task 1 has already found their signature blocked
        assert scanned.count(2) == 3
        assert outcome == _sim_outcome(reference_simulate, events, (), policy[1], cfg)

    V_EQ_X = (Constraint("v", Op.EQ, ("x",)),)

    @pytest.mark.parametrize("events, rate, trace", [
        # node 0's only slot is busy when it loses "v" at tick 5
        (bootstrap(1, [MachineEvent(0, 0, "v", "x")]) + [
            task(0, 1000, dur=50_000),
            task(1, 2000, constraints=V_EQ_X),
            MachineEvent(5000, 0, "v", None),
        ], 4, [(0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 1, 1), (5, 0, 0, 1), (51, 0, 0, 0)]),
        # node 1 loses "v" at tick 2, whose walk takes the last slot and
        # runs out of budget before it reaches task 2
        (bootstrap(2, [MachineEvent(0, 1, "v", "x")]) + [
            task(0, 1000, dur=50_000),
            task(1, 2000, dur=50_000),
            task(2, 2000, constraints=V_EQ_X),
            MachineEvent(2000, 1, "v", None),
        ], 1, [(0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 1, 2), (3, 0, 0, 2), (51, 0, 0, 1),
               (52, 0, 0, 0)]),
    ], ids=["no-free-slot", "budget-spent"])
    def test_removal_drops_queued_task_while_no_slot_is_free(self, events, rate, trace):
        # the task left without a suitable node is dropped at the first walk
        # after the removal, not kept until a slot frees up
        res = simulate(events, NodeInventory(), None,
                       SchedulerConfig(policy="fifo", slots_per_node=1, dispatch_rate=rate))
        assert res.unplaced == 1
        assert res.queue_trace == trace


def golden_events():
    """The desk cell of the acceptance suite (200 nodes, seed 11) with its
    task count, span and growth times scaled from 42,000 tasks to 2,000, so
    arrivals keep their rate and a backlog of several hundred tasks builds."""
    def scale(t):
        return t * 2_000 // 42_000
    cfg = SyntheticTraceConfig(
        node_count=200, attribute_count=8, values_per_attribute=10, task_count=2_000,
        constrained_fraction=0.4, restrictive_rate=15,
        growth_schedule=tuple((scale(2_000_000 + i * 2_000_000), 3) for i in range(20)),
        span_us=scale(44_000_000), seed=11)
    return generate_events(cfg)


def output_digest(result):
    """SHA-256 of the bytes `sched-sim` writes to latency.json and --queue-trace."""
    h = hashlib.sha256()
    h.update((json.dumps(result.latency_stats(), indent=2) + "\n").encode())
    h.update(b"tick,high_priority,main,running\n")
    for row in result.queue_trace:
        h.update((",".join(str(v) for v in row) + "\n").encode())
    return h.hexdigest()


class TestGolden:
    # recorded from the per-tick walk that re-scanned every queued task's
    # suitable nodes for a free slot, before the free-node set replaced it
    DIGESTS = {
        "fifo": "ceec92b4886e7836ce18147878b952b10e975b2a1d35623cf0587a53d43621dd",
        "co-analyzer": "dd6ab008fa551b68c455771cf714dd2e38cd8478ed425e9f93e416308d542a40",
    }

    @pytest.mark.parametrize("policy", sorted(DIGESTS))
    def test_desk_cell_outputs_unchanged(self, policy):
        clf = OracleClassifier(GroupingConfig()) if policy == "co-analyzer" else None
        res = simulate(golden_events(), NodeInventory(), clf, SchedulerConfig(policy=policy))
        assert res.submitted == res.placed == 2_000
        assert output_digest(res) == self.DIGESTS[policy]
