import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import inventory_from_jsonl, inventory_to_jsonl

from covvsched.covv import UNSET, Constraint, FeatureRegistry, Op, TaskConstraintSet, encode_task
from covvsched.oracle import (
    UNSCHEDULABLE,
    GroupingConfig,
    NodeInventory,
    apply_machine_event,
    count_suitable,
    group_label,
    node_satisfies,
    suitable_nodes,
)


def build_cell():
    """Ten nodes holding AM=0..9 plus one node without AM."""
    inv = NodeInventory()
    reg = FeatureRegistry()
    for n in range(10):
        apply_machine_event(inv, reg, n, "AM", str(n))
    apply_machine_event(inv, reg, 10, "other", "x")
    return inv, reg


class TestApplyMachineEvent:
    def test_set_creates_node_and_columns(self):
        inv, reg = NodeInventory(), FeatureRegistry()
        apply_machine_event(inv, reg, 1, "AM", "5")
        assert inv.nodes[1] == {"AM": "5"}
        assert reg.columns == [("AM", UNSET), ("AM", "5")]

    def test_remove_absent_attribute_is_noop(self):
        inv, reg = NodeInventory(), FeatureRegistry()
        apply_machine_event(inv, reg, 1, "AM", None)
        assert 1 not in inv.nodes
        assert inv.version == 0

    def test_new_value_grows_registry_by_one(self):
        inv, reg = build_cell()
        n = len(reg)
        apply_machine_event(inv, reg, 3, "AM", "77")
        assert len(reg) == n + 1

    def test_update_replaces_prior_value(self):
        inv, reg = build_cell()
        apply_machine_event(inv, reg, 3, "AM", "9")
        assert inv.value(3, "AM") == "9"

    def test_missing_attribute_reads_unset(self):
        inv, reg = build_cell()
        assert inv.value(10, "AM") is UNSET
        assert inv.value(999, "AM") is UNSET


class TestNodeSatisfies:
    def test_empty_constraints_always_true(self):
        assert node_satisfies({}, TaskConstraintSet(0))
        assert node_satisfies({"AM": "3"}, TaskConstraintSet(0))

    def test_ge_semantics(self):
        task = TaskConstraintSet(0, (Constraint("AM", Op.GE, ("5",)),))
        assert node_satisfies({"AM": "7"}, task)
        assert not node_satisfies({}, task)

    def test_contradiction_never_satisfied(self):
        task = TaskConstraintSet(0, (
            Constraint("AM", Op.GT, ("3",)),
            Constraint("AM", Op.LT, ("2",)),
        ))
        for attrs in ({}, {"AM": "0"}, {"AM": "9"}, {"AM": "2"}):
            assert not node_satisfies(attrs, task)


class TestCountSuitable:
    def test_unconstrained_counts_all_nodes(self):
        inv = NodeInventory()
        reg = FeatureRegistry()
        for n in range(100):
            apply_machine_event(inv, reg, n, "a", "1")
        assert count_suitable(inv, TaskConstraintSet(0)) == 100

    def test_ge_five_selects_five_of_eleven(self):
        # nodes AM=5..9 qualify; AM=0..4 and the AM-less node do not
        inv, _ = build_cell()
        task = TaskConstraintSet(0, (Constraint("AM", Op.GE, ("5",)),))
        assert count_suitable(inv, task) == 5
        assert suitable_nodes(inv, task) == [5, 6, 7, 8, 9]

    def test_contradiction_counts_zero(self):
        inv, _ = build_cell()
        task = TaskConstraintSet(0, (
            Constraint("AM", Op.GT, ("3",)),
            Constraint("AM", Op.LT, ("2",)),
        ))
        assert count_suitable(inv, task) == 0

    def test_adding_a_constraint_never_increases_count(self):
        rng = np.random.default_rng(11)
        ops = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.IN, Op.NOT_IN)
        inv = NodeInventory()
        reg = FeatureRegistry()
        for n in range(60):
            for a in range(3):
                if rng.random() < 0.8:
                    apply_machine_event(inv, reg, n, f"a{a}", str(rng.integers(0, 6)))
        for _ in range(200):
            constraints = []
            last = count_suitable(inv, TaskConstraintSet(0))
            for _ in range(rng.integers(1, 4)):
                op = ops[rng.integers(0, len(ops))]
                operands = (str(rng.integers(0, 6)),) if op not in (Op.IN, Op.NOT_IN) else (
                    str(rng.integers(0, 6)), str(rng.integers(0, 6)))
                constraints.append(Constraint(f"a{rng.integers(0, 3)}", op, tuple(dict.fromkeys(operands))))
                now = count_suitable(inv, TaskConstraintSet(0, tuple(constraints)))
                assert now <= last
                last = now


class TestGroupLabel:
    def test_single_node_is_group_zero(self):
        assert group_label(1, GroupingConfig()) == 0

    def test_zero_nodes_is_unschedulable(self):
        assert group_label(0, GroupingConfig()) == UNSCHEDULABLE

    def test_bucket_formula(self):
        # ceil(count / increment), clamped to 25
        assert group_label(501, GroupingConfig(increment=500)) == 2
        assert group_label(9525, GroupingConfig(increment=360)) == 25

    def test_group_boundaries_at_default_increment(self):
        cfg = GroupingConfig(increment=500)
        assert group_label(2, cfg) == 1
        assert group_label(500, cfg) == 1
        assert group_label(501, cfg) == 2
        assert group_label(25 * 500, cfg) == 25
        assert group_label(25 * 500 + 1, cfg) == 25
        assert group_label(10 ** 9, cfg) == 25

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            group_label(-1, GroupingConfig())

    def test_increment_validated(self):
        with pytest.raises(ValueError):
            GroupingConfig(increment=0)


def independent_label(nodes: dict, task: TaskConstraintSet, increment: int) -> int:
    """Brute-force labeling written from scratch, no shared code paths."""
    def cmp(a, b):
        try:
            return (int(a) > int(b)) - (int(a) < int(b))
        except ValueError:
            return (a > b) - (a < b)

    def ok(attrs, c):
        v = attrs.get(c.attribute)
        name = c.op.value
        if name == "PRESENT":
            return v is not None
        if name == "ABSENT":
            return v is None
        if v is None:
            return name in ("NE", "NOT_IN")
        if name == "EQ":
            return cmp(v, c.operands[0]) == 0
        if name == "NE":
            return cmp(v, c.operands[0]) != 0
        if name == "LT":
            return cmp(v, c.operands[0]) < 0
        if name == "LE":
            return cmp(v, c.operands[0]) <= 0
        if name == "GT":
            return cmp(v, c.operands[0]) > 0
        if name == "GE":
            return cmp(v, c.operands[0]) >= 0
        if name == "IN":
            return any(cmp(v, o) == 0 for o in c.operands)
        if name == "NOT_IN":
            return all(cmp(v, o) != 0 for o in c.operands)
        raise AssertionError(name)

    count = 0
    for attrs in nodes.values():
        if all(ok(attrs, c) for c in task.constraints):
            count += 1
    if count == 0:
        return UNSCHEDULABLE
    if count == 1:
        return 0
    import math
    return min(25, math.ceil(count / increment))


class TestOracleCrossCheck:
    def test_two_independent_code_paths_agree(self):
        rng = np.random.default_rng(23)
        inv = NodeInventory()
        reg = FeatureRegistry()
        for n in range(50):
            for a in range(4):
                if rng.random() < 0.85:
                    apply_machine_event(inv, reg, n, f"a{a}", str(rng.integers(0, 8)))
        ops = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.IN, Op.NOT_IN, Op.PRESENT, Op.ABSENT)
        cfg = GroupingConfig(increment=10)
        for i in range(300):
            constraints = []
            for _ in range(rng.integers(0, 3)):
                op = ops[rng.integers(0, len(ops))]
                if op in (Op.PRESENT, Op.ABSENT):
                    operands = ()
                elif op in (Op.IN, Op.NOT_IN):
                    operands = tuple(dict.fromkeys(str(rng.integers(0, 8)) for _ in range(2)))
                else:
                    operands = (str(rng.integers(0, 8)),)
                constraints.append(Constraint(f"a{rng.integers(0, 4)}", op, operands))
            task = TaskConstraintSet(i, tuple(constraints))
            mine = group_label(count_suitable(inv, task), cfg)
            theirs = independent_label(inv.nodes, task, cfg.increment)
            assert mine == theirs


class TestInventoryFixtures:
    def test_jsonl_round_trip(self):
        inv, _ = build_cell()
        text = inventory_to_jsonl(inv)
        back = inventory_from_jsonl(text)
        assert back.nodes == inv.nodes

    def test_bad_record_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            inventory_from_jsonl('{"node": 1}\n')


# Small pools so events collide: overwrites, removals of held attributes,
# decimal aliases ("1", "01", "+1") of one integer, and an attribute ("d")
# that no node ever holds.
_NODE_IDS = st.integers(-3, 12)
_HELD_ATTRS = ("a", "b", "c")
_VALUES = ("0", "1", "01", "+1", "-1", "2", "10", "x", "y")

_machine_events = st.one_of(
    st.tuples(st.just("set"), _NODE_IDS, st.sampled_from(_HELD_ATTRS), st.sampled_from(_VALUES)),
    st.tuples(st.just("remove"), _NODE_IDS, st.sampled_from(_HELD_ATTRS), st.none()),
)
_events = st.lists(_machine_events, max_size=40)
# columns a caller appends to the inventory's registry: values no event
# sets ("97", "z") and attribute "d" among them
_operand_columns = st.tuples(st.just("register"), st.none(), st.sampled_from(_HELD_ATTRS + ("d",)),
                             st.sampled_from(_VALUES + ("97", "z")))
_events_with_operands = st.lists(st.one_of(_machine_events, _operand_columns), max_size=40)


@st.composite
def _constraints(draw):
    op = draw(st.sampled_from(list(Op)))
    if op in (Op.PRESENT, Op.ABSENT):
        operands = ()
    elif op in (Op.IN, Op.NOT_IN):
        operands = tuple(draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3, unique=True)))
    else:
        operands = (draw(st.sampled_from(_VALUES)),)
    return Constraint(draw(st.sampled_from(_HELD_ATTRS + ("d",))), op, operands)


_tasks = st.lists(st.lists(_constraints(), max_size=3), min_size=1, max_size=6).map(
    lambda sets: [TaskConstraintSet(i, tuple(cs)) for i, cs in enumerate(sets)])


def _replay(inv, reg, events):
    for kind, node, attribute, value in events:
        if kind == "register":
            inv.registry.register(attribute, value)
        else:
            apply_machine_event(inv, reg, node, attribute, value)


def _assert_index_matches_spec(inv, tasks):
    for task in tasks:
        expected = sorted(node for node, attrs in inv.nodes.items() if node_satisfies(attrs, task))
        assert count_suitable(inv, task) == len(expected)
        assert suitable_nodes(inv, task) == expected


class TestSuitabilityIndex:
    @settings(max_examples=300, deadline=None)
    @given(events=_events, tasks=_tasks)
    def test_index_agrees_with_node_satisfies(self, events, tasks):
        inv, reg = NodeInventory(), FeatureRegistry()
        for event in events:
            _replay(inv, reg, [event])
            _assert_index_matches_spec(inv, tasks)

    @settings(max_examples=100, deadline=None)
    @given(before=_events, after=_events, tasks=_tasks)
    def test_copy_and_original_are_independent(self, before, after, tasks):
        inv, reg = NodeInventory(), FeatureRegistry()
        _replay(inv, reg, before)
        snap = inv.copy()
        frozen = {n: dict(attrs) for n, attrs in inv.nodes.items()}
        counts = [count_suitable(inv, t) for t in tasks]

        _replay(snap, reg.copy(), after)
        assert inv.nodes == frozen
        assert [count_suitable(inv, t) for t in tasks] == counts
        _assert_index_matches_spec(snap, tasks)

        snap_nodes = {n: dict(attrs) for n, attrs in snap.nodes.items()}
        snap_counts = [count_suitable(snap, t) for t in tasks]
        _replay(inv, reg, after[::-1])
        assert snap.nodes == snap_nodes
        assert [count_suitable(snap, t) for t in tasks] == snap_counts
        _assert_index_matches_spec(inv, tasks)

    @settings(max_examples=300, deadline=None)
    @given(events=_events_with_operands, tasks=_tasks)
    def test_operand_columns_in_the_shared_registry_keep_the_index_exact(self, events, tasks):
        # as in a run: encoding against the inventory's registry appends the
        # tasks' operand columns before and between the nodes' values
        inv = NodeInventory()
        for event in events:
            _replay(inv, inv.registry, [event])
            for task in tasks:
                encode_task(task, inv.registry)
            _assert_index_matches_spec(inv, tasks)

    def test_copy_grows_a_registry_of_its_own(self):
        inv = NodeInventory()
        apply_machine_event(inv, inv.registry, 0, "a", "1")
        snap = inv.copy()
        apply_machine_event(snap, snap.registry, 0, "a", "2")
        snap.registry.register("b", "x")
        assert inv.registry.columns == [("a", UNSET), ("a", "1")]
        assert count_suitable(inv, TaskConstraintSet(0, (Constraint("a", Op.EQ, ("1",)),))) == 1

    def test_node_without_attributes_reads_unset(self):
        # removing a node's last attribute keeps the node, now UNSET everywhere
        inv, reg = NodeInventory(), FeatureRegistry()
        apply_machine_event(inv, reg, 9, "AM", "1")
        apply_machine_event(inv, reg, 2, "AM", "2")
        apply_machine_event(inv, reg, 9, "AM", None)
        absent = TaskConstraintSet(0, (Constraint("AM", Op.ABSENT),))
        assert inv.nodes[9] == {}
        assert count_suitable(inv, TaskConstraintSet(1)) == 2
        assert suitable_nodes(inv, absent) == [9]

    def test_index_grows_past_initial_capacity(self):
        inv, reg = NodeInventory(), FeatureRegistry()
        for n in range(100, 0, -1):
            apply_machine_event(inv, reg, n, "AM", str(n % 7))
        apply_machine_event(inv, reg, 50, "BM", "x")
        task = TaskConstraintSet(0, (Constraint("AM", Op.EQ, ("3",)),))
        assert suitable_nodes(inv, task) == [n for n in range(1, 101) if n % 7 == 3]
        assert suitable_nodes(inv, TaskConstraintSet(1, (Constraint("BM", Op.PRESENT),))) == [50]
