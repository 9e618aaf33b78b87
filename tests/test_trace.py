import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import json_values

from covvsched.covv import Constraint, FeatureRegistry, Op, TaskConstraintSet, encode_task
from covvsched.oracle import (
    GroupingConfig,
    NodeInventory,
    apply_machine_event,
    count_suitable,
    group_label,
)
from covvsched.trace import (
    ConfigError,
    MachineEvent,
    SyntheticTraceConfig,
    TaskEvent,
    TraceFormatError,
    build_snapshot,
    generate_trace,
    load_snapshot,
    parse_events,
    save_snapshot,
    serialize_events,
)


class TestParseEvents:
    def test_valid_lines_parse_in_order(self):
        text = (
            '{"t":0,"kind":"machine","node":1,"attr":"AM","val":"5"}\n'
            '{"t":3,"kind":"task","id":7,"dur":100,"cons":[]}\n'
            '{"t":9,"kind":"machine","node":1,"attr":"AM","val":null}\n'
        )
        events = list(parse_events(text))
        assert [e.time for e in events] == [0, 3, 9]
        assert isinstance(events[0], MachineEvent) and events[0].value == "5"
        assert isinstance(events[1], TaskEvent) and events[1].task.task_id == 7
        assert events[2].value is None

    def test_constraints_decode(self):
        text = '{"t":0,"kind":"task","id":1,"dur":5,"cons":[{"attr":"AM","op":"GE","operands":["5"]}]}\n'
        (event,) = parse_events(text)
        assert event.task.constraints == (Constraint("AM", Op.GE, ("5",)),)

    def test_unknown_op_names_line_and_token(self):
        text = '{"t":0,"kind":"task","id":1,"dur":5,"cons":[{"attr":"A","op":"EQUALS","operands":["1"]}]}\n'
        with pytest.raises(TraceFormatError, match=r"line 1.*EQUALS"):
            list(parse_events(text))

    def test_malformed_json_names_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            list(parse_events('{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n{oops\n'))

    def test_time_regression_rejected(self):
        text = (
            '{"t":5,"kind":"task","id":1,"dur":5,"cons":[]}\n'
            '{"t":4,"kind":"task","id":2,"dur":5,"cons":[]}\n'
        )
        with pytest.raises(TraceFormatError, match="line 2"):
            list(parse_events(text))

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceFormatError, match="line 1.*pod"):
            list(parse_events('{"t":0,"kind":"pod"}\n'))

    @pytest.mark.parametrize("line", [
        '{"t":0,"kind":"machine","node":true,"attr":"AM","val":"5"}',
        '{"t":0,"kind":"task","id":false,"dur":5,"cons":[]}',
        '{"t":0,"kind":"task","id":1,"dur":true,"cons":[]}',
        '{"t":0,"kind":"task","id":1,"dur":-5,"cons":[]}',
        '{"t":true,"kind":"task","id":1,"dur":5,"cons":[]}',
    ])
    def test_bool_or_negative_integer_fields_name_line(self, line):
        text = '{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n' + line + "\n"
        with pytest.raises(TraceFormatError, match="line 2"):
            list(parse_events(text))

    def test_duplicate_task_id_names_line(self):
        text = (
            '{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n'
            '{"t":0,"kind":"task","id":2,"dur":5,"cons":[]}\n'
            '{"t":1,"kind":"task","id":1,"dur":5,"cons":[]}\n'
        )
        with pytest.raises(TraceFormatError, match="line 3: duplicate task id 1"):
            list(parse_events(text))

    @pytest.mark.parametrize("attr", ['5', '["a"]', '{"a":1}', 'null', 'true'])
    def test_non_string_constraint_attribute_names_line(self, attr):
        text = ('{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n'
                '{"t":0,"kind":"task","id":2,"dur":5,"cons":[{"attr":%s,"op":"PRESENT"}]}\n' % attr)
        with pytest.raises(TraceFormatError, match="line 2"):
            list(parse_events(text))

    def test_zero_duration_accepted(self):
        (event,) = parse_events('{"t":0,"kind":"task","id":1,"dur":0,"cons":[]}\n')
        assert event.duration == 0

    def test_round_trip_is_identity(self):
        cfg = SyntheticTraceConfig(node_count=5, attribute_count=2, values_per_attribute=3,
                                   task_count=50, span_us=10_000, seed=1)
        data = generate_trace(cfg)
        events = list(parse_events(data))
        assert serialize_events(events) == data


_VALID_CONSTRAINTS = (("EQ", ["1"]), ("IN", ["1", "2"]), ("PRESENT", []))


@st.composite
def _near_valid_events(draw):
    """A valid machine or task object with one or two fields, top-level or
    inside a constraint, replaced by an arbitrary JSON value."""
    attr = st.sampled_from(["a", "b"])
    if draw(st.booleans()):
        doc = {"t": draw(st.integers(0, 9)), "kind": "machine", "node": draw(st.integers(0, 9)),
               "attr": draw(attr), "val": draw(st.sampled_from(["1", None]))}
    else:
        cons = []
        for op, operands in draw(st.lists(st.sampled_from(_VALID_CONSTRAINTS), max_size=2)):
            cons.append({"attr": draw(attr), "op": op, "operands": list(operands)})
        doc = {"t": draw(st.integers(0, 9)), "kind": "task", "id": draw(st.integers(0, 9)),
               "dur": draw(st.integers(0, 9)), "cons": cons}
    fields = [(doc, key) for key in doc] + [(c, key) for c in doc.get("cons", []) for key in c]
    for target, key in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2)):
        target[key] = draw(json_values)
    return doc


class TestParseFuzz:
    @settings(max_examples=400, deadline=None)
    @given(docs=st.lists(st.one_of(json_values, _near_valid_events()), min_size=1, max_size=4))
    def test_rejects_with_trace_format_error_or_yields_typed_events(self, docs):
        text = "".join(json.dumps(doc) + "\n" for doc in docs)
        try:
            events = list(parse_events(text))
        except TraceFormatError:
            return
        for event in events:
            assert type(event.time) is int and event.time >= 0
            if isinstance(event, MachineEvent):
                assert type(event.node) is int
                assert isinstance(event.attribute, str)
                assert event.value is None or isinstance(event.value, str)
                continue
            assert isinstance(event, TaskEvent)
            assert type(event.task.task_id) is int
            assert type(event.duration) is int and event.duration >= 0
            hash(event.task.constraints)
            for c in event.task.constraints:
                assert isinstance(c.attribute, str) and c.attribute
                assert isinstance(c.op, Op)
                assert all(isinstance(o, str) for o in c.operands)


class TestGenerateTrace:
    def test_deterministic_bytes(self):
        cfg = SyntheticTraceConfig(node_count=10, attribute_count=3, values_per_attribute=4,
                                   task_count=200, seed=42)
        assert generate_trace(cfg) == generate_trace(cfg)

    def test_seed_changes_output(self):
        base = SyntheticTraceConfig(node_count=10, attribute_count=3, values_per_attribute=4,
                                    task_count=200, seed=42)
        other = SyntheticTraceConfig(node_count=10, attribute_count=3, values_per_attribute=4,
                                     task_count=200, seed=43)
        assert generate_trace(base) != generate_trace(other)

    def test_constrained_share_near_target(self):
        cfg = SyntheticTraceConfig(node_count=50, attribute_count=4, values_per_attribute=6,
                                   task_count=10_000, constrained_fraction=0.40, seed=9)
        events = list(parse_events(generate_trace(cfg)))
        tasks = [e for e in events if isinstance(e, TaskEvent)]
        share = sum(1 for t in tasks if t.task.constraints) / len(tasks)
        assert abs(share - 0.40) <= 0.02

    def test_restrictive_rate_yields_single_node_tasks(self):
        # expected 30 engineered group-0 tasks at 15 per 10,000 over 20,000,
        # confirmed by brute-force counting
        cfg = SyntheticTraceConfig(node_count=200, attribute_count=4, values_per_attribute=10,
                                   task_count=20_000, constrained_fraction=0.40,
                                   restrictive_rate=15, seed=10)
        events = list(parse_events(generate_trace(cfg)))
        inv, reg = NodeInventory(), FeatureRegistry()
        for e in events:
            if isinstance(e, MachineEvent):
                apply_machine_event(inv, reg, e.node, e.attribute, e.value)
        grouping = GroupingConfig()
        counts = {}
        group0 = 0
        for e in events:
            if not isinstance(e, TaskEvent):
                continue
            sig = e.task.constraints
            if sig not in counts:
                counts[sig] = count_suitable(inv, e.task)
            if group_label(counts[sig], grouping) == 0:
                group0 += 1
        assert abs(group0 - 30) <= 12

    def test_growth_injections_grow_features_exactly(self):
        cfg = SyntheticTraceConfig(node_count=10, attribute_count=3, values_per_attribute=4,
                                   task_count=20, span_us=10_000,
                                   growth_schedule=((2_000, 2), (5_000, 3)), seed=4)
        events = list(parse_events(generate_trace(cfg)))
        inv, reg = NodeInventory(), FeatureRegistry()
        sizes = {}
        for e in events:
            if isinstance(e, MachineEvent):
                apply_machine_event(inv, reg, e.node, e.attribute, e.value)
            sizes[e.time] = len(reg)
        bootstrap = sizes[0]
        assert sizes[2_000] == bootstrap + 2
        assert sizes[5_000] == bootstrap + 5

    def test_growth_step_larger_than_value_pool_rejected(self):
        with pytest.raises(ConfigError, match="values_per_attribute"):
            SyntheticTraceConfig(values_per_attribute=4, growth_schedule=((100, 5),))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticTraceConfig(constrained_fraction=1.5)

    def test_rate_above_constrained_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticTraceConfig(constrained_fraction=0.0, restrictive_rate=15)


def small_cluster():
    inv, reg = NodeInventory(), FeatureRegistry()
    for n in range(8):
        apply_machine_event(inv, reg, n, "uid", str(n))
        apply_machine_event(inv, reg, n, "color", "red" if n % 2 else "blue")
    return inv, reg


class TestBuildSnapshot:
    def test_empty_window(self):
        inv, reg = small_cluster()
        snap = build_snapshot([], reg, inv, GroupingConfig())
        assert len(snap) == 0
        assert snap.X.shape == (0, len(reg))

    def test_unconstrained_rows_are_zero_with_cell_label(self):
        inv, reg = small_cluster()
        tasks = [TaskConstraintSet(i) for i in range(5)]
        snap = build_snapshot(tasks, reg, inv, GroupingConfig(increment=3))
        assert not snap.X.any()
        assert (snap.y == group_label(8, GroupingConfig(increment=3))).all()

    def test_engineered_single_node_task_labels_zero(self):
        inv, reg = small_cluster()
        tasks = [TaskConstraintSet(0), TaskConstraintSet(1, (Constraint("uid", Op.EQ, ("3",)),))]
        snap = build_snapshot(tasks, reg, inv, GroupingConfig())
        assert (snap.y == 0).sum() == 1

    def test_unschedulable_rows_dropped_and_counted(self):
        inv, reg = small_cluster()
        impossible = TaskConstraintSet(1, (Constraint("color", Op.EQ, ("green",)),))
        snap = build_snapshot([TaskConstraintSet(0), impossible], reg, inv, GroupingConfig())
        assert len(snap) == 1
        assert snap.dropped_unschedulable == 1

    def test_rows_align_to_post_encoding_width(self):
        inv, reg = small_cluster()
        # second task registers a brand-new operand value mid-snapshot
        tasks = [
            TaskConstraintSet(0),
            TaskConstraintSet(1, (Constraint("color", Op.NE, ("purple",)),)),
        ]
        before = len(reg)
        snap = build_snapshot(tasks, reg, inv, GroupingConfig())
        assert snap.features_count == before + 1
        assert snap.X.shape[1] == snap.features_count


    def test_row_keeps_width_of_its_own_encoding(self):
        # an operand-only column registered mid-snapshot stays 0 in the rows
        # encoded before it, even for a signature encoded again after it
        inv, reg = NodeInventory(), FeatureRegistry()
        for n in range(6):
            apply_machine_event(inv, reg, n, "a0", str(n % 3))
        eq1 = (Constraint("a0", Op.EQ, ("1",)),)
        tasks = [TaskConstraintSet(0, eq1),
                 TaskConstraintSet(1, (Constraint("a0", Op.NE, ("97",)),)),
                 TaskConstraintSet(2, eq1)]
        snap = build_snapshot(tasks, reg, inv, GroupingConfig(increment=3))
        assert snap.X.tolist() == [[1, 1, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 0, 1, 1]]
        assert snap.y.tolist() == [1, 2, 1]
        assert encode_task(tasks[0], reg).tolist() == [1, 1, 0, 1, 1]


class TestSnapshotLabelFidelity:
    def test_labels_match_independent_relabeling(self):
        from test_oracle import independent_label

        cfg = SyntheticTraceConfig(node_count=60, attribute_count=4, values_per_attribute=6,
                                   task_count=300, constrained_fraction=0.5,
                                   restrictive_rate=100, seed=14)
        events = list(parse_events(generate_trace(cfg)))
        inv, reg = NodeInventory(), FeatureRegistry()
        for e in events:
            if isinstance(e, MachineEvent):
                apply_machine_event(inv, reg, e.node, e.attribute, e.value)
        tasks = [e.task for e in events if isinstance(e, TaskEvent)]
        grouping = GroupingConfig(increment=20)
        snap = build_snapshot(tasks, reg, inv, grouping)
        expected = [independent_label(inv.nodes, t, grouping.increment) for t in tasks]
        kept = [label for label in expected if label != -1]
        assert snap.y.tolist() == kept
        assert snap.dropped_unschedulable == len(expected) - len(kept)


class TestSnapshotFiles:
    def test_npz_round_trip(self, tmp_path):
        inv, reg = small_cluster()
        tasks = [TaskConstraintSet(0), TaskConstraintSet(1, (Constraint("uid", Op.EQ, ("3",)),))]
        snap = build_snapshot(tasks, reg, inv, GroupingConfig(), step_time=77)
        path = tmp_path / "snap.npz"
        save_snapshot(snap, path)
        back = load_snapshot(path)
        assert np.array_equal(back.X, snap.X)
        assert np.array_equal(back.y, snap.y)
        assert back.features_count == snap.features_count
        assert back.step_time == 77

    def test_file_with_features_count_array_loads(self, tmp_path):
        # files written before the width became a property of X carry it as an array
        path = tmp_path / "old.npz"
        np.savez(path, X=np.ones((3, 4), dtype=np.uint8), y=np.zeros(3, dtype=np.int64),
                 features_count=np.int64(4), step_time=np.int64(5),
                 dropped_unschedulable=np.int64(1))
        back = load_snapshot(path)
        assert back.features_count == 4
        assert len(back) == 3
        assert back.step_time == 5

    def test_missing_array_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, X=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            load_snapshot(path)
