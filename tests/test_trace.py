import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import json_values
from trace_reference import reference_generate_events

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
    generate_events,
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
        with pytest.raises(TraceFormatError) as err:
            list(parse_events('{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n{oops\n'))
        assert str(err.value) == ("line 2: invalid JSON: Expecting property name enclosed in "
                                  "double quotes: line 1 column 2 (char 1)")

    @pytest.mark.parametrize("line, message", [
        ('{"t":0,"kind":"task","id":2,"dur":5,"cons":[]} x',
         "invalid JSON: Extra data: line 1 column 48 (char 47)"),
        ('{"t":0,"kind":"task","id":2,"dur":5,"cons":[]}{}',
         "invalid JSON: Extra data: line 1 column 47 (char 46)"),
        ("nul", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"t":0,"kind":"task","id":2,"dur":5,"cons":["x}', "invalid JSON: Unterminated string "
         "starting at: line 1 column 45 (char 44)"),
        ("[1,2]", "event must be an object"),
        ('"x"', "event must be an object"),
        ('{"kind":"task"}', "missing key 't'"),
        ('{"t":0,"kind":"task","dur":5,"cons":[]}', "missing key 'id'"),
        ('{"t":1.5,"kind":"task","id":2,"dur":5,"cons":[]}', "key 't' has wrong type float"),
        ('{"t":0,"kind":5}', "key 'kind' has wrong type int"),
        ('{"t":0,"kind":"task","id":2,"dur":5,"cons":{}}', "key 'cons' has wrong type dict"),
        ('{"t":0,"kind":"machine","node":1,"attr":"a","val":5}', "key 'val' must be a string or null"),
        ('{"t":-1,"kind":"task","id":2,"dur":5,"cons":[]}', "time must be a non-negative integer"),
    ])
    def test_malformed_line_message(self, line, message):
        text = '{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n' + line + "\n"
        with pytest.raises(TraceFormatError) as err:
            list(parse_events(text))
        assert str(err.value) == "line 2: " + message

    def test_deeply_nested_json_names_line(self):
        text = ('{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n'
                + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(TraceFormatError, match="^line 2: invalid JSON: "):
            list(parse_events(text))

    def test_time_regression_rejected(self):
        text = (
            '{"t":5,"kind":"task","id":1,"dur":5,"cons":[]}\n'
            '{"t":4,"kind":"task","id":2,"dur":5,"cons":[]}\n'
        )
        with pytest.raises(TraceFormatError) as err:
            list(parse_events(text))
        assert str(err.value) == "line 2: time regression 4 < 5"

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceFormatError) as err:
            list(parse_events('{"t":0,"kind":"pod"}\n'))
        assert str(err.value) == "line 1: unknown event kind 'pod'"

    _BOOL_OR_NEGATIVE = {
        '{"t":0,"kind":"machine","node":true,"attr":"AM","val":"5"}': "key 'node' has wrong type bool",
        '{"t":0,"kind":"task","id":false,"dur":5,"cons":[]}': "key 'id' has wrong type bool",
        '{"t":0,"kind":"task","id":1,"dur":true,"cons":[]}': "key 'dur' has wrong type bool",
        '{"t":0,"kind":"task","id":1,"dur":-5,"cons":[]}': "duration must be a non-negative integer",
        '{"t":true,"kind":"task","id":1,"dur":5,"cons":[]}': "key 't' has wrong type bool",
    }

    @pytest.mark.parametrize("line", list(_BOOL_OR_NEGATIVE))
    def test_bool_or_negative_integer_fields_name_line(self, line):
        # id 0 on the first line, so a line with id 1 fails on its own field
        text = '{"t":0,"kind":"task","id":0,"dur":5,"cons":[]}\n' + line + "\n"
        with pytest.raises(TraceFormatError) as err:
            list(parse_events(text))
        assert str(err.value) == "line 2: " + self._BOOL_OR_NEGATIVE[line]

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

    def test_whitespace_in_constraint_attribute_names_line(self):
        text = ('{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\n'
                '{"t":0,"kind":"task","id":2,"dur":5,"cons":[{"attr":"a b","op":"PRESENT"}]}\n')
        with pytest.raises(TraceFormatError, match="line 2: .*non-empty token"):
            list(parse_events(text))

    @pytest.mark.parametrize("line", [
        '{"t":1,"kind":"task","id":1,"dur":5,"cons":[{"attr":"a","op":"LE","operands":["%s"]}]}',
        '{"t":1,"kind":"machine","node":1,"attr":"a","val":"%s"}',
    ], ids=["operand", "machine-value"])
    def test_decimal_too_long_for_int_names_line(self, line):
        text = '{"t":0,"kind":"machine","node":0,"attr":"a","val":"1"}\n' + line % ("9" * 5000)
        with pytest.raises(TraceFormatError, match="line 2: .*too long"):
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

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_line_separator_inside_a_string_is_data(self, separator):
        # str.splitlines ends a line at each of these, but JSON allows them
        # unescaped inside a string; only "\n" ends a trace line
        raw = '{"t":0,"kind":"machine","node":1,"attr":"zone","val":"eu%swest"}\n' % separator
        escaped = '{"t":0,"kind":"machine","node":1,"attr":"zone","val":"eu\\u%04xwest"}\n' % ord(separator)
        (event,) = parse_events(raw)
        assert event.value == "eu" + separator + "west"
        assert list(parse_events(escaped)) == [event]
        assert list(parse_events(raw.encode("utf-8"))) == [event]

    def test_crlf_lines_parse(self):
        text = ('{"t":0,"kind":"task","id":1,"dur":5,"cons":[]}\r\n'
                '{"t":1,"kind":"task","id":2,"dur":5,"cons":[]}\r\n')
        assert [e.task.task_id for e in parse_events(text)] == [1, 2]


# every character class the writer must escape: quotes, backslashes, control
# characters, non-ASCII text, astral characters and lone surrogates
_TRICKY = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\r", "\x85", "\u2028",
                           "\xe9", "\u6f22", "\U0001f600", "\ud800", "\udfff", " "])
_TEXT = st.text(st.one_of(st.characters(), _TRICKY), max_size=8)
_TOKEN = st.text(st.one_of(st.characters(), _TRICKY), min_size=1, max_size=8).filter(
    lambda s: s.split() == [s])
_INTS = st.integers(-2**70, 2**70)


@st.composite
def _constraints(draw):
    op = draw(st.sampled_from(list(Op)))
    if op in (Op.PRESENT, Op.ABSENT):
        operands = ()
    elif op in (Op.IN, Op.NOT_IN):
        operands = tuple(draw(st.lists(_TEXT, min_size=1, max_size=3)))
    else:
        operands = (draw(_TEXT),)
    return Constraint(draw(_TOKEN), op, operands)


@st.composite
def _any_events(draw, ints=_INTS):
    """Machine and task events over arbitrary text, valid or not as a trace."""
    events = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            events.append(MachineEvent(draw(ints), draw(ints), draw(_TEXT),
                                       draw(st.one_of(st.none(), _TEXT))))
        else:
            constraints = tuple(draw(st.lists(_constraints(), max_size=3)))
            events.append(TaskEvent(draw(ints), TaskConstraintSet(draw(ints), constraints), draw(ints)))
    return events


def _reference_bytes(events) -> bytes:
    """The trace as `json.dumps` writes it: compact, keys in this order, ASCII."""
    docs = []
    for e in events:
        if isinstance(e, MachineEvent):
            docs.append({"t": e.time, "kind": "machine", "node": e.node,
                         "attr": e.attribute, "val": e.value})
        else:
            docs.append({"t": e.time, "kind": "task", "id": e.task.task_id, "dur": e.duration,
                         "cons": [{"attr": c.attribute, "op": c.op.value, "operands": list(c.operands)}
                                  for c in e.task.constraints]})
    return "".join(json.dumps(d, separators=(",", ":")) + "\n" for d in docs).encode()


_EVERY_OP = tuple(Constraint("a", op, () if op in (Op.PRESENT, Op.ABSENT) else ("1",)) for op in Op)


class TestSerializeEvents:
    @settings(max_examples=300, deadline=None)
    @given(events=_any_events())
    @example(events=[TaskEvent(0, TaskConstraintSet(0, _EVERY_OP), 3),
                     TaskEvent(0, TaskConstraintSet(1, ()), 0), MachineEvent(1, 2, "a", None)])
    def test_bytes_equal_json_dumps(self, events):
        assert serialize_events(events) == _reference_bytes(events)

    @settings(max_examples=150, deadline=None)
    @given(events=_any_events(ints=st.integers(0, 2**40)))
    @example(events=[MachineEvent(0, 0, "\ud800\udfff", None)])
    def test_parse_inverts_serialize(self, events):
        # times non-decreasing and task ids unique, so the bytes are a valid trace
        events = [MachineEvent(i, e.node, e.attribute, e.value) if isinstance(e, MachineEvent)
                  else TaskEvent(i, TaskConstraintSet(i, e.task.constraints), e.duration)
                  for i, e in enumerate(events)]
        data = serialize_events(events)
        assert data.isascii()
        # bytes, not events: JSON reads the escapes of a lone high and a lone
        # low surrogate written in a row as one astral character
        assert serialize_events(parse_events(data)) == data


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


@st.composite
def _small_trace_configs(draw):
    values = draw(st.integers(1, 5))
    constrained = draw(st.floats(0.0, 1.0))
    growth = draw(st.lists(st.tuples(st.integers(0, 3_000), st.integers(1, values)), max_size=3))
    return SyntheticTraceConfig(
        node_count=draw(st.integers(1, 12)), attribute_count=draw(st.integers(1, 3)),
        values_per_attribute=values, task_count=draw(st.integers(1, 40)),
        constrained_fraction=constrained,
        # 9,999 keeps the rate inside the fraction despite float rounding
        restrictive_rate=draw(st.floats(0.0, 9_999.0 * constrained)),
        growth_schedule=tuple(growth), duration_mean_us=draw(st.integers(1, 5_000)),
        span_us=draw(st.integers(1, 3_000)), seed=draw(st.integers(0, 2**32 - 1)))


_DESK_CELL = dict(node_count=200, attribute_count=8, values_per_attribute=10,
                  duration_mean_us=2_000_000)

#: The benchmark's two workload traces at their first instance seeds, and the
#: acceptance desk run's trace at seed 11.
_GOLDEN_CONFIGS = {
    "desk-simulate": SyntheticTraceConfig(
        **_DESK_CELL, task_count=800, constrained_fraction=0.4, restrictive_rate=200,
        span_us=800_000, growth_schedule=tuple((133_333 * (i + 1), 3) for i in range(5)),
        seed=11_000),
    "sched-backlog": SyntheticTraceConfig(
        **dict(_DESK_CELL, node_count=40), task_count=600, constrained_fraction=0.4,
        restrictive_rate=200, span_us=600_000, growth_schedule=((200_000, 3), (400_000, 3)),
        seed=31_000),
    "acceptance-desk": SyntheticTraceConfig(
        **_DESK_CELL, task_count=42_000, constrained_fraction=0.4, restrictive_rate=15,
        span_us=44_000_000, growth_schedule=tuple((2_000_000 * (i + 1), 3) for i in range(20)),
        seed=11),
}


class TestGoldenTrace:
    # recorded from the writer that built a dict per event and ran json.dumps
    # on it, and from the operator draw through Generator.choice(p=...)
    DIGESTS = {
        "desk-simulate": "95e870a5f83531fc5b69ef8cc8fa37793cfd58210c529a412c7ad644917629c3",
        "sched-backlog": "8a0aaa0244b952c9349d14ff7eaee27b18946289519cb59a915d826b0f1d240a",
        "acceptance-desk": "86dd6c6419d2d1aa60e1547340a64f2c7492eea8d9d9fe3f21e5422c479e02c0",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_trace_bytes_unchanged(self, name):
        assert hashlib.sha256(generate_trace(_GOLDEN_CONFIGS[name])).hexdigest() == self.DIGESTS[name]


class TestGenerateTrace:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_small_trace_configs())
    def test_events_equal_their_parsed_trace(self, cfg):
        events = generate_events(cfg)
        assert list(parse_events(generate_trace(cfg))) == events
        # equality would let a numpy integer pass for an int
        assert all(type(e.time) is int for e in events)

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
        events = generate_events(cfg)
        tasks = [e for e in events if isinstance(e, TaskEvent)]
        share = sum(1 for t in tasks if t.task.constraints) / len(tasks)
        assert abs(share - 0.40) <= 0.02

    def test_restrictive_rate_yields_single_node_tasks(self):
        # expected 30 engineered group-0 tasks at 15 per 10,000 over 20,000,
        # confirmed by brute-force counting
        cfg = SyntheticTraceConfig(node_count=200, attribute_count=4, values_per_attribute=10,
                                   task_count=20_000, constrained_fraction=0.40,
                                   restrictive_rate=15, seed=10)
        events = generate_events(cfg)
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
        events = generate_events(cfg)
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

    @pytest.mark.parametrize("entry", [
        (2_500_000.7, 3), (1, 2.9), (True, 1), ("5", "2"), (1, 2, 3), 7,
    ], ids=["float-time", "float-count", "bool", "str", "triple", "not-a-pair"])
    def test_growth_entry_not_an_integer_pair_rejected(self, entry):
        with pytest.raises(ConfigError, match="growth_schedule"):
            SyntheticTraceConfig(growth_schedule=(entry,))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticTraceConfig(constrained_fraction=1.5)

    def test_rate_above_constrained_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticTraceConfig(constrained_fraction=0.0, restrictive_rate=15)

    def test_growth_at_a_submission_time_applies_first(self):
        # span_us=1 puts every task at t=1, the time of the injection
        cfg = SyntheticTraceConfig(node_count=3, attribute_count=2, values_per_attribute=2,
                                   task_count=20, span_us=1, growth_schedule=((1, 2),), seed=5)
        kinds = [type(e) for e in generate_events(cfg) if e.time == 1]
        assert kinds == [MachineEvent] * 2 + [TaskEvent] * 20


class TestReferenceGenerator:
    @settings(max_examples=150, deadline=None)
    @given(cfg=_small_trace_configs())
    @example(cfg=SyntheticTraceConfig(node_count=9, attribute_count=3, values_per_attribute=4,
                                      task_count=30, span_us=5_000,
                                      growth_schedule=((4_000, 2), (0, 4), (4_000, 3), (1_000, 1)),
                                      seed=8))
    @example(cfg=SyntheticTraceConfig(node_count=7, attribute_count=2, values_per_attribute=3,
                                      task_count=25, span_us=5 * 10**9,
                                      growth_schedule=((2**32 + 1, 2),), seed=9))
    @example(cfg=SyntheticTraceConfig(node_count=5, attribute_count=2, values_per_attribute=3,
                                      task_count=25, seed=10))
    def test_events_equal_the_scalar_reference(self, cfg):
        assert generate_events(cfg) == reference_generate_events(cfg)

    @pytest.mark.parametrize("bound", [1, 10, 40, 200, 9_400, 2**32 - 1, 2**32 + 5])
    def test_vector_draw_reads_the_stream_as_scalar_draws(self, bound):
        # the numpy property the batched draws rest on: a bounded draw of
        # size n consumes the stream as n scalar draws do, to the same state
        scalar, vector = np.random.default_rng(7), np.random.default_rng(7)
        # a 32-bit draw first, so a buffered half of the 64-bit output is in use
        scalar.integers(0, 10), vector.integers(0, 10)
        values = [int(scalar.integers(0, bound)) for _ in range(1_601)]
        assert vector.integers(0, bound, size=1_601).tolist() == values
        assert vector.bit_generator.state == scalar.bit_generator.state
        vector.integers(0, bound, size=0)
        assert vector.bit_generator.state == scalar.bit_generator.state
        assert vector.random() == scalar.random()


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
        events = generate_events(cfg)
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

    @pytest.mark.parametrize("X, y, message", [
        (np.zeros((2, 3)), np.zeros((2, 1)), "y is 2-dimensional"),
        (np.zeros((2, 3)), np.array([0, -1]), "label -1 outside 0..25"),
        (np.zeros((2, 3)), np.array([26, 0]), "label 26 outside 0..25"),
        (np.zeros((2, 3)), np.array([0.0, 1.5]), "label 1.5 outside"),
        (np.array([[0, 256, 1]] * 2), np.zeros(2), "X holds 256"),
        (np.array([[0, 1, 0.5]] * 2), np.zeros(2), "X holds 0.5"),
        (np.array([[0, 1, np.nan]] * 2), np.zeros(2), "X holds nan"),
    ], ids=["y-2d", "label-minus-one", "label-26", "label-fraction",
            "x-256", "x-fraction", "x-nan"])
    def test_malformed_arrays_rejected(self, tmp_path, X, y, message):
        # casting would turn each of these into a valid-looking row or label
        path = tmp_path / "bad.npz"
        np.savez(path, X=X, y=y, step_time=np.int64(0), dropped_unschedulable=np.int64(0))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
            load_snapshot(path)

    def test_non_scalar_step_time_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, X=np.zeros((2, 3)), y=np.zeros(2), step_time=np.array([1, 2]),
                 dropped_unschedulable=np.int64(0))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_snapshot(path)

    def test_float_zero_one_arrays_load(self, tmp_path):
        path = tmp_path / "float.npz"
        np.savez(path, X=np.array([[0.0, 1.0]]), y=np.array([25.0]),
                 step_time=np.int64(0), dropped_unschedulable=np.int64(0))
        back = load_snapshot(path)
        assert back.X.dtype == np.uint8 and back.X.tolist() == [[0, 1]]
        assert back.y.dtype == np.int64 and back.y.tolist() == [25]
