import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covvsched import covv
from covvsched.covv import (
    UNSET,
    Constraint,
    FeatureRegistry,
    Op,
    TaskConstraintSet,
    _canonical,
    _judge,
    compare_values,
    constraint_from_json,
    encode_constraint,
    encode_task,
    value_satisfies,
)
from covvsched.trace import TaskEvent, parse_events, serialize_events


def am_registry(values=range(10)):
    reg = FeatureRegistry()
    for v in values:
        reg.register("AM", str(v))
    return reg


class TestRegistry:
    def test_first_insert_creates_unset_column(self):
        reg = FeatureRegistry()
        idx = reg.register("AM", "5")
        assert idx == 1
        assert reg.columns == [("AM", UNSET), ("AM", "5")]

    def test_register_is_idempotent(self):
        reg = FeatureRegistry()
        reg.register("AM", "5")
        assert reg.register("AM", "5") == 1
        assert len(reg) == 2

    def test_new_value_appends_at_end(self):
        # one appended column grows the array by exactly one
        reg = FeatureRegistry()
        for i in range(16_049):
            reg.register(f"k{i // 100}", str(i))
        assert len(reg) == 16_049 + 161  # plus one UNSET column per attribute
        start = len(reg)
        assert reg.register("k0", "brand-new") == start
        assert len(reg) == start + 1

    def test_registering_unset_only_creates_attribute(self):
        reg = FeatureRegistry()
        assert reg.register("B") == 0
        assert reg.register("B") == 0
        assert reg.columns == [("B", UNSET)]

    def test_positions_never_move(self):
        reg = FeatureRegistry()
        rng = np.random.default_rng(7)
        seen = {}
        for _ in range(300):
            attr = f"a{rng.integers(0, 5)}"
            val = str(rng.integers(0, 20))
            idx = reg.register(attr, val)
            if (attr, val) in seen:
                assert seen[(attr, val)] == idx
            seen[(attr, val)] = idx
        for (attr, val), idx in seen.items():
            assert reg.column(idx) == (attr, val)

    def test_copy_is_independent(self):
        reg = am_registry()
        snap = reg.copy()
        reg.register("AM", "99")
        assert len(snap) == 11
        assert len(reg) == 12


class TestCompareValues:
    def test_numeric_when_both_parse(self):
        assert compare_values("10", "9") > 0
        assert compare_values("-3", "2") < 0
        assert compare_values("05", "5") == 0

    def test_lexicographic_otherwise(self):
        assert compare_values("a10", "a9") < 0
        assert compare_values("b", "a") > 0
        assert compare_values("10", "x") < 0

    def test_decimal_must_be_the_whole_string(self):
        # a trailing newline is no more decimal than a leading or trailing space
        assert compare_values("5\n", "5") > 0
        assert compare_values("10\n", "9") < 0
        assert compare_values("5 ", "5") > 0
        assert compare_values(" 5", "5") < 0

    def test_signs_and_leading_zeros(self):
        assert compare_values("+1", "01") == 0
        assert compare_values("-0", "0") == 0
        assert compare_values("-10", "-9") < 0


_POOL = ("1", "01", "+1", "-0", "0", "-1", "9", "10", "1234567890123456789012345",
         "5", "5\n", " 5", "\u0665", "\uff11", "a1", "1a", "x", "", "+", "-")
_pool_values = st.one_of(st.sampled_from(_POOL), st.text(alphabet="+-0159ax ", max_size=4))


@st.composite
def _any_constraint(draw):
    op = draw(st.sampled_from(list(Op)))
    if op in (Op.PRESENT, Op.ABSENT):
        size = 0
    elif op in (Op.IN, Op.NOT_IN):
        size = draw(st.integers(1, 4))
    else:
        size = 1
    operands = draw(st.lists(_pool_values, min_size=size, max_size=size))
    return Constraint("a", op, tuple(operands))


class TestBatchJudge:
    @settings(max_examples=400, deadline=None)
    @given(constraint=_any_constraint(),
           values=st.lists(st.one_of(_pool_values, st.just(UNSET)), max_size=12))
    def test_matches_value_satisfies(self, constraint, values):
        forms = [_canonical(v) for v in values]
        assert _judge(constraint, values, forms) == [value_satisfies(constraint, v) for v in values]

    def test_canonical_forms(self):
        assert _canonical("007") == 7
        assert _canonical("-0") == 0
        assert _canonical("5\n") == "5\n"
        assert _canonical("\u0665") == "\u0665"  # a non-ASCII digit stays a string
        assert _canonical(UNSET) is UNSET


class TestValueSatisfies:
    def test_ge_row_semantics(self):
        c = Constraint("AM", Op.GE, ("5",))
        assert value_satisfies(c, "7")
        assert not value_satisfies(c, "3")
        assert not value_satisfies(c, UNSET)

    def test_unset_satisfies_only_negative_forms(self):
        assert value_satisfies(Constraint("AM", Op.NE, ("0",)), UNSET)
        assert value_satisfies(Constraint("AM", Op.NOT_IN, ("0", "1")), UNSET)
        assert value_satisfies(Constraint("AM", Op.ABSENT), UNSET)
        for op in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE):
            assert not value_satisfies(Constraint("AM", op, ("1",)), UNSET)
        assert not value_satisfies(Constraint("AM", Op.IN, ("1",)), UNSET)
        assert not value_satisfies(Constraint("AM", Op.PRESENT), UNSET)

    def test_strict_bound_excludes_operand(self):
        assert not value_satisfies(Constraint("AM", Op.GT, ("0",)), "0")
        assert value_satisfies(Constraint("AM", Op.GT, ("0",)), "1")

    def test_membership(self):
        c = Constraint("AM", Op.IN, ("2", "4"))
        assert value_satisfies(c, "4")
        assert not value_satisfies(c, "3")
        assert value_satisfies(Constraint("AM", Op.NOT_IN, ("2", "4")), "3")

    def test_presence(self):
        assert value_satisfies(Constraint("AM", Op.PRESENT), "0")
        assert not value_satisfies(Constraint("AM", Op.ABSENT), "0")


class TestConstraintValidation:
    def test_comparison_arity(self):
        with pytest.raises(ValueError):
            Constraint("AM", Op.GE, ())
        with pytest.raises(ValueError):
            Constraint("AM", Op.EQ, ("1", "2"))

    def test_set_arity(self):
        with pytest.raises(ValueError):
            Constraint("AM", Op.IN, ())

    def test_presence_takes_no_operand(self):
        with pytest.raises(ValueError):
            Constraint("AM", Op.PRESENT, ("1",))

    def test_operand_too_long_for_int(self):
        with pytest.raises(ValueError, match="too long"):
            Constraint("AM", Op.LE, ("9" * 5000,))
        with pytest.raises(ValueError, match="too long"):
            Constraint("AM", Op.IN, ("1", "-" + "9" * 5000))
        Constraint("AM", Op.LE, ("x" * 5000,))  # a long string is no decimal

    @pytest.mark.parametrize("attribute", ["", "A M", " a", "a b", "a\u3000b", "a ", "a\tb", "\x85"])
    def test_attribute_token(self, attribute):
        with pytest.raises(ValueError, match="non-empty token"):
            Constraint(attribute, Op.PRESENT)

    @pytest.mark.parametrize("attribute", [5, ["a"], None, ("a",)])
    def test_attribute_must_be_a_string(self, attribute):
        with pytest.raises(ValueError, match="must be a string"):
            Constraint(attribute, Op.PRESENT)


class TestConstraintHash:
    def test_equal_constraints_built_apart_find_each_other(self):
        a = (Constraint("AM", Op.IN, ("1", "2")), Constraint("B", Op.PRESENT))
        b = (Constraint("AM", Op.IN, ["1", "2"]), Constraint("B", Op.PRESENT, ()))
        assert a == b and a[0] is not b[0]
        assert hash(a) == hash(b)
        assert {a: "row"}[b] == "row"
        assert {b[0]: 1}[a[0]] == 1

    def test_unequal_constraints_are_different_keys(self):
        keys = {Constraint("AM", Op.LE, ("1",)), Constraint("AM", Op.LT, ("1",)),
                Constraint("AM", Op.LE, ("01",)), Constraint("AN", Op.LE, ("1",))}
        assert len(keys) == 4

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_hash_and_compare_equal(self, clone):
        signature = (Constraint("AM", Op.NOT_IN, ("1", "x")), Constraint("B", Op.GE, ("3",)))
        copied = tuple(clone(c) for c in signature)
        assert copied == signature
        assert hash(copied) == hash(signature)
        assert {signature: 1}[copied] == 1
        assert {copied: 1}[signature] == 1

    def test_pickle_rebuilds_through_the_constructor(self):
        data = pickle.dumps(Constraint("AM", Op.EQ, ("1",)))
        assert b"_hash" not in data and b"_forms" not in data


class TestEncodeConstraint:
    def test_ge_five(self):
        reg = am_registry()
        bits = encode_constraint(Constraint("AM", Op.GE, ("5",)), reg)
        assert bits.tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]

    def test_gt_zero(self):
        reg = am_registry()
        bits = encode_constraint(Constraint("AM", Op.GT, ("0",)), reg)
        assert bits.tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_other_attributes_stay_zero(self):
        reg = am_registry()
        bits = encode_constraint(Constraint("B", Op.EQ, ("x",)), reg)
        # all AM columns acceptable; only B's UNSET column rejects
        assert bits[:11].tolist() == [0] * 11
        assert bits[reg.index_of("B", UNSET)] == 1
        assert bits[reg.index_of("B", "x")] == 0

    def test_presence_encodings(self):
        reg = am_registry(range(3))
        present = encode_constraint(Constraint("AM", Op.PRESENT), reg)
        absent = encode_constraint(Constraint("AM", Op.ABSENT), reg)
        assert present.tolist() == [1, 0, 0, 0]  # only the UNSET column fails
        assert absent.tolist() == [0, 1, 1, 1]

    def test_encoding_registers_operands(self):
        reg = am_registry()
        n = len(reg)
        encode_constraint(Constraint("AM", Op.EQ, ("25",)), reg)
        assert len(reg) == n + 1
        assert reg.index_of("AM", "25") == n

    def test_read_only_encoding_leaves_registry_alone(self):
        reg = am_registry()
        n = len(reg)
        bits = encode_constraint(Constraint("B", Op.EQ, ("x",)), reg, register=False)
        assert len(reg) == n
        assert bits.tolist() == [0] * n


class TestEncodeTask:
    def test_conjunction_renders_one_vector(self):
        reg = am_registry()
        task = TaskConstraintSet(1, (
            Constraint("AM", Op.GT, ("0",)),
            Constraint("AM", Op.LT, ("3",)),
        ))
        assert encode_task(task, reg).tolist() == [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1]

    def test_empty_set_is_all_zero(self):
        reg = am_registry()
        assert encode_task(TaskConstraintSet(1), reg).tolist() == [0] * 11

    def test_single_constraint_equals_encode_constraint(self):
        reg = am_registry()
        c = Constraint("AM", Op.LE, ("4",))
        task = TaskConstraintSet(1, (c,))
        assert np.array_equal(encode_task(task, reg), encode_constraint(c, reg))

    def test_or_composition_is_order_independent(self):
        rng = np.random.default_rng(5)
        ops = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)
        for _ in range(50):
            constraints = tuple(
                Constraint(f"a{rng.integers(0, 3)}", ops[rng.integers(0, len(ops))],
                           (str(rng.integers(0, 8)),))
                for _ in range(rng.integers(1, 5))
            )
            reg1, reg2 = FeatureRegistry(), FeatureRegistry()
            for v in range(8):
                for a in range(3):
                    reg1.register(f"a{a}", str(v))
                    reg2.register(f"a{a}", str(v))
            forward_order = encode_task(TaskConstraintSet(0, constraints), reg1)
            reversed_order = encode_task(TaskConstraintSet(0, constraints[::-1]), reg2)
            assert np.array_equal(forward_order, reversed_order)
            folded = np.zeros(len(reg1), dtype=np.uint8)
            for c in constraints:
                folded |= encode_constraint(c, reg1, register=False)
            assert np.array_equal(forward_order, folded)

    def test_contradiction_marks_every_column(self):
        reg = am_registry()
        task = TaskConstraintSet(1, (
            Constraint("AM", Op.GT, ("3",)),
            Constraint("AM", Op.LT, ("2",)),
        ))
        assert encode_task(task, reg).tolist() == [1] * 11


class TestAppendOnlyStability:
    def test_old_columns_unchanged_after_growth(self):
        reg = am_registry()
        c = Constraint("AM", Op.GE, ("5",))
        before = encode_constraint(c, reg)
        for v in ("10", "11", "12"):
            reg.register("AM", v)
        reg.register("B", "x")
        after = encode_constraint(c, reg)
        assert np.array_equal(after[: len(before)], before)
        # the new AM values are concrete numbers failing GE 5? 10,11,12 pass
        assert after[reg.index_of("AM", "10")] == 0


_ATTRS = ("a", "b", "c")
_VALUES = ("0", "1", "2", "01", "+2", "x")


@st.composite
def _constraints(draw):
    op = draw(st.sampled_from(list(Op)))
    if op in (Op.PRESENT, Op.ABSENT):
        size = 0
    elif op in (Op.IN, Op.NOT_IN):
        size = draw(st.integers(1, 3))
    else:
        size = 1
    operands = draw(st.lists(st.sampled_from(_VALUES), min_size=size, max_size=size))
    return Constraint(draw(st.sampled_from(_ATTRS)), op, tuple(operands))


_signatures = st.lists(_constraints(), max_size=3).map(tuple)
_steps = st.lists(st.one_of(
    st.tuples(st.just("machine"), st.integers(0, 1), st.sampled_from(_ATTRS), st.sampled_from(_VALUES)),
    st.tuples(st.just("attribute"), st.integers(0, 1), st.sampled_from(_ATTRS)),
    st.tuples(st.just("encode"), st.integers(0, 1), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("copy"),),
), max_size=40)


def spec_encoding(constraints, registry):
    """The OR of fresh per-constraint encodings against a frozen copy."""
    frozen = registry.copy()
    bits = np.zeros(len(frozen), dtype=np.uint8)
    for c in constraints:
        bits |= encode_constraint(c, frozen, register=False)
    return bits


def spec_verdict(constraint, registry):
    """`value_satisfies` over the constraint attribute's columns, in column order."""
    return [value_satisfies(constraint, registry.column(i)[1])
            for i in registry.indices_for(constraint.attribute)]


class TestEncodingCache:
    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(_signatures, min_size=4, max_size=4), steps=_steps)
    def test_cached_rows_match_fresh_encodings(self, pool, steps):
        # machine values, operand-only values and new attributes interleave
        # with encodings; a copy forks off and then grows on its own
        registries = [FeatureRegistry()]
        returned = []
        for step in steps:
            if step[0] == "copy":
                registries[1:] = [registries[0].copy()]
                continue
            reg = registries[step[1] % len(registries)]
            if step[0] == "machine":
                reg.register(step[2], step[3])
            elif step[0] == "attribute":
                reg.register(step[2])
            else:
                task = TaskConstraintSet(0, pool[step[2]])
                bits = encode_task(task, reg, register=step[3])
                assert bits.tolist() == spec_encoding(task.constraints, reg).tolist()
                assert not bits.flags.writeable
                returned.append((bits, bits.tobytes()))
            for reg in registries:
                for c in {c for signature in pool for c in signature}:
                    assert reg._verdict(c).tolist() == spec_verdict(c, reg)
        for bits, original in returned:
            assert bits.tobytes() == original

    def test_copy_starts_with_its_own_cache(self):
        reg = am_registry(range(3))
        task = TaskConstraintSet(0, (Constraint("AM", Op.EQ, ("1",)),))
        before = encode_task(task, reg)
        snap = reg.copy()
        snap.register("B", "x")  # the copy's next column is not an AM value
        reg.register("AM", "7")
        assert encode_task(task, snap).tolist() == [1, 1, 0, 1, 0, 0]
        assert encode_task(task, reg).tolist() == [1, 1, 0, 1, 1]
        assert before.tolist() == [1, 1, 0, 1]

    def test_copy_reuses_verdicts_judged_before_it(self, monkeypatch):
        reg = am_registry(range(3))
        eq = Constraint("AM", Op.EQ, ("1",))
        before = encode_task(TaskConstraintSet(0, (eq,)), reg)
        judged = []

        def counting_judge(constraint, values, forms):
            judged.append((constraint, list(values)))
            return _judge(constraint, values, forms)

        monkeypatch.setattr(covv, "_judge", counting_judge)
        snap = reg.copy()
        assert encode_task(TaskConstraintSet(1, (eq,)), snap, register=False) is before
        assert snap._verdict(eq) is reg._verdict(eq)
        assert judged == []
        snap.register("AM", "7")  # only the copy's new column is judged
        assert encode_task(TaskConstraintSet(1, (eq,)), snap).tolist() == [1, 1, 0, 1, 1]
        assert judged == [(eq, ["7"])]
        assert len(reg._verdict(eq)) == 4

    def test_same_attribute_different_constraints_cached_apart(self):
        reg = am_registry(range(3))
        eq = encode_task(TaskConstraintSet(0, (Constraint("AM", Op.EQ, ("1",)),)), reg)
        ne = encode_task(TaskConstraintSet(1, (Constraint("AM", Op.NE, ("1",)),)), reg)
        assert eq.tolist() == [1, 1, 0, 1]
        assert ne.tolist() == [0, 0, 1, 0]


def _every_op_event():
    constraints = tuple(
        Constraint("AM", op, () if op in (Op.PRESENT, Op.ABSENT)
                   else ("1", "2") if op in (Op.IN, Op.NOT_IN) else ("1",))
        for op in Op)
    return TaskEvent(0, TaskConstraintSet(0, constraints), 5)


class TestJsonCodec:
    def test_round_trip(self):
        event = _every_op_event()
        assert list(parse_events(serialize_events([event]))) == [event]

    def test_wire_names(self):
        line = serialize_events([_every_op_event()]).decode()
        assert [c["op"] for c in json.loads(line)["cons"]] == [op.value for op in Op]
        assert '"op":"GE"' in line and '"op":"NOT_IN"' in line

    def test_unknown_operator_named_in_error(self):
        with pytest.raises(ValueError, match="EQUALS"):
            constraint_from_json({"attr": "x", "op": "EQUALS", "operands": ["1"]})
