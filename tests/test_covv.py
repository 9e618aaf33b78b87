import numpy as np
import pytest

from covvsched.covv import (
    UNSET,
    Constraint,
    FeatureRegistry,
    Op,
    TaskConstraintSet,
    align,
    compare_values,
    constraint_from_json,
    constraint_to_json,
    encode_constraint,
    encode_task,
    value_satisfies,
)


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

    def test_attribute_token(self):
        with pytest.raises(ValueError):
            Constraint("", Op.PRESENT)
        with pytest.raises(ValueError):
            Constraint("A M", Op.PRESENT)


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


class TestAlign:
    def test_pads_with_zeros(self):
        reg = am_registry(range(7))  # 8 columns
        bits = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
        out = align(bits, reg)
        assert out.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_equal_length_unchanged(self):
        reg = am_registry(range(4))
        bits = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
        assert align(bits, reg) is bits

    def test_longer_vector_rejected(self):
        reg = am_registry(range(4))
        with pytest.raises(ValueError):
            align(np.zeros(9, dtype=np.uint8), reg)


class TestJsonCodec:
    def test_round_trip(self):
        c = Constraint("AM", Op.NOT_IN, ("1", "2"))
        assert constraint_from_json(constraint_to_json(c)) == c

    def test_wire_names(self):
        assert constraint_to_json(Constraint("x", Op.GE, ("1",)))["op"] == "GE"
        assert constraint_to_json(Constraint("x", Op.NOT_IN, ("1",)))["op"] == "NOT_IN"

    def test_unknown_operator_named_in_error(self):
        with pytest.raises(ValueError, match="EQUALS"):
            constraint_from_json({"attr": "x", "op": "EQUALS", "operands": ["1"]})
