import dataclasses
import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import json_values
from hypothesis import given, settings
from hypothesis import strategies as st

from covvsched import covv, pipeline
from covvsched.covv import Constraint, Op, TaskConstraintSet
from covvsched.evalkit import SplitConfig
from covvsched.growing import TrainConfig
from covvsched.oracle import GroupingConfig
from covvsched.pipeline import (
    ARM_FULLY_RETRAIN,
    ARM_GROWING,
    MANIFEST,
    REPORT_CSV,
    REPORT_JSON,
    RunConfig,
    config_digest,
    dataclass_from_dict,
    load_run_config,
    run_simulation,
)
from covvsched.schedsim import SchedulerConfig
from covvsched.trace import (
    ConfigError,
    MachineEvent,
    SyntheticTraceConfig,
    TaskEvent,
    TraceFormatError,
    generate_events,
    serialize_events,
)


def small_trace(seed=3, growth_steps=4, tasks=1600):
    growth = tuple((1_000_000 + i * 1_500_000, 2) for i in range(growth_steps))
    return SyntheticTraceConfig(
        node_count=40, attribute_count=4, values_per_attribute=6,
        task_count=tasks, constrained_fraction=0.4, restrictive_rate=60,
        growth_schedule=growth, span_us=8_000_000, seed=seed)


def small_run(tmp_path, name="out", **kwargs):
    defaults = dict(trace=small_trace(), seed=3, out_dir=str(tmp_path / name))
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRunSimulation:
    def test_zero_growth_events_yield_single_step(self, tmp_path):
        cfg = small_run(tmp_path, trace=small_trace(growth_steps=0, tasks=600))
        result = run_simulation(cfg)
        assert {r.model for r in result.reports} == {ARM_GROWING, ARM_FULLY_RETRAIN}
        assert sum(1 for r in result.reports if r.model == ARM_GROWING) == 1

    def test_one_step_per_growth_plus_flush(self, tmp_path):
        result = run_simulation(small_run(tmp_path))
        growing = [r for r in result.reports if r.model == ARM_GROWING]
        assert len(growing) == 5  # 4 growth steps + end-of-trace flush
        assert [r.step_time for r in growing] == sorted(r.step_time for r in growing)

    def test_features_count_is_nondecreasing(self, tmp_path):
        result = run_simulation(small_run(tmp_path))
        widths = [r.features_count for r in result.reports if r.model == ARM_GROWING]
        assert widths == sorted(widths)

    def test_identical_config_identical_report_bytes(self, tmp_path):
        a = run_simulation(small_run(tmp_path, name="a"))
        b = run_simulation(small_run(tmp_path, name="b"))
        csv_a = (tmp_path / "a" / REPORT_CSV).read_bytes()
        csv_b = (tmp_path / "b" / REPORT_CSV).read_bytes()
        assert csv_a == csv_b
        assert a.manifest["config_hash"] == b.manifest["config_hash"]

    def test_summary_matches_rows(self, tmp_path):
        result = run_simulation(small_run(tmp_path))
        for arm in (ARM_GROWING, ARM_FULLY_RETRAIN):
            rows = [r for r in result.reports if r.model == arm]
            stats = result.summary[arm]
            assert stats["steps"] == len(rows)
            assert stats["total_epochs"] == sum(r.epochs for r in rows)
            assert abs(stats["mean_accuracy"] - np.mean([r.accuracy for r in rows])) < 1e-12

    def test_manifest_written(self, tmp_path):
        cfg = small_run(tmp_path)
        run_simulation(cfg)
        doc = json.loads((tmp_path / "out" / MANIFEST).read_text())
        assert doc["config_hash"] == config_digest(cfg)
        assert REPORT_CSV in doc["report_paths"]

    def test_single_arm_run(self, tmp_path):
        cfg = small_run(tmp_path, arms=(ARM_GROWING,))
        result = run_simulation(cfg)
        assert {r.model for r in result.reports} == {ARM_GROWING}

    def test_growing_arm_reuses_model(self, tmp_path):
        result = run_simulation(small_run(tmp_path))
        growing = [r for r in result.reports if r.model == ARM_GROWING]
        # later steps start from the carried model, most need no epochs at all
        assert growing[0].epochs >= 1
        assert sum(r.epochs for r in growing[1:]) <= sum(
            r.epochs for r in result.reports if r.model == ARM_FULLY_RETRAIN)
        assert result.models[ARM_GROWING].extension_history

    def test_each_constraint_value_pair_is_judged_once(self, tmp_path, monkeypatch):
        # encoding and labelling read the verdicts of one registry, the
        # inventory's, so no pair is judged for each of them
        judged = []
        judge = covv._judge

        def spy(constraint, values, forms):
            judged.extend((constraint, v) for v in values)
            return judge(constraint, values, forms)

        monkeypatch.setattr(covv, "_judge", spy)
        run_simulation(small_run(tmp_path, trace=small_trace(tasks=400), arms=(ARM_GROWING,)))
        assert judged
        assert len(judged) == len(set(judged))

    def test_out_dir_that_is_a_file_fails_before_training(self, tmp_path, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("a step trained before the output directory was made")

        monkeypatch.setattr(pipeline, "train_full", train)
        monkeypatch.setattr(pipeline, "train_growing", train)
        (tmp_path / "file").write_text("")
        with pytest.raises(FileExistsError):
            run_simulation(small_run(tmp_path, name="file"))

    def test_trace_format_error_creates_no_directory(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(serialize_events(generate_events(small_trace(tasks=20))) + b"{\n")
        with pytest.raises(TraceFormatError):
            run_simulation(small_run(tmp_path, trace=None, trace_path=str(trace)))
        assert not (tmp_path / "out").exists()

    def bulk_growth_trace(self):
        # constrained tasks are exclusively single-node pins, so training is
        # easy; a small injection first gives the growing arm a model before
        # the 45-value injection arrives
        return SyntheticTraceConfig(
            node_count=30, attribute_count=5, values_per_attribute=50,
            task_count=800, constrained_fraction=0.005, restrictive_rate=50,
            growth_schedule=((1_000_000, 1), (2_500_000, 45)), span_us=4_000_000, seed=1)

    def test_bulk_growth_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="covvsched.pipeline"):
            run_simulation(small_run(tmp_path, trace=self.bulk_growth_trace()))
        assert any("adds 45 features at once" in r.message for r in caplog.records)


class TestRunConfigValidation:
    def test_requires_trace_or_path(self):
        with pytest.raises(ConfigError):
            RunConfig(trace=None, trace_path=None)

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(trace=small_trace(), arms=("growing", "frozen"))

    def test_duplicate_arm_rejected(self):
        with pytest.raises(ConfigError, match="arms repeat"):
            RunConfig(trace=small_trace(), arms=("growing", "growing"))

    def test_load_from_document(self):
        doc = {
            "trace": {"node_count": 10, "task_count": 50},
            "grouping": {"increment": 100},
            "train": {"epochs_limit": 5},
            "split": {"test_fraction": 0.5},
            "run": {"seed": 9, "history_windows": 2},
        }
        cfg = load_run_config(doc, out_dir="x")
        assert cfg.trace.node_count == 10
        assert cfg.grouping.increment == 100
        assert cfg.train.epochs_limit == 5
        assert cfg.split.test_fraction == 0.5
        assert cfg.seed == 9
        assert cfg.out_dir == "x"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="training"):
            load_run_config({"training": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="node_cout"):
            load_run_config({"trace": {"node_cout": 10}})

    @pytest.mark.parametrize("run", [
        [1], {"arms": 5}, {"seed": "x"}, {"seed": True}, {"seed": 1.0}, {"trace_path": 5},
        {"trace": {"node_count": 3}}, {"train": {"epochs_limit": 5}},
    ])
    def test_bad_run_section_rejected(self, run):
        doc = {"run": run} if isinstance(run, list) else {"run": {"trace_path": "t.jsonl", **run}}
        with pytest.raises(ConfigError):
            load_run_config(doc)

    @pytest.mark.parametrize("key,value", [
        ("epochs_limit", 2.5), ("epochs_limit", True), ("lr", "0.05"), ("activation", 1),
    ])
    def test_scalar_of_wrong_type_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            dataclass_from_dict(TrainConfig, {key: value}, "train")

    def test_removed_bulk_growth_limit_rejected(self):
        # the bulk-growth warning threshold is a constant, not a config key
        with pytest.raises(ConfigError, match="bulk_growth_limit"):
            load_run_config({"run": {"trace_path": "t.jsonl", "bulk_growth_limit": 40}})

    def test_infinite_growth_time_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config({"trace": {"growth_schedule": [[float("inf"), 1]]}})

    def test_float_field_takes_an_int(self):
        assert dataclass_from_dict(TrainConfig, {"lr": 1}, "train").lr == 1

    @pytest.mark.parametrize("key,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 0), ("lr", -0.05),
        ("group0_weight", float("nan")), ("group0_weight", float("inf")),
        ("group0_weight", 0.0),
    ])
    def test_non_finite_or_non_positive_train_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_run_config({"run": {"trace_path": "t.jsonl"}, "train": {key: value}})


class TestConfigSections:
    def test_none_override_keeps_the_file_value(self):
        doc = {"trace": {"seed": 4, "task_count": 70}}
        cfg = pipeline.load_section(doc, "trace", seed=None, task_count=90)
        assert (cfg.seed, cfg.task_count) == (4, 90)
        assert pipeline.load_section({}, "trace", seed=None) == SyntheticTraceConfig()

    def test_override_replaces_the_file_value(self):
        cfg = pipeline.load_section({"sched": {"policy": "fifo"}}, "sched", policy="co-analyzer")
        assert cfg == SchedulerConfig(policy="co-analyzer")

    def test_section_not_an_object_rejected_before_overrides(self):
        with pytest.raises(ConfigError, match="section 'train' must be an object"):
            pipeline.load_section({"train": [1]}, "train", seed=1)

    def test_section_table_is_the_fuzzed_one(self):
        assert pipeline.CONFIG_SECTIONS == _CONFIG_SECTIONS

    def test_deeply_nested_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: invalid JSON: "):
            pipeline.read_config(path)


_CONFIG_SECTIONS = {"trace": SyntheticTraceConfig, "grouping": GroupingConfig,
                    "train": TrainConfig, "split": SplitConfig, "sched": SchedulerConfig,
                    "run": RunConfig}


def _field_values(f):
    """Mostly values of the field's own JSON type, now and then arbitrary JSON."""
    own = {
        int: st.integers(0, 9),
        float: st.floats(0, 1) | st.integers(0, 1),
        str: st.text(max_size=3) | st.sampled_from(["fifo", "relu"]),
        tuple: st.lists(st.sampled_from(["growing", "fully_retrain"]), max_size=2),
    }.get(type(f.default), st.none() | st.text(max_size=3))
    return st.integers(0, 9).flatmap(lambda roll: json_values if roll == 0 else own)


@st.composite
def _section_values(draw, cls):
    """Mostly some of a config section's own keys; now and then unknown keys
    and section names, or arbitrary JSON."""
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return draw(json_values)
    if roll == 1:
        keys = st.sampled_from([*_CONFIG_SECTIONS, "bogus"])
        return draw(st.dictionaries(keys, json_values, min_size=1, max_size=2))
    fields = [f for f in dataclasses.fields(cls) if f.name not in _CONFIG_SECTIONS]
    return {f.name: draw(_field_values(f))
            for f in draw(st.lists(st.sampled_from(fields), unique=True, max_size=4))}


@st.composite
def _config_docs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    names = draw(st.lists(st.sampled_from(sorted(_CONFIG_SECTIONS)), unique=True))
    return {name: draw(_section_values(_CONFIG_SECTIONS[name])) for name in names}


def assert_scalars_typed(obj):
    """Every field of a config dataclass (and of those nested in it) whose
    default is a bool, int, float or str holds a value of that JSON type; a
    float field may hold an int, and a bool is never a number."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            assert_scalars_typed(value)
        elif type(f.default) is float:
            assert type(value) in (int, float), (f.name, value)
        elif type(f.default) in (bool, int, str):
            assert type(value) is type(f.default), (f.name, value)


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(doc=_config_docs())
    def test_run_config_is_typed_or_rejected(self, doc):
        try:
            cfg = load_run_config(doc)
        except ConfigError:
            return
        assert_scalars_typed(cfg)
        assert cfg.trace is None or isinstance(cfg.trace, SyntheticTraceConfig)
        assert cfg.trace_path is None or isinstance(cfg.trace_path, str)

    @settings(max_examples=300, deadline=None)
    @given(section=_section_values(SchedulerConfig))
    def test_sched_config_is_typed_or_rejected(self, section):
        try:
            cfg = dataclass_from_dict(SchedulerConfig, section, "sched")
        except ConfigError:
            return
        assert_scalars_typed(cfg)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_example_loads():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^### Config file\n+```json\n(.*?)^```", text, re.M | re.S)
    assert block, "no JSON block under the README's config heading"
    doc = json.loads(block.group(1))
    cfg = load_run_config(doc)
    assert cfg.trace.task_count == doc["trace"]["task_count"]
    dataclass_from_dict(SchedulerConfig, doc["sched"], "sched")


def golden_trace():
    """A small synthetic trace with three growth steps, plus hand-written
    tasks whose operands no node holds (97-99), interleaved with tasks that
    share their signatures, in four windows: operand-only columns then
    appear mid-snapshot, and history tasks are encoded again at a wider
    registry."""
    events = generate_events(small_trace(seed=5, growth_steps=3, tasks=800))
    tid = 100_000
    for start, v in ((500_000, "97"), (1_800_000, "98"), (3_200_000, "99"), (6_000_000, "96")):
        signatures = (
            (Constraint("a0", Op.EQ, ("1",)),),
            (Constraint("a0", Op.NE, (v,)),),
            (Constraint("a0", Op.EQ, ("1",)),),
            (Constraint("a1", Op.LE, (v,)),),
            (Constraint("a1", Op.GE, ("2",)),),
            (Constraint("a2", Op.IN, ("2", v)),),
            (Constraint("a1", Op.GE, ("2",)),),
            (Constraint("a0", Op.EQ, ("1",)), Constraint("a1", Op.LE, (v,))),
        )
        for k, constraints in enumerate(signatures):
            events.append(TaskEvent(start + 7 * k + 1, TaskConstraintSet(tid, constraints), 1000))
            tid += 1
    order = {MachineEvent: 0, TaskEvent: 1}
    indexed = sorted(enumerate(events), key=lambda p: (p[1].time, order[type(p[1])], p[0]))
    return serialize_events(e for _, e in indexed)


class TestGolden:
    # recorded before each registry and inventory kept its own verdicts, when
    # every step encoded and judged every task of its window from scratch
    DIGEST = "2d10010daf80e447b7440443cf1e7cd49fa3a4b25035c8556b16ef131b1a11dd"

    def test_step_reports_unchanged(self, tmp_path):
        trace = tmp_path / "golden.jsonl"
        trace.write_bytes(golden_trace())
        # increment 3 spreads the 40 nodes' counts over many groups, so no
        # step passes its gate and each accuracy depends on the exact rows
        cfg = RunConfig(trace_path=str(trace), seed=5, history_windows=2,
                        grouping=GroupingConfig(increment=3),
                        train=TrainConfig(epochs_limit=20, max_attempts=2),
                        out_dir=str(tmp_path / "out"))
        result = run_simulation(cfg)
        assert sum(1 for r in result.reports if r.model == ARM_GROWING) >= 4
        h = hashlib.sha256()
        for name in (REPORT_CSV, REPORT_JSON):
            h.update((tmp_path / "out" / name).read_bytes())
        assert h.hexdigest() == self.DIGEST
