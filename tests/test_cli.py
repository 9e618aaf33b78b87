import json

import numpy as np
import pytest

from covvsched.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING_FAILED, main
from covvsched.covv import Constraint, FeatureRegistry, Op, TaskConstraintSet
from covvsched.growing import save_state
from covvsched.neural import init_model
from covvsched.oracle import GroupingConfig, NodeInventory, apply_machine_event
from covvsched.trace import build_snapshot, load_snapshot, save_snapshot


@pytest.fixture
def config_file(tmp_path):
    doc = {
        "trace": {
            "node_count": 30, "attribute_count": 3, "values_per_attribute": 5,
            "task_count": 600, "constrained_fraction": 0.4, "restrictive_rate": 60,
            "growth_schedule": [[1_000_000, 2], [2_000_000, 2]],
            "span_us": 3_000_000, "seed": 5,
        },
        "grouping": {"increment": 500},
        "train": {"epochs_limit": 20, "max_attempts": 3},
        "split": {"test_fraction": 0.25, "seed": 5},
        "run": {"seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def snapshot_file(tmp_path):
    inv, reg = NodeInventory(), FeatureRegistry()
    rng = np.random.default_rng(0)
    for n in range(30):
        apply_machine_event(inv, reg, n, "uid", str(n))
        apply_machine_event(inv, reg, n, "a", str(int(rng.integers(0, 4))))
    tasks = []
    for i in range(200):
        if i % 25 == 0:
            tasks.append(TaskConstraintSet(i, (Constraint("uid", Op.EQ, (str(i % 30),)),)))
        elif i % 3 == 0:
            tasks.append(TaskConstraintSet(i, (Constraint("a", Op.LE, ("2",)),)))
        else:
            tasks.append(TaskConstraintSet(i))
    snap = build_snapshot(tasks, reg, inv, GroupingConfig())
    path = tmp_path / "snap.npz"
    save_snapshot(snap, path)
    return path


class TestGenTrace:
    def test_writes_parseable_trace(self, tmp_path, config_file, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
        from covvsched.trace import read_trace
        events = read_trace(out)
        assert len(events) > 600
        assert "wrote" in capsys.readouterr().out

    def test_seed_override_changes_bytes(self, tmp_path, config_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-trace", "--config", str(config_file), "--out", str(a)])
        main(["gen-trace", "--config", str(config_file), "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()


class TestSimulate:
    def test_writes_reports_and_manifest(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config_file), "--out-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "step_reports.csv").exists()
        assert (out / "manifest.json").exists()
        printed = capsys.readouterr().out
        assert "growing:" in printed and "fully_retrain:" in printed

    def test_arm_filter(self, tmp_path, config_file):
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out-dir", str(out),
              "--arms", "growing"])
        lines = (out / "step_reports.csv").read_text().splitlines()
        models = {line.split(",")[2] for line in lines[1:]}
        assert models == {"growing"}

    def test_replays_external_trace(self, tmp_path, config_file):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", "--config", str(config_file), "--out", str(trace_path)])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_file), "--out-dir", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", str(config_file), "--out-dir", str(b),
                     "--trace", str(trace_path)]) == EXIT_OK
        # replaying the generated trace reproduces the in-memory run
        assert (a / "step_reports.csv").read_bytes() == (b / "step_reports.csv").read_bytes()


class TestTrainEvaluate:
    def test_train_then_evaluate(self, tmp_path, config_file, snapshot_file, capsys):
        model_path = tmp_path / "model.json"
        code = main(["train", "--data", str(snapshot_file), "--out", str(model_path),
                     "--config", str(config_file)])
        assert code == EXIT_OK
        assert model_path.exists()
        metrics_path = tmp_path / "metrics.json"
        code = main(["evaluate", "--model", str(model_path), "--data", str(snapshot_file),
                     "--out", str(metrics_path)])
        assert code == EXIT_OK
        doc = json.loads(metrics_path.read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert len(doc["confusion"]) == 26

    def test_evaluate_rejects_width_mismatch(self, tmp_path, config_file, snapshot_file):
        model_path = tmp_path / "narrow.json"
        from covvsched.growing import save_state
        from covvsched.neural import init_model
        save_state(init_model(3, seed=1), model_path)
        code = main(["evaluate", "--model", str(model_path), "--data", str(snapshot_file),
                     "--out", str(tmp_path / "m.json")])
        assert code == EXIT_DATA

    def test_train_growing_from_prior(self, tmp_path, config_file, snapshot_file):
        first = tmp_path / "m1.json"
        main(["train", "--data", str(snapshot_file), "--out", str(first),
              "--config", str(config_file)])
        second = tmp_path / "m2.json"
        code = main(["train", "--data", str(snapshot_file), "--out", str(second),
                     "--model", str(first), "--config", str(config_file)])
        assert code == EXIT_OK

    def test_unlearnable_data_exits_3(self, tmp_path, snapshot_file):
        import covvsched.trace as trace_mod
        snap = trace_mod.load_snapshot(snapshot_file)
        rng = np.random.default_rng(1)
        snap.y = rng.integers(0, 26, size=len(snap.y)).astype(np.int64)
        scrambled = tmp_path / "scrambled.npz"
        trace_mod.save_snapshot(snap, scrambled)
        cfg = tmp_path / "quick.json"
        cfg.write_text(json.dumps({"train": {"epochs_limit": 1, "max_attempts": 1}}))
        code = main(["train", "--data", str(scrambled), "--out", str(tmp_path / "m.json"),
                     "--config", str(cfg)])
        assert code == EXIT_TRAINING_FAILED


class TestSchedSim:
    def test_oracle_policy_run(self, tmp_path, config_file, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", "--config", str(config_file), "--out", str(trace_path)])
        out = tmp_path / "latency.json"
        code = main(["sched-sim", "--trace", str(trace_path), "--policy", "co-analyzer",
                     "--oracle", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["placed"] + doc["unplaced"] == doc["submitted"]

    def test_fifo_with_queue_trace(self, tmp_path, config_file):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", "--config", str(config_file), "--out", str(trace_path)])
        out = tmp_path / "latency.json"
        qt = tmp_path / "queues.csv"
        code = main(["sched-sim", "--trace", str(trace_path), "--policy", "fifo",
                     "--out", str(out), "--queue-trace", str(qt)])
        assert code == EXIT_OK
        assert qt.read_text().startswith("tick,high_priority,main,running\n")

    def test_line_separator_inside_a_value_runs(self, tmp_path):
        # U+2028 is legal unescaped inside a JSON string and must not end the line
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(
            '{"t":0,"kind":"machine","node":1,"attr":"zone","val":"eu\u2028west"}\n'
            '{"t":0,"kind":"machine","node":2,"attr":"zone","val":"us"}\n'
            '{"t":5,"kind":"task","id":1,"dur":10,'
            '"cons":[{"attr":"zone","op":"EQ","operands":["eu\u2028west"]}]}\n',
            encoding="utf-8")
        out = tmp_path / "latency.json"
        code = main(["sched-sim", "--trace", str(trace_path), "--policy", "fifo", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["placed"] == doc["submitted"] == 1

    def test_co_analyzer_requires_a_classifier(self, tmp_path, config_file):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", "--config", str(config_file), "--out", str(trace_path)])
        code = main(["sched-sim", "--trace", str(trace_path), "--policy", "co-analyzer",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_DATA


class TestInspectModel:
    def test_prints_dimensions_and_history(self, tmp_path, config_file, snapshot_file, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(snapshot_file), "--out", str(model_path),
              "--config", str(config_file)])
        capsys.readouterr()
        assert main(["inspect-model", "--model", str(model_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hidden: 30" in out
        assert "classes: 26" in out
        assert "w1_norm" in out


class TestExitCodes:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["gen-trace", "--nope"])
        assert err.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["sched-sim", "--trace", str(tmp_path / "absent.jsonl"),
                     "--policy", "fifo", "--out", str(tmp_path / "o.json")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("corrupt", ["label-minus-one", "label-26", "x-256", "y-2d"])
    def test_malformed_snapshot_exits_2(self, tmp_path, snapshot_file, capsys, command, corrupt):
        with np.load(snapshot_file) as data:
            arrays = {name: data[name] for name in data.files}
        X, y = arrays["X"].astype(np.int64), arrays["y"]
        if corrupt == "label-minus-one":
            y[0] = -1
        elif corrupt == "label-26":
            y[0] = 26
        elif corrupt == "x-256":
            X[0, 0] = 256
        else:
            y = y[:, None]
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**arrays, "X": X, "y": y})
        if command == "train":
            args = ["train", "--data", str(bad), "--out", str(tmp_path / "m.json")]
        else:
            model = tmp_path / "model.json"
            save_state(init_model(X.shape[1], seed=1), model)
            args = ["evaluate", "--model", str(model), "--data", str(bad),
                    "--out", str(tmp_path / "metrics.json")]
        assert main(args) == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["sched-sim", "--trace", str(bad), "--policy", "fifo",
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("line", [
        '{"t":0,"kind":"machine","node":true,"attr":"AM","val":"5"}',
        '{"t":0,"kind":"task","id":false,"dur":5,"cons":[]}',
        '{"t":0,"kind":"task","id":1,"dur":true,"cons":[]}',
        '{"t":0,"kind":"task","id":1,"dur":-5,"cons":[]}',
    ])
    def test_bool_or_negative_trace_field_exits_2(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        code = main(["sched-sim", "--trace", str(bad), "--policy", "fifo",
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_DATA

    def test_duplicate_task_id_exits_2(self, tmp_path):
        bad = tmp_path / "dup.jsonl"
        bad.write_text('{"t":0,"kind":"task","id":4,"dur":5,"cons":[]}\n'
                       '{"t":1,"kind":"task","id":4,"dur":5,"cons":[]}\n')
        code = main(["sched-sim", "--trace", str(bad), "--policy", "fifo",
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["simulate", "sched-sim"])
    @pytest.mark.parametrize("attr", ['5', '["a"]'])
    def test_non_string_constraint_attribute_exits_2(self, tmp_path, config_file, command, attr):
        bad = tmp_path / "attr.jsonl"
        bad.write_text('{"t":0,"kind":"machine","node":0,"attr":"a","val":"1"}\n'
                       '{"t":1,"kind":"task","id":1,"dur":5,'
                       '"cons":[{"attr":%s,"op":"EQ","operands":["1"]}]}\n' % attr)
        if command == "simulate":
            args = ["simulate", "--config", str(config_file), "--trace", str(bad),
                    "--out-dir", str(tmp_path / "o")]
        else:
            args = ["sched-sim", "--trace", str(bad), "--policy", "co-analyzer", "--oracle",
                    "--out", str(tmp_path / "o.json")]
        assert main(args) == EXIT_DATA

    @pytest.mark.parametrize("command", ["simulate", "sched-sim"])
    @pytest.mark.parametrize("line", [
        '{"t":1,"kind":"task","id":1,"dur":5,"cons":[{"attr":"a","op":"LE","operands":["%s"]}]}',
        '{"t":1,"kind":"machine","node":1,"attr":"a","val":"%s"}',
    ], ids=["operand", "machine-value"])
    def test_decimal_too_long_for_int_exits_2(self, tmp_path, config_file, capsys, command, line):
        bad = tmp_path / "long.jsonl"
        bad.write_text('{"t":0,"kind":"machine","node":0,"attr":"a","val":"1"}\n'
                       + line % ("9" * 5000) + "\n")
        if command == "simulate":
            args = ["simulate", "--config", str(config_file), "--trace", str(bad),
                    "--out-dir", str(tmp_path / "o")]
        else:
            args = ["sched-sim", "--trace", str(bad), "--policy", "co-analyzer", "--oracle",
                    "--out", str(tmp_path / "o.json")]
        assert main(args) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(activation="tanh"),
        lambda doc: doc["weights"].update(b2=[float("nan")] * 26),
    ], ids=["activation", "nan-bias"])
    def test_corrupt_model_exits_2(self, tmp_path, corrupt):
        path = tmp_path / "model.json"
        save_state(init_model(4, seed=1), path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        assert main(["inspect-model", "--model", str(path)]) == EXIT_DATA

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trace": {"node_cout": 3}}))
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("section,patch", [
        ("run", [1]),
        ("run", {"arms": 5}),
        ("run", {"seed": "x"}),
        ("run", {"trace": {"node_count": 3}}),
        ("run", {"trace_path": 5}),
        ("run", {"train": {"epochs_limit": 5}}),
        ("train", {"epochs_limit": 2.5}),
    ], ids=["run-list", "arms-int", "seed-str", "run-trace", "trace-path-int", "run-train",
            "epochs-float"])
    def test_bad_run_config_exits_2(self, tmp_path, config_file, section, patch):
        doc = json.loads(config_file.read_text())
        doc[section] = {**doc[section], **patch} if isinstance(patch, dict) else patch
        config_file.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("key,value", [
        ("lr", float("nan")), ("lr", 0), ("lr", -0.05),
        ("group0_weight", float("nan")), ("group0_weight", float("inf")),
    ])
    def test_non_finite_or_non_positive_train_value_exits_2(self, tmp_path, config_file,
                                                            key, value):
        # json writes and reads NaN and Infinity
        doc = json.loads(config_file.read_text())
        doc["train"][key] = value
        config_file.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen-trace", "simulate", "train", "evaluate",
                                         "sched-sim", "inspect-model"])
    def test_unknown_section_exits_2(self, tmp_path, config_file, snapshot_file, capsys,
                                     command):
        # every input is valid, so only the misspelt section can fail the run
        model = tmp_path / "model.json"
        save_state(init_model(load_snapshot(snapshot_file).features_count, seed=1), model)
        trace = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--config", str(config_file), "--out", str(trace)]) == EXIT_OK
        doc = json.loads(config_file.read_text())
        doc["trian"] = doc.pop("train")
        config_file.write_text(json.dumps(doc))
        out = str(tmp_path / "o")
        args = {
            "gen-trace": ["--out", out],
            "simulate": ["--out-dir", out],
            "train": ["--data", str(snapshot_file), "--out", out],
            "evaluate": ["--model", str(model), "--data", str(snapshot_file), "--out", out],
            "sched-sim": ["--trace", str(trace), "--policy", "fifo", "--out", out],
            "inspect-model": ["--model", str(model)],
        }[command]
        capsys.readouterr()
        assert main([command, "--config", str(config_file), *args]) == EXIT_DATA
        assert "unknown config section(s): trian" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,section", [
        ("gen-trace", "trace"), ("train", "train"), ("sched-sim", "sched"),
    ])
    def test_section_not_an_object_exits_2(self, tmp_path, snapshot_file, command, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: [1]}))
        out = str(tmp_path / "o")
        args = {
            "gen-trace": ["--out", out],
            "train": ["--data", str(snapshot_file), "--out", out],
            "sched-sim": ["--trace", out, "--policy", "fifo", "--out", out],
        }[command]
        assert main([command, "--config", str(cfg), *args]) == EXIT_DATA

    @pytest.mark.parametrize("command", ["gen-trace", "simulate", "sched-sim", "inspect-model"])
    def test_deeply_nested_json_exits_2(self, tmp_path, config_file, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        out = str(tmp_path / "o")
        args = {
            "gen-trace": ["--config", str(deep), "--out", out],
            "simulate": ["--config", str(config_file), "--trace", str(deep), "--out-dir", out],
            "sched-sim": ["--trace", str(deep), "--policy", "fifo", "--out", out],
            "inspect-model": ["--model", str(deep)],
        }[command]
        assert main([command, *args]) == EXIT_DATA
        assert "recursion" in capsys.readouterr().err

    @pytest.mark.parametrize("command,target,message", [
        ("simulate", "file", "File exists"),
        ("simulate", "file/sub", "Not a directory"),
        ("gen-trace", "file/t.jsonl", "Not a directory"),
    ], ids=["out-dir-is-a-file", "out-dir-under-a-file", "out-under-a-file"])
    def test_output_path_through_a_file_exits_2(self, tmp_path, config_file, capsys,
                                                command, target, message):
        (tmp_path / "file").write_text("")
        out = str(tmp_path / target)
        flag = "--out-dir" if command == "simulate" else "--out"
        assert main([command, "--config", str(config_file), flag, out]) == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_duplicate_arm_exits_2(self, tmp_path, config_file, capsys):
        code = main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path / "o"),
                     "--arms", "growing,growing"])
        assert code == EXIT_DATA
        assert "arms repeat: growing, growing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_growth_entry_not_an_integer_pair_exits_2(self, tmp_path, config_file):
        doc = json.loads(config_file.read_text())
        doc["trace"]["growth_schedule"] = [[2_500_000.7, 3]]
        config_file.write_text(json.dumps(doc))
        code = main(["gen-trace", "--config", str(config_file), "--out", str(tmp_path / "t")])
        assert code == EXIT_DATA
        assert not (tmp_path / "t").exists()

    def test_malformed_extension_history_exits_2(self, tmp_path, snapshot_file):
        prior = tmp_path / "prior.json"
        save_state(init_model(load_snapshot(snapshot_file).features_count, seed=1), prior)
        doc = json.loads(prior.read_text())
        doc["extension_history"] = [["a", "b", "c"]]
        prior.write_text(json.dumps(doc))
        code = main(["train", "--data", str(snapshot_file), "--out", str(tmp_path / "m.json"),
                     "--model", str(prior)])
        assert code == EXIT_DATA
