import json
import os
import tempfile

import numpy as np
import pytest
from helpers import json_values
from hypothesis import given, settings
from hypothesis import strategies as st

from covvsched import growing, neural
from covvsched.evalkit import Split, evaluate
from covvsched.growing import (
    MODE_FAILED,
    MODE_FULLY_RETRAINED,
    MODE_GROWN,
    ModelFormatError,
    TrainConfig,
    extend_input_layer,
    load_state,
    run_training_epoch,
    save_state,
    train_full,
    train_growing,
)
from covvsched.neural import (
    AdamState,
    class_weight_vector,
    forward,
    gradient_multipliers,
    init_model,
)


def make_split(X, y, test_fraction=0.25, seed=0):
    rng = np.random.default_rng(seed)
    n = len(y)
    perm = rng.permutation(n)
    k = max(1, int(n * test_fraction))
    test, train = perm[:k], perm[k:]
    return Split(X[train], y[train], X[test], y[test])


def separable_data(n=200, seed=0, features=3):
    """Two one-hot patterns mapped to groups 0 and 1."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    X = np.zeros((n, features))
    X[y == 0, 0] = 1.0
    X[y == 1, 1] = 1.0
    return X, y


def perceptron_separates(X, y, epochs=50):
    """Independent linear-separability check."""
    w = np.zeros(X.shape[1] + 1)
    Xb = np.hstack([X, np.ones((len(X), 1))])
    t = np.where(y == 0, 1.0, -1.0)
    for _ in range(epochs):
        mistakes = 0
        for i in range(len(Xb)):
            if t[i] * (w @ Xb[i]) <= 0:
                w += t[i] * Xb[i]
                mistakes += 1
        if mistakes == 0:
            return True
    return False


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = init_model(17, seed=5)
        path = tmp_path / "model.json"
        save_state(model, path)
        back = load_state(path)
        assert np.array_equal(back.layer1.weights, model.layer1.weights)
        assert np.array_equal(back.layer2.weights, model.layer2.weights)
        assert back.creation_seed == 5
        x = (np.random.default_rng(0).random(17) < 0.5).astype(float)
        assert np.array_equal(forward(back, x), forward(model, x))

    def test_version_mismatch_rejected(self, tmp_path):
        model = init_model(4, seed=1)
        path = tmp_path / "model.json"
        save_state(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version"):
            load_state(path)

    def test_dimension_inconsistency_rejected(self, tmp_path):
        model = init_model(4, seed=1)
        path = tmp_path / "model.json"
        save_state(model, path)
        doc = json.loads(path.read_text())
        doc["features_count"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="shape"):
            load_state(path)

    def test_unknown_activation_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_state(init_model(4, seed=1), path)
        doc = json.loads(path.read_text())
        doc["activation"] = "tanh"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="activation"):
            load_state(path)

    @pytest.mark.parametrize("name,bad", [("w1", float("nan")), ("b1", float("inf")),
                                          ("w2", float("-inf")), ("b2", float("nan"))])
    def test_non_finite_weights_rejected(self, tmp_path, name, bad):
        path = tmp_path / "model.json"
        save_state(init_model(4, seed=1), path)
        doc = json.loads(path.read_text())
        values = doc["weights"][name]
        if isinstance(values[0], list):
            values[0][0] = bad
        else:
            values[0] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=name):
            load_state(path)

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_state(init_model(4, seed=1), path)
        doc = json.loads(path.read_text())
        doc["weights"]["b2"][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_state(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not a model")
        with pytest.raises(ModelFormatError):
            load_state(path)

    def test_extension_history_survives_round_trip(self, tmp_path):
        model = init_model(4, seed=1)
        path = tmp_path / "model.json"
        save_state(model, path)
        extended = extend_input_layer(load_state(path), 6, step_time=42)
        save_state(extended, path)
        back = load_state(path)
        assert back.extension_history == [(42, 4, 6)]

    @pytest.mark.parametrize("history", [
        [["a", "b", "c"]], [[0, 4]], [[0, 4, 6, 8]], [[0, 5, 4]], [[0, 4, 4]], [[0, 4, 7]],
        [[0, -1, 6]], [[True, 4, 6]], [[0, 4.0, 6]], "abc",
    ])
    def test_malformed_extension_history_rejected(self, tmp_path, history):
        path = tmp_path / "model.json"
        save_state(extend_input_layer(init_model(4, seed=1), 6, step_time=42), path)
        doc = json.loads(path.read_text())
        doc["extension_history"] = history
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_state(path)


def _small_ints_or_json():
    return st.one_of(json_values, st.integers(-1, 4),
                     st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=4), max_size=2))


class TestLoadStateFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rejects_or_returns_well_formed_history(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_state(extend_input_layer(init_model(2, seed=1), 3, step_time=7), path)
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            # any field, top-level, a weight array or one of the history record's values
            fields = ([(doc, key) for key in doc] + [(doc["weights"], key) for key in doc["weights"]]
                      + [(doc["extension_history"][0], i) for i in range(3)])
            for target, key in data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2)):
                target[key] = data.draw(_small_ints_or_json())
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            try:
                model = load_state(path)
            except ModelFormatError:
                return
        for rec in model.extension_history:
            assert len(rec) == 3 and all(type(v) is int for v in rec)
            assert 0 <= rec[1] < rec[2] <= model.features_count


class TestExtendInputLayer:
    def test_new_columns_are_zero(self):
        model = init_model(15_960, seed=2)
        extended = extend_input_layer(model, 15_962)
        assert extended.layer1.weights.shape == (30, 15_962)
        assert not extended.layer1.weights[:, 15_960:].any()
        assert np.array_equal(extended.layer1.weights[:, :15_960], model.layer1.weights)
        assert np.array_equal(extended.layer2.weights, model.layer2.weights)

    def test_equal_width_is_noop(self):
        model = init_model(8, seed=2)
        extended = extend_input_layer(model, 8)
        assert extended.features_count == 8
        assert extended.extension_history == []

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            extend_input_layer(init_model(8, seed=2), 7)

    def test_old_inputs_keep_exact_logits(self):
        model = init_model(40, seed=3)
        extended = extend_input_layer(model, 55)
        rng = np.random.default_rng(1)
        X_old = (rng.random((32, 40)) < 0.2).astype(float)
        X_pad = np.hstack([X_old, np.zeros((32, 15))])
        diff = forward(extended, X_pad) - forward(model, X_old)
        assert np.abs(diff).max() == 0.0

    def test_original_model_untouched(self):
        model = init_model(8, seed=2)
        extended = extend_input_layer(model, 10, step_time=5)
        extended.layer1.weights[:] = 0.0
        assert model.layer1.weights.any()
        assert model.extension_history == []


class TestTrainGrowing:
    def test_already_good_model_trains_zero_epochs(self):
        X, y = separable_data(seed=1)
        split = make_split(X, y)
        model, first = train_full(split, TrainConfig(seed=1))
        assert first.mode == MODE_FULLY_RETRAINED
        wider = Split(np.hstack([split.X_train, np.zeros((len(split.X_train), 2))]),
                      split.y_train,
                      np.hstack([split.X_test, np.zeros((len(split.X_test), 2))]),
                      split.y_test)
        grown, outcome = train_growing(model, wider, TrainConfig(seed=2))
        assert outcome.mode == MODE_GROWN
        assert outcome.epochs_used == 0
        assert outcome.attempts_used == 1

    def test_learns_new_features_within_a_few_epochs(self):
        X, y = separable_data(seed=2)
        split = make_split(X, y)
        model, _ = train_full(split, TrainConfig(seed=3))
        # after growth the labels hinge on the new columns alone
        rng = np.random.default_rng(4)
        n = 240
        y2 = (rng.random(n) < 0.5).astype(np.int64)
        X2 = np.zeros((n, 5))
        X2[y2 == 0, 3] = 1.0
        X2[y2 == 1, 4] = 1.0
        split2 = make_split(X2, y2, seed=4)
        grown, outcome = train_growing(model, split2, TrainConfig(seed=5))
        assert outcome.mode == MODE_GROWN
        assert 1 <= outcome.epochs_used <= 20
        assert outcome.accuracy > 0.95

    def test_unlearnable_labels_fail_fast(self):
        rng = np.random.default_rng(6)
        X = (rng.random((120, 4)) < 0.5).astype(float)
        y = rng.integers(0, 26, size=120)
        split = make_split(X, y, seed=6)
        model, _ = train_full(split, TrainConfig(seed=7, epochs_limit=1, max_attempts=1))
        cfg = TrainConfig(seed=8, epochs_limit=2, max_attempts=2)
        _, outcome = train_growing(model, split, cfg)
        assert outcome.mode == MODE_FAILED
        assert outcome.attempts_used == 2
        assert outcome.epochs_used == 4

    def test_width_mismatch_rejected(self):
        X, y = separable_data()
        split = make_split(X, y)
        with pytest.raises(ValueError):
            train_growing(init_model(5, seed=1), split, TrainConfig())

    def test_empty_training_set_rejected(self):
        split = Split(np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                      np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="empty training set"):
            train_growing(init_model(3, seed=1), split, TrainConfig())

    def test_step_without_growth_damps_every_column(self):
        # the carried model grew at an earlier step; this step adds nothing
        carried = extend_input_layer(init_model(3, seed=1), 5, step_time=7)
        rng = np.random.default_rng(18)
        X = (rng.random((80, 5)) < 0.5).astype(float)
        y = rng.integers(0, 26, size=80)
        before = carried.layer1.weights.copy()
        cfg = TrainConfig(seed=2, epochs_limit=1, max_attempts=1, pretrained_gradient_rate=0.0)
        trained, outcome = train_growing(carried, make_split(X, y, seed=18), cfg)
        assert outcome.mode == MODE_FAILED
        assert outcome.epochs_used == 1
        assert np.array_equal(trained.layer1.weights, before)

    def test_carried_model_untouched(self):
        rng = np.random.default_rng(19)
        X = (rng.random((80, 5)) < 0.5).astype(float)
        y = rng.integers(0, 26, size=80)
        carried = init_model(3, seed=1)
        before = carried.layer1.weights.copy()
        cfg = TrainConfig(seed=3, epochs_limit=1, max_attempts=1, pretrained_gradient_rate=0.0)
        trained, outcome = train_growing(carried, make_split(X, y, seed=19), cfg, step_time=9)
        assert outcome.mode == MODE_FAILED
        assert np.array_equal(carried.layer1.weights, before)
        assert carried.extension_history == []
        assert trained.extension_history == [(9, 3, 5)]
        assert np.array_equal(trained.layer1.weights[:, :3], before)
        assert trained.layer1.weights[:, 3:].any()


def count_preparations(monkeypatch):
    """The row count of every `_prepared_rows` call from here on."""
    calls = []
    original = neural._prepared_rows

    def counting(X):
        calls.append(len(X))
        return original(X)

    # growing prepares the split; forward_pass would prepare a dense batch
    monkeypatch.setattr(growing, "_prepared_rows", counting)
    monkeypatch.setattr(neural, "_prepared_rows", counting)
    return calls


class TestTrainFull:
    def test_deterministic(self):
        X, y = separable_data(seed=9)
        split = make_split(X, y, seed=9)
        a, _ = train_full(split, TrainConfig(seed=10))
        b, _ = train_full(split, TrainConfig(seed=10))
        assert np.array_equal(a.layer1.weights, b.layer1.weights)
        assert np.array_equal(a.layer2.weights, b.layer2.weights)

    def test_reaches_thresholds_on_separable_data(self):
        X, y = separable_data(seed=11)
        assert perceptron_separates(X, y)
        split = make_split(X, y, seed=11)
        _, outcome = train_full(split, TrainConfig(seed=12))
        assert outcome.mode == MODE_FULLY_RETRAINED
        assert outcome.epochs_used <= TrainConfig().epochs_limit
        assert outcome.accuracy > 0.95
        assert outcome.group0_f1 is None or outcome.group0_f1 > 0.9

    def test_outcome_metrics_match_recomputation(self):
        X, y = separable_data(seed=13)
        split = make_split(X, y, seed=13)
        model, outcome = train_full(split, TrainConfig(seed=14))
        metrics = evaluate(model, split.X_test.astype(float), split.y_test)
        assert metrics.accuracy == outcome.accuracy
        assert metrics.group0_f1 == outcome.group0_f1

    def test_gate_ignores_f1_without_group0_support(self):
        rng = np.random.default_rng(15)
        n = 120
        y = rng.integers(1, 3, size=n).astype(np.int64)  # no group-0 rows at all
        X = np.zeros((n, 4))
        X[y == 1, 0] = 1.0
        X[y == 2, 1] = 1.0
        split = make_split(X, y, seed=15)
        _, outcome = train_full(split, TrainConfig(seed=16))
        assert outcome.mode == MODE_FULLY_RETRAINED
        assert outcome.group0_f1 is None

    def test_rows_prepared_once_per_call_not_per_epoch(self, monkeypatch):
        calls = count_preparations(monkeypatch)
        rng = np.random.default_rng(20)
        X = (rng.random((120, 4)) < 0.5).astype(np.uint8)
        y = rng.integers(0, 26, size=120)
        split = make_split(X, y, seed=20)
        # accuracy can never exceed 1.0, so every epoch of both attempts runs
        cfg = TrainConfig(seed=21, epochs_limit=3, max_attempts=2, accepted_accuracy=1.0)
        _, outcome = train_full(split, cfg)
        assert (outcome.mode, outcome.attempts_used, outcome.epochs_used) == (MODE_FAILED, 2, 6)
        assert calls == [len(split.y_test), len(split.y_train)]

    def test_model_that_passes_untrained_prepares_only_the_test_rows(self, monkeypatch):
        calls = count_preparations(monkeypatch)
        X, y = separable_data(seed=24)
        split = make_split(X, y, seed=24)
        model, _ = train_full(split, TrainConfig(seed=25))
        calls.clear()
        _, outcome = train_growing(model, split, TrainConfig(seed=26))
        assert outcome.epochs_used == 0
        assert calls == [len(split.y_test)]

    def test_uint8_split_trains_like_its_float_copy(self):
        rng = np.random.default_rng(22)
        X = (rng.random((160, 6)) < 0.4).astype(np.uint8)
        y = (X[:, 0] + 2 * X[:, 1]).astype(np.int64)
        cfg = TrainConfig(seed=23, epochs_limit=5, max_attempts=2)
        a, first = train_full(make_split(X, y, seed=22), cfg)
        b, second = train_full(make_split(X.astype(float), y, seed=22), cfg)
        assert first == second
        assert a.layer1.weights.tobytes() == b.layer1.weights.tobytes()
        assert a.layer2.weights.tobytes() == b.layer2.weights.tobytes()


class TestTrainConfig:
    @pytest.mark.parametrize("key", ["lr", "group0_weight"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -0.05])
    def test_non_finite_or_non_positive_rejected(self, key, bad):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: bad})


class TestGradientScalingLocality:
    def test_zero_rate_keeps_pretrained_columns_bit_identical(self):
        rng = np.random.default_rng(17)
        model = extend_input_layer(init_model(3, seed=18), 5)
        # hand the new columns label-relevant signal
        n = 64
        y = (rng.random(n) < 0.5).astype(np.int64)
        X = np.zeros((n, 5))
        X[:, :3] = (rng.random((n, 3)) < 0.3).astype(float)
        X[y == 0, 3] = 1.0
        X[y == 1, 4] = 1.0
        before = model.layer1.weights[:, :3].copy()
        new_before = model.layer1.weights[:, 3:].copy()
        model.layer2.frozen = True
        run_training_epoch(model, AdamState(), X, y, class_weight_vector(),
                           gradient_multipliers(3, 5, rate=0.0),
                           np.random.default_rng(0), batch_size=16)
        assert np.array_equal(model.layer1.weights[:, :3], before)
        assert not np.array_equal(model.layer1.weights[:, 3:], new_before)
