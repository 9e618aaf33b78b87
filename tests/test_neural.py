import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gradient_check

from covvsched.growing import extend_input_layer
from covvsched.neural import (
    CLASS_COUNT,
    HIDDEN_SIZE,
    AdamState,
    DenseLayer,
    TwoLayerClassifier,
    _prepared_rows,
    adam_step,
    apply_column_multipliers,
    backward,
    class_weight_vector,
    forward,
    forward_pass,
    gradient_multipliers,
    init_model,
    softmax,
    weighted_cross_entropy,
)


def tiny_model(weights1, bias1, weights2, bias2, activation="identity"):
    return TwoLayerClassifier(
        layer1=DenseLayer(np.asarray(weights1, dtype=np.float64), np.asarray(bias1, dtype=np.float64)),
        layer2=DenseLayer(np.asarray(weights2, dtype=np.float64), np.asarray(bias2, dtype=np.float64)),
        activation=activation,
    )


def random_model(rng, features):
    model = init_model(features, seed=int(rng.integers(0, 2**31)))
    # shift biases off zero so the gradient check exercises them
    model.layer1.bias = rng.normal(0, 0.1, HIDDEN_SIZE)
    model.layer2.bias = rng.normal(0, 0.1, CLASS_COUNT)
    return model


class TestInitModel:
    def test_deterministic_per_seed(self):
        a, b = init_model(40, seed=5), init_model(40, seed=5)
        assert np.array_equal(a.layer1.weights, b.layer1.weights)
        assert np.array_equal(a.layer2.weights, b.layer2.weights)

    def test_shapes_at_production_scale(self):
        model = init_model(15_960, seed=0)
        assert model.layer1.weights.shape == (30, 15_960)
        assert model.layer2.weights.shape == (26, 30)
        assert model.features_count == 15_960

    def test_weights_within_fan_in_bound(self):
        model = init_model(16, seed=3)
        assert np.all(np.abs(model.layer1.weights) <= 1 / math.sqrt(16))
        assert np.all(np.abs(model.layer2.weights) <= 1 / math.sqrt(HIDDEN_SIZE))
        assert not model.layer1.bias.any()

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError):
            init_model(0, seed=0)


class TestForward:
    def test_zero_input_zero_bias_gives_zero_logits(self):
        model = init_model(7, seed=1)
        assert not forward(model, np.zeros(7)).any()

    def test_hand_computed_two_by_two(self):
        model = tiny_model(
            weights1=[[1.0, 2.0], [3.0, 4.0]],
            bias1=[0.5, -0.5],
            weights2=[[2.0, -1.0], [0.5, 1.0]],
            bias2=[0.0, 1.0],
        )
        # hidden = [-0.5, -1.5]; logits = [2(-0.5) - (-1.5), 0.5(-0.5) - 1.5 + 1]
        np.testing.assert_allclose(forward(model, [1.0, -1.0]), [0.5, -0.75], rtol=0, atol=0)

    def test_identity_activation_superposition(self):
        model = init_model(9, seed=2)
        rng = np.random.default_rng(0)
        x = (rng.random(9) < 0.5).astype(float)
        y = (rng.random(9) < 0.5).astype(float)
        residual = forward(model, x + y) - forward(model, x) - forward(model, y) + forward(model, np.zeros(9))
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_relu_clips_negative_hidden(self):
        model = tiny_model([[1.0]], [-2.0], [[1.0], [0.0]], [0.0, 0.0], activation="relu")
        np.testing.assert_array_equal(forward(model, [1.0]), [0.0, 0.0])

    def test_batch_shape(self):
        model = init_model(5, seed=1)
        assert forward(model, np.zeros((4, 5))).shape == (4, CLASS_COUNT)

    def test_width_mismatch_rejected(self):
        model = init_model(5, seed=1)
        with pytest.raises(ValueError):
            forward(model, np.zeros(6))


def reference_logits(model, X):
    """Logits of the 2-D batch `X`, projecting each row over its nonzero columns."""
    W1, b1 = model.layer1.weights, model.layer1.bias
    hidden = []
    for x in X:
        h = b1.copy()
        nz = np.flatnonzero(x)
        if nz.size:
            h += W1[:, nz] @ x[nz]
        hidden.append(h)
    hidden = np.array(hidden).reshape(len(X), HIDDEN_SIZE)
    if model.activation == "relu":
        hidden = np.maximum(hidden, 0.0)
    return hidden @ model.layer2.weights.T + model.layer2.bias


_entries = st.one_of(st.just(0.0), st.floats(-100, 100))


@st.composite
def _prepared_cases(draw):
    """A float matrix (some rows all zero, maybe no rows), a random batch of
    its row indices, a column count to append, and a model."""
    n = draw(st.integers(0, 6))
    width = draw(st.integers(1, 8))
    X = np.array(draw(st.lists(st.lists(_entries, min_size=width, max_size=width),
                               min_size=n, max_size=n)), dtype=np.float64).reshape(n, width)
    X[draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))] = 0.0
    idx = np.array(draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else [], dtype=np.int64)
    pad = draw(st.integers(1, 4))
    model = init_model(width, seed=draw(st.integers(0, 2**16)),
                       activation=draw(st.sampled_from(["identity", "relu"])))
    model.layer1.bias = np.array(draw(st.lists(st.floats(-1, 1), min_size=HIDDEN_SIZE,
                                               max_size=HIDDEN_SIZE)))
    return X, idx, pad, model


class TestPreparedRows:
    @settings(max_examples=300, deadline=None)
    @given(case=_prepared_cases())
    def test_logits_match_the_per_row_reference_bitwise(self, case):
        X, idx, pad, model = case
        wide = np.hstack([X, np.zeros((len(X), pad))])
        extended = extend_input_layer(model, model.features_count + pad)
        for m, data in ((model, X), (extended, wide)):
            rows = _prepared_rows(data)
            batch = forward_pass(m, data[idx], [rows[i] for i in idx]).logits
            assert batch.tobytes() == reference_logits(model, X[idx]).tobytes()
            assert forward_pass(m, data[idx]).logits.tobytes() == batch.tobytes()
            for i in range(len(data)):
                single = forward(m, data[i])
                assert single.tobytes() == reference_logits(model, X[i:i + 1])[0].tobytes()

    def test_rows_hold_ascending_nonzero_columns_as_float64(self):
        X = np.array([[0, 3, 0, 1], [0, 0, 0, 0]], dtype=np.uint8)
        (cols, values), (empty, _) = _prepared_rows(X)
        assert cols.tolist() == [1, 3] and values.tolist() == [3.0, 1.0]
        assert values.dtype == np.float64 and empty.size == 0


class TestWeightedCrossEntropy:
    def test_uniform_logits_loss_is_log_class_count(self):
        logits = np.zeros((1, CLASS_COUNT))
        loss, _ = weighted_cross_entropy(logits, [3], np.ones(CLASS_COUNT))
        assert abs(loss - math.log(26)) < 1e-12

    def test_confident_correct_prediction(self):
        logits = np.zeros((1, CLASS_COUNT))
        logits[0, 0] = 10.0
        loss, _ = weighted_cross_entropy(logits, [0], np.ones(CLASS_COUNT))
        assert abs(loss - math.log1p(25 * math.exp(-10))) < 1e-12

    def test_weighted_mean_combines_per_sample_losses(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(2, CLASS_COUNT))
        w = class_weight_vector(200.0)
        loss_a, _ = weighted_cross_entropy(logits[:1], [0], np.ones(CLASS_COUNT))
        loss_b, _ = weighted_cross_entropy(logits[1:], [5], np.ones(CLASS_COUNT))
        combined, _ = weighted_cross_entropy(logits, [0, 5], w)
        assert abs(combined - (200 * loss_a + loss_b) / 201) < 1e-12

    def test_softmax_rows_normalize(self):
        rng = np.random.default_rng(8)
        probs = softmax(rng.normal(scale=30, size=(50, CLASS_COUNT)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, CLASS_COUNT))
        base, _ = weighted_cross_entropy(logits, [1, 2, 3], np.ones(CLASS_COUNT))
        shifted, _ = weighted_cross_entropy(logits + 1000.0, [1, 2, 3], np.ones(CLASS_COUNT))
        assert abs(base - shifted) < 1e-9

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            logits = rng.normal(scale=5, size=(4, CLASS_COUNT))
            labels = rng.integers(0, CLASS_COUNT, size=4)
            loss, _ = weighted_cross_entropy(logits, labels, class_weight_vector())
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(np.zeros((0, CLASS_COUNT)), [], np.ones(CLASS_COUNT))

    def test_gradient_is_the_softmax_minus_one_hot_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            logits = rng.normal(scale=10, size=(n, CLASS_COUNT))
            labels = rng.integers(0, CLASS_COUNT, size=n)
            w = class_weight_vector()[labels]
            expected = softmax(logits)
            expected[np.arange(n), labels] -= 1.0
            expected *= (w / w.sum())[:, None]
            _, grad = weighted_cross_entropy(logits, labels, class_weight_vector())
            assert grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_class_weight_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="group0_weight"):
            class_weight_vector(bad)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng, features=7)
            X = (rng.random((5, 7)) < 0.4).astype(float)
            y = rng.integers(0, CLASS_COUNT, size=5)
            assert gradient_check(model, X, y, class_weight_vector()) < 1e-4

    def test_relu_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            model = random_model(rng, features=6)
            model.activation = "relu"
            X = (rng.random((4, 6)) < 0.5).astype(float)
            y = rng.integers(0, CLASS_COUNT, size=4)
            assert gradient_check(model, X, y, class_weight_vector()) < 1e-4

    def test_zero_upstream_gradient_gives_zero_grads(self):
        model = init_model(6, seed=4)
        X = np.ones((3, 6))
        cache = forward_pass(model, X)
        grads = backward(model, cache, np.zeros((3, CLASS_COUNT)))
        for g in (grads.w1, grads.b1, grads.w2, grads.b2):
            assert not g.any()

    def test_frozen_layer_still_gets_gradients(self):
        # freezing is an update-time concern only
        model = init_model(6, seed=4)
        model.layer2.frozen = True
        X = (np.random.default_rng(2).random((3, 6)) < 0.5).astype(float)
        cache = forward_pass(model, X)
        _, dlogits = weighted_cross_entropy(cache.logits, [0, 1, 2], class_weight_vector())
        grads = backward(model, cache, dlogits)
        assert grads.w2.any()


class TestColumnMultipliers:
    def test_all_ones_is_identity(self):
        g = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(apply_column_multipliers(g, np.ones(4)), g)

    def test_all_zeros_kills_gradient(self):
        g = np.arange(12.0).reshape(3, 4)
        assert not apply_column_multipliers(g, np.zeros(4)).any()

    def test_column_wise_scaling(self):
        g = np.ones((30, 5))
        m = gradient_multipliers(3, 5, rate=0.1)
        scaled = apply_column_multipliers(g, m)
        assert np.array_equal(scaled[:, :3], np.full((30, 3), 0.1))
        assert np.array_equal(scaled[:, 3:], np.ones((30, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_column_multipliers(np.ones((3, 4)), np.ones(5))

    def test_multiplier_vector_layout(self):
        m = gradient_multipliers(2, 6, rate=0.25)
        assert m.tolist() == [0.25, 0.25, 1.0, 1.0, 1.0, 1.0]


class TestAdam:
    def test_zero_gradient_leaves_parameters_bit_identical(self):
        model = init_model(5, seed=6)
        before = model.layer1.weights.copy()
        state = AdamState()
        zero = lambda p: np.zeros_like(p)
        from covvsched.neural import Gradients
        grads = Gradients(zero(model.layer1.weights), zero(model.layer1.bias),
                          zero(model.layer2.weights), zero(model.layer2.bias))
        for _ in range(3):
            adam_step(state, model, grads)
        assert np.array_equal(model.layer1.weights, before)

    def test_scalar_first_step(self):
        # theta = 1, g = 4: bias-corrected step is lr * 4 / (4 + eps)
        model = tiny_model([[1.0]], [0.0], [[0.0], [0.0]], [0.0, 0.0])
        model.layer2.frozen = True
        from covvsched.neural import Gradients
        grads = Gradients(np.array([[4.0]]), np.array([0.0]),
                          np.zeros((2, 1)), np.zeros(2))
        state = AdamState(lr=0.05)
        adam_step(state, model, grads)
        expected = 1.0 - 0.05 * 4.0 / (4.0 + 1e-8)
        assert abs(model.layer1.weights[0, 0] - expected) < 1e-12

    def test_frozen_layer_never_changes(self):
        model = init_model(4, seed=7)
        model.layer2.frozen = True
        before = model.layer2.weights.copy()
        rng = np.random.default_rng(0)
        from covvsched.neural import Gradients
        state = AdamState()
        for _ in range(5):
            grads = Gradients(rng.normal(size=model.layer1.weights.shape),
                              rng.normal(size=HIDDEN_SIZE),
                              rng.normal(size=model.layer2.weights.shape),
                              rng.normal(size=CLASS_COUNT))
            adam_step(state, model, grads)
        assert np.array_equal(model.layer2.weights, before)
        assert "w2" not in state.m

    def test_deterministic_training_trajectory(self):
        def run():
            rng = np.random.default_rng(33)
            model = init_model(10, seed=3)
            state = AdamState()
            X = (rng.random((40, 10)) < 0.3).astype(float)
            y = rng.integers(0, CLASS_COUNT, size=40)
            w = class_weight_vector()
            for _ in range(4):
                cache = forward_pass(model, X)
                _, dlogits = weighted_cross_entropy(cache.logits, y, w)
                grads = backward(model, cache, dlogits)
                adam_step(state, model, grads)
            return model

        a, b = run(), run()
        assert np.array_equal(a.layer1.weights, b.layer1.weights)
        assert np.array_equal(a.layer2.weights, b.layer2.weights)
        assert np.array_equal(a.layer1.bias, b.layer1.bias)


class TestMultiplierZeroEquivalence:
    def test_only_input_bias_trains(self):
        rng = np.random.default_rng(21)
        model = init_model(8, seed=9)
        model.layer2.frozen = True
        w1_before = model.layer1.weights.copy()
        w2_before = model.layer2.weights.copy()
        b1_before = model.layer1.bias.copy()
        state = AdamState()
        w = class_weight_vector()
        m = np.zeros(8)
        for _ in range(3):
            X = (rng.random((16, 8)) < 0.4).astype(float)
            y = rng.integers(0, CLASS_COUNT, size=16)
            cache = forward_pass(model, X)
            _, dlogits = weighted_cross_entropy(cache.logits, y, w)
            grads = backward(model, cache, dlogits)
            grads.w1 = apply_column_multipliers(grads.w1, m)
            adam_step(state, model, grads)
        assert np.array_equal(model.layer1.weights, w1_before)
        assert np.array_equal(model.layer2.weights, w2_before)
        assert not np.array_equal(model.layer1.bias, b1_before)
