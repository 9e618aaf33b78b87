"""Model lifecycle: persistence, input-layer growth, transfer training.

A trained model survives feature growth by zero-padding its input weight
matrix on the right, which leaves predictions on old inputs bitwise
unchanged. `train_growing` pads the carried model to the width of the
step's data itself, then retrains with the output layer frozen and the
carried model's own input columns' gradients damped; if the transferred
model cannot reach the acceptance thresholds within the epoch limit it is
discarded and fresh models are trained from scratch, fail-fast, up to a
bounded number of attempts. Every width is read from the training data.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .evalkit import Metrics, Split, evaluate
from .neural import (
    ACTIVATIONS,
    CLASS_COUNT,
    HIDDEN_SIZE,
    AdamState,
    DenseLayer,
    TwoLayerClassifier,
    _cross_entropy_grad,
    _prepared_rows,
    adam_step,
    apply_column_multipliers,
    backward,
    class_weight_vector,
    forward_pass,
    gradient_multipliers,
    init_model,
)

MODEL_FORMAT_VERSION = 1

MODE_GROWN = "grown"
MODE_FULLY_RETRAINED = "fully_retrained"
MODE_FAILED = "failed"


class ModelFormatError(ValueError):
    """Unreadable or inconsistent model state file."""


@dataclass
class TrainConfig:
    lr: float = 0.05
    group0_weight: float = 200.0
    pretrained_gradient_rate: float = 0.1
    epochs_limit: int = 100
    accepted_accuracy: float = 0.95
    accepted_group0_f1: float = 0.9
    max_attempts: int = 10
    batch_size: int = 64
    seed: int = 0
    activation: str = "identity"

    def __post_init__(self):
        # json reads NaN and Infinity; either would train to non-finite weights
        for name in ("lr", "group0_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.accepted_accuracy <= 1.0:
            raise ValueError(f"accepted_accuracy must be in (0,1], got {self.accepted_accuracy}")
        if not 0.0 < self.accepted_group0_f1 <= 1.0:
            raise ValueError(f"accepted_group0_f1 must be in (0,1], got {self.accepted_group0_f1}")
        if self.epochs_limit < 1:
            raise ValueError(f"epochs_limit must be >= 1, got {self.epochs_limit}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.pretrained_gradient_rate <= 1.0:
            raise ValueError(
                f"pretrained_gradient_rate must be in [0,1], got {self.pretrained_gradient_rate}"
            )


@dataclass
class TrainOutcome:
    mode: str  # MODE_GROWN | MODE_FULLY_RETRAINED | MODE_FAILED
    epochs_used: int  # total epochs across all attempts
    attempts_used: int
    accuracy: float
    group0_f1: float | None


def save_state(model: TwoLayerClassifier, path) -> None:
    """Write the model as a versioned JSON document.

    Weights round-trip bit-exactly (floats serialize via their shortest
    round-tripping repr). Optimizer state is never persisted; every training
    run builds a fresh one.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "features_count": model.features_count,
        "hidden": HIDDEN_SIZE,
        "classes": CLASS_COUNT,
        "activation": model.activation,
        "creation_seed": model.creation_seed,
        "extension_history": [list(rec) for rec in model.extension_history],
        "weights": {
            "w1": model.layer1.weights.tolist(),
            "b1": model.layer1.bias.tolist(),
            "w2": model.layer2.weights.tolist(),
            "b2": model.layer2.bias.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_state(path) -> TwoLayerClassifier:
    """Read a model state file, checking version and dimension consistency."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: not a model state file: {exc}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError(f"{path}: missing format_version")
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version} not supported (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        w1 = np.asarray(doc["weights"]["w1"], dtype=np.float64)
        b1 = np.asarray(doc["weights"]["b1"], dtype=np.float64)
        w2 = np.asarray(doc["weights"]["w2"], dtype=np.float64)
        b2 = np.asarray(doc["weights"]["b2"], dtype=np.float64)
        features_count = doc["features_count"]
        hidden = doc["hidden"]
        classes = doc["classes"]
        activation = doc["activation"]
        creation_seed = doc["creation_seed"]
        history = [tuple(rec) for rec in doc["extension_history"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model state: {exc}") from None
    if w1.shape != (hidden, features_count) or b1.shape != (hidden,):
        raise ModelFormatError(f"{path}: input layer shape mismatch")
    if w2.shape != (classes, hidden) or b2.shape != (classes,):
        raise ModelFormatError(f"{path}: output layer shape mismatch")
    if hidden != HIDDEN_SIZE or classes != CLASS_COUNT:
        raise ModelFormatError(
            f"{path}: unsupported dimensions hidden={hidden} classes={classes}"
        )
    if activation not in ACTIVATIONS:
        raise ModelFormatError(f"{path}: unknown activation {activation!r}")
    for rec in history:
        # a model file is outside input: each record must describe a real widening
        if not (len(rec) == 3 and all(type(v) is int for v in rec)
                and 0 <= rec[1] < rec[2] <= w1.shape[1]):
            raise ModelFormatError(f"{path}: bad extension_history record {list(rec)!r}")
    for name, values in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
        # a NaN logit argmaxes to group 0 and would route every task high-priority
        if not np.isfinite(values).all():
            raise ModelFormatError(f"{path}: non-finite value in {name}")
    return TwoLayerClassifier(
        layer1=DenseLayer(weights=w1, bias=b1),
        layer2=DenseLayer(weights=w2, bias=b2),
        activation=activation,
        creation_seed=creation_seed,
        extension_history=history,
    )


def extend_input_layer(model: TwoLayerClassifier, new_features_count: int,
                       step_time: int = 0) -> TwoLayerClassifier:
    """Grow the input layer to `new_features_count` columns, padding with zeros.

    The new columns attach on the right; bias and output layer are
    untouched, so any old input extended with zeros produces exactly the
    old logits. Shrinking is an error; equal width is a no-op.
    """
    old = model.features_count
    if new_features_count < old:
        raise ValueError(f"cannot shrink input layer from {old} to {new_features_count}")
    extended = copy.deepcopy(model)
    if new_features_count == old:
        return extended
    pad = np.zeros((HIDDEN_SIZE, new_features_count - old))
    extended.layer1.weights = np.hstack([extended.layer1.weights, pad])
    extended.extension_history.append((step_time, old, new_features_count))
    return extended


def run_training_epoch(model: TwoLayerClassifier, adam: AdamState, X: np.ndarray,
                       y: np.ndarray, class_weights: np.ndarray,
                       multipliers: np.ndarray, rng: np.random.Generator,
                       batch_size: int, rows=None) -> None:
    """One shuffled pass over the training set.

    `rows` are X's rows as `neural._prepared_rows` returns them, prepared
    here when not given; only each batch of X is cast to float64. The
    input-layer weight gradient is scaled column-wise before the optimizer
    step; the bias gradient is untouched and frozen layers are skipped
    inside the optimizer.
    """
    if rows is None:
        rows = _prepared_rows(X)
    order = rng.permutation(len(y))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        batch = np.asarray(X[idx], dtype=np.float64)
        cache = forward_pass(model, batch, [rows[i] for i in idx.tolist()])
        labels = y[idx]
        dlogits = _cross_entropy_grad(cache.logits, labels, class_weights[labels])
        grads = backward(model, cache, dlogits)
        grads.w1 = apply_column_multipliers(grads.w1, multipliers)
        adam_step(adam, model, grads)


def _gate_passes(metrics: Metrics, cfg: TrainConfig) -> bool:
    # with no group-0 test support the F1 condition is treated as satisfied
    if metrics.accuracy <= cfg.accepted_accuracy:
        return False
    f1 = metrics.group0_f1
    return f1 is None or f1 > cfg.accepted_group0_f1


def _run_attempts(split: Split, cfg: TrainConfig,
                  transfer_model: TwoLayerClassifier | None = None,
                  pretrained_features: int = 0) -> tuple[TwoLayerClassifier, TrainOutcome]:
    if len(split.y_train) == 0:
        raise ValueError("empty training set")
    # every gate evaluation and epoch of every attempt reads these; the
    # training rows wait for the first epoch, which a model that already
    # passes the gate never runs
    test_rows = _prepared_rows(split.X_test)
    train_rows = None
    features_count = split.X_train.shape[1]
    class_weights = class_weight_vector(cfg.group0_weight)
    activation = transfer_model.activation if transfer_model is not None else cfg.activation
    total_epochs = 0
    model = None
    metrics = None

    for attempt in range(1, cfg.max_attempts + 1):
        transfer = attempt == 1 and transfer_model is not None
        if transfer:
            model = transfer_model
            model.layer1.frozen = False
            model.layer2.frozen = True
            multipliers = gradient_multipliers(pretrained_features, features_count,
                                               cfg.pretrained_gradient_rate)
        else:
            # fail-fast: the transferred model is discarded, fresh weights,
            # everything trainable; retry seeds differ deterministically
            model = init_model(features_count, seed=cfg.seed + attempt, activation=activation)
            multipliers = np.ones(features_count)

        adam = AdamState(lr=cfg.lr)
        rng = np.random.default_rng(cfg.seed + attempt)
        # evaluate before any epoch too: an already-good model trains for 0 epochs
        for epoch in range(cfg.epochs_limit + 1):
            if epoch:
                if train_rows is None:
                    train_rows = _prepared_rows(split.X_train)
                run_training_epoch(model, adam, split.X_train, split.y_train, class_weights,
                                   multipliers, rng, cfg.batch_size, train_rows)
                total_epochs += 1
            metrics = evaluate(model, split.X_test, split.y_test, test_rows)
            if _gate_passes(metrics, cfg):
                mode = MODE_GROWN if transfer else MODE_FULLY_RETRAINED
                return model, TrainOutcome(mode, total_epochs, attempt, metrics.accuracy,
                                           metrics.group0_f1)

    return model, TrainOutcome(MODE_FAILED, total_epochs, cfg.max_attempts,
                               metrics.accuracy, metrics.group0_f1)


def train_growing(model: TwoLayerClassifier, split: Split, cfg: TrainConfig,
                  step_time: int = 0) -> tuple[TwoLayerClassifier, TrainOutcome]:
    """Extend the carried `model` to the split's width and fine-tune it.

    The extension is recorded at `step_time`, and `model` itself is left
    untouched. The output layer stays frozen; the carried model's own
    input columns train at cfg.pretrained_gradient_rate and only the
    columns this extension adds train at rate 1.0, so a step without
    growth damps every column. A split narrower than the model is an
    error.
    """
    extended = extend_input_layer(model, split.X_train.shape[1], step_time=step_time)
    return _run_attempts(split, cfg, extended, model.features_count)


def train_full(split: Split, cfg: TrainConfig) -> tuple[TwoLayerClassifier, TrainOutcome]:
    """Train from scratch at the split's width: fresh seeded weights,
    everything trainable."""
    return _run_attempts(split, cfg)
