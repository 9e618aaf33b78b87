"""Model lifecycle: persistence, input-layer growth, transfer training.

A trained model survives feature growth by zero-padding its input weight
matrix on the right, which leaves predictions on old inputs bitwise
unchanged. Retraining then runs with the output layer frozen and the
pretrained input columns' gradients damped; if the transferred model cannot
reach the acceptance thresholds within the epoch limit it is discarded and
fresh models are trained from scratch, fail-fast, up to a bounded number of
attempts.
"""

from __future__ import annotations

import copy
import json
import time
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
    adam_step,
    apply_column_multipliers,
    backward,
    class_weight_vector,
    forward_pass,
    gradient_multipliers,
    init_model,
    weighted_cross_entropy,
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
    wall_time_s: float


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
    except json.JSONDecodeError as exc:
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
        # the last record's old width is the pretrained width train_growing uses
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
                       batch_size: int) -> None:
    """One shuffled pass over the training set.

    The input-layer weight gradient is scaled column-wise before the
    optimizer step; the bias gradient is untouched and frozen layers are
    skipped inside the optimizer.
    """
    order = rng.permutation(len(y))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        cache = forward_pass(model, X[idx])
        _, dlogits = weighted_cross_entropy(cache.logits, y[idx], class_weights)
        grads = backward(model, cache, dlogits)
        grads.w1 = apply_column_multipliers(grads.w1, multipliers)
        adam_step(adam, model, grads)


def _gate_passes(metrics: Metrics, cfg: TrainConfig) -> bool:
    # with no group-0 test support the F1 condition is treated as satisfied
    if metrics.accuracy <= cfg.accepted_accuracy:
        return False
    f1 = metrics.group0_f1
    return f1 is None or f1 > cfg.accepted_group0_f1


def _run_attempts(split: Split, cfg: TrainConfig, features_count: int,
                  transfer_model: TwoLayerClassifier | None,
                  pretrained_features: int | None) -> tuple[TwoLayerClassifier, TrainOutcome]:
    if len(split.y_train) == 0:
        raise ValueError("empty training set")
    if split.X_train.shape[1] != features_count:
        raise ValueError(
            f"training data width {split.X_train.shape[1]} does not match {features_count}"
        )
    start = time.perf_counter()
    X_train = np.asarray(split.X_train, dtype=np.float64)
    X_test = np.asarray(split.X_test, dtype=np.float64)
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

        # evaluate before any epoch: an already-good model trains for 0 epochs
        metrics = evaluate(model, X_test, split.y_test)
        if _gate_passes(metrics, cfg):
            mode = MODE_GROWN if transfer else MODE_FULLY_RETRAINED
            return model, TrainOutcome(mode, total_epochs, attempt, metrics.accuracy,
                                       metrics.group0_f1, time.perf_counter() - start)

        adam = AdamState(lr=cfg.lr)
        rng = np.random.default_rng(cfg.seed + attempt)
        for _ in range(cfg.epochs_limit):
            run_training_epoch(model, adam, X_train, split.y_train, class_weights,
                               multipliers, rng, cfg.batch_size)
            total_epochs += 1
            metrics = evaluate(model, X_test, split.y_test)
            if _gate_passes(metrics, cfg):
                mode = MODE_GROWN if transfer else MODE_FULLY_RETRAINED
                return model, TrainOutcome(mode, total_epochs, attempt, metrics.accuracy,
                                           metrics.group0_f1, time.perf_counter() - start)

    return model, TrainOutcome(MODE_FAILED, total_epochs, cfg.max_attempts,
                               metrics.accuracy, metrics.group0_f1,
                               time.perf_counter() - start)


def train_growing(model: TwoLayerClassifier, split: Split,
                  cfg: TrainConfig) -> tuple[TwoLayerClassifier, TrainOutcome]:
    """Fine-tune a pre-trained, just-extended model on a step's dataset.

    The output layer stays frozen and pretrained input columns train at
    cfg.pretrained_gradient_rate; the rest train at rate 1.0. The pretrained
    width is the old width recorded by the most recent extension, or the
    whole width if the model was never extended. An extension to equal
    width records nothing, so a model that did not grow this step treats
    its previous extension's columns as new again. Takes ownership of
    `model`; weights are updated in place.
    """
    if model.features_count != split.X_train.shape[1]:
        raise ValueError(
            f"model width {model.features_count} does not match data width {split.X_train.shape[1]}"
        )
    if model.extension_history:
        pretrained_features = model.extension_history[-1][1]
    else:
        pretrained_features = model.features_count
    return _run_attempts(split, cfg, model.features_count, model, pretrained_features)


def train_full(features_count: int, split: Split, cfg: TrainConfig) -> tuple[TwoLayerClassifier, TrainOutcome]:
    """Train from scratch: fresh seeded weights, everything trainable."""
    return _run_attempts(split, cfg, features_count, None, None)
