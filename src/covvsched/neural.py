"""Dense two-layer classifier numerics, written out by hand.

Forward pass, weighted softmax cross-entropy with its analytic gradient,
backpropagation, Adam, per-input-column gradient multipliers and layer
freezing. The input layer contracts over each sample's nonzero entries in
column order, so appending zero columns to both inputs and weights leaves
every intermediate sum bitwise untouched; the growing-model guarantees
depend on that. `_prepared_rows` finds each row's nonzero columns and
values: a dense input is prepared on entry to `forward_pass`, and training
prepares its train and test rows at most once per call and hands them to
every forward pass that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HIDDEN_SIZE = 30
CLASS_COUNT = 26

ACTIVATIONS = ("identity", "relu")


@dataclass
class DenseLayer:
    weights: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    frozen: bool = False  # frozen layers receive no parameter updates


@dataclass
class TwoLayerClassifier:
    layer1: DenseLayer  # features -> HIDDEN_SIZE
    layer2: DenseLayer  # HIDDEN_SIZE -> CLASS_COUNT
    activation: str = "identity"
    creation_seed: int = 0
    # (step_time, old_features, new_features) per input-layer extension
    extension_history: list = field(default_factory=list)

    @property
    def features_count(self) -> int:
        return self.layer1.weights.shape[1]


def init_model(features_count: int, seed: int, activation: str = "identity") -> TwoLayerClassifier:
    """Fresh model with uniform +-1/sqrt(fan_in) weights and zero biases."""
    if features_count < 1:
        raise ValueError(f"features_count must be >= 1, got {features_count}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / math.sqrt(features_count)
    bound2 = 1.0 / math.sqrt(HIDDEN_SIZE)
    layer1 = DenseLayer(
        weights=rng.uniform(-bound1, bound1, size=(HIDDEN_SIZE, features_count)),
        bias=np.zeros(HIDDEN_SIZE),
    )
    layer2 = DenseLayer(
        weights=rng.uniform(-bound2, bound2, size=(CLASS_COUNT, HIDDEN_SIZE)),
        bias=np.zeros(CLASS_COUNT),
    )
    return TwoLayerClassifier(layer1=layer1, layer2=layer2, activation=activation,
                              creation_seed=seed)


def _prepared_rows(X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of the 2-D `X` as (its nonzero columns in ascending order,
    their values as float64), the form `_project_rows` reads."""
    rows = []
    for row in X:
        nz = row.nonzero()[0]
        rows.append((nz, row[nz].astype(np.float64, copy=False)))
    return rows


def _project_rows(weights: np.ndarray, bias: np.ndarray, rows) -> np.ndarray:
    # per-sample contraction over the prepared nonzero columns, in ascending
    # order; the arrays handed to BLAS are identical before and after
    # zero-column growth, which keeps old logits bit-exact
    out = np.empty((len(rows), len(bias)))
    out[:] = bias
    for i, (nz, values) in enumerate(rows):
        if nz.size:
            out[i] += weights[:, nz] @ values
    return out


@dataclass
class ForwardCache:
    X: np.ndarray
    hidden_pre: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray


def forward_pass(model: TwoLayerClassifier, x, rows=None) -> ForwardCache:
    """Full forward pass keeping the intermediates backprop needs.

    `rows`, when given, are the 2-D batch `x`'s rows as `_prepared_rows`
    returns them, and `x` is kept as it is; otherwise `x` is a vector or a
    batch of rows, prepared here.
    """
    if rows is None:
        X = np.asarray(x, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        elif X.ndim != 2:
            raise ValueError(f"input must be 1-D or 2-D, got shape {X.shape}")
        rows = _prepared_rows(X)
    else:
        X = x
    if X.shape[1] != model.features_count:
        raise ValueError(
            f"input width {X.shape[1]} does not match model width {model.features_count}"
        )
    hidden_pre = _project_rows(model.layer1.weights, model.layer1.bias, rows)
    if model.activation == "relu":
        hidden = np.maximum(hidden_pre, 0.0)
    else:
        hidden = hidden_pre
    logits = hidden @ model.layer2.weights.T + model.layer2.bias
    return ForwardCache(X=X, hidden_pre=hidden_pre, hidden=hidden, logits=logits)


def forward(model: TwoLayerClassifier, x) -> np.ndarray:
    """Logits for a single vector or a batch of rows."""
    logits = forward_pass(model, x).logits
    return logits[0] if np.ndim(x) == 1 else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def class_weight_vector(group0_weight: float = 200.0) -> np.ndarray:
    """Per-class loss weights: heavy on group 0, unit elsewhere."""
    if not (math.isfinite(group0_weight) and group0_weight > 0):
        raise ValueError(f"group0_weight must be finite and positive, got {group0_weight}")
    w = np.ones(CLASS_COUNT)
    w[0] = group0_weight
    return w


def weighted_cross_entropy(logits, labels, class_weights) -> tuple[float, np.ndarray]:
    """Weighted-mean softmax cross-entropy and its gradient in the logits.

    loss = sum_i w[y_i] * nll_i / sum_i w[y_i]
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    class_weights = np.asarray(class_weights, dtype=np.float64)
    n = len(labels)
    if n == 0:
        raise ValueError("empty batch")
    if logits.shape[0] != n:
        raise ValueError(f"{logits.shape[0]} logit rows for {n} labels")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("labels out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    nll = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), labels]
    w = class_weights[labels]
    loss = float((w * nll).sum() / w.sum())
    return loss, _cross_entropy_grad(logits, labels, w)


def _cross_entropy_grad(logits: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The gradient half of `weighted_cross_entropy`, without its checks:
    float64 logits [n, classes], in-range labels [n], per-row weights `w`."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    grad = e / e.sum(axis=1)[:, None]  # the softmax
    grad[np.arange(len(labels)), labels] -= 1.0
    grad *= (w / w.sum())[:, None]
    return grad


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def backward(model: TwoLayerClassifier, cache: ForwardCache, dlogits: np.ndarray) -> Gradients:
    """Analytic gradients for all parameters.

    Frozen layers still get gradients; freezing is an update-time concern.
    """
    dlogits = np.atleast_2d(np.asarray(dlogits, dtype=np.float64))
    dw2 = dlogits.T @ cache.hidden
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ model.layer2.weights
    if model.activation == "relu":
        dhidden = dhidden * (cache.hidden_pre > 0.0)
    dw1 = dhidden.T @ cache.X
    db1 = dhidden.sum(axis=0)
    return Gradients(w1=dw1, b1=db1, w2=dw2, b2=db2)


def gradient_multipliers(pretrained_count: int, features_count: int, rate: float = 0.1) -> np.ndarray:
    """Per-input-column gradient factors: `rate` on pretrained columns, 1 on new ones."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0,1], got {rate}")
    if not 0 <= pretrained_count <= features_count:
        raise ValueError(f"pretrained_count {pretrained_count} outside [0, {features_count}]")
    m = np.ones(features_count)
    m[:pretrained_count] = rate
    return m


def apply_column_multipliers(grad_w1: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Scale every row of the input-layer weight gradient column-wise."""
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if multipliers.shape != (grad_w1.shape[1],):
        raise ValueError(
            f"multiplier length {multipliers.shape} does not match {grad_w1.shape[1]} columns"
        )
    return grad_w1 * multipliers[None, :]


@dataclass
class AdamState:
    """Optimizer state. Created fresh per training run, never persisted."""

    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, model: TwoLayerClassifier, grads: Gradients) -> None:
    """One Adam update with bias correction, in place.

    Parameters of frozen layers are skipped entirely: no moment update, no
    change.
    """
    state.step_count += 1
    t = state.step_count
    updates = (
        ("w1", model.layer1, "weights", grads.w1),
        ("b1", model.layer1, "bias", grads.b1),
        ("w2", model.layer2, "weights", grads.w2),
        ("b2", model.layer2, "bias", grads.b2),
    )
    for name, layer, attr, grad in updates:
        if layer.frozen:
            continue
        param = getattr(layer, attr)
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {param.shape} for {name}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(param)
            state.v[name] = np.zeros_like(param)
        v = state.v[name]
        m = state.beta1 * m + (1.0 - state.beta1) * grad
        v = state.beta2 * v + (1.0 - state.beta2) * grad * grad
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        param -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
