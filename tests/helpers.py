"""Shared test utilities: an independent finite-difference gradient oracle,
a JSONL fixture form of node inventories, and a strategy for arbitrary JSON.

The reference loss below is written from scratch with plain dense numpy
ops, deliberately sharing no code with the library's forward pass, so the
gradient check compares two independent implementations.
"""

import json

import numpy as np
from hypothesis import strategies as st

from covvsched.covv import FeatureRegistry
from covvsched.neural import Gradients, TwoLayerClassifier
from covvsched.oracle import NodeInventory, apply_machine_event


def reference_loss(model: TwoLayerClassifier, X, y, class_weights) -> float:
    """Weighted softmax cross-entropy computed the straightforward dense way."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    hidden = X @ model.layer1.weights.T + model.layer1.bias
    if model.activation == "relu":
        hidden = np.maximum(hidden, 0.0)
    logits = hidden @ model.layer2.weights.T + model.layer2.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    nll = log_norm - shifted[np.arange(len(y)), y]
    w = np.asarray(class_weights, dtype=np.float64)[y]
    return float((w * nll).sum() / w.sum())


def finite_difference_gradients(model: TwoLayerClassifier, X, y, class_weights,
                                h: float = 1e-5) -> Gradients:
    """Central differences over every parameter, against the reference loss."""
    params = [
        ("w1", model.layer1.weights),
        ("b1", model.layer1.bias),
        ("w2", model.layer2.weights),
        ("b2", model.layer2.bias),
    ]
    out = {}
    for name, param in params:
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            hi = reference_loss(model, X, y, class_weights)
            param[idx] = orig - h
            lo = reference_loss(model, X, y, class_weights)
            param[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * h)
            it.iternext()
        out[name] = grad
    return Gradients(w1=out["w1"], b1=out["b1"], w2=out["w2"], b2=out["b2"])


def max_relative_error(analytic, numeric, floor: float = 1e-4) -> float:
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(model, X, y, class_weights, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-finite-difference gradients."""
    from covvsched.neural import backward, forward_pass, weighted_cross_entropy

    cache = forward_pass(model, X)
    _, dlogits = weighted_cross_entropy(cache.logits, y, class_weights)
    grads = backward(model, cache, dlogits)
    numeric = finite_difference_gradients(model, X, y, class_weights, h=h)
    return max(
        max_relative_error(grads.w1, numeric.w1),
        max_relative_error(grads.b1, numeric.b1),
        max_relative_error(grads.w2, numeric.w2),
        max_relative_error(grads.b2, numeric.b2),
    )


def inventory_to_jsonl(inventory: NodeInventory) -> str:
    """Serialize for test fixtures: one (node, attribute, value) triple per line."""
    lines = []
    for node in sorted(inventory.nodes):
        for attribute in sorted(inventory.nodes[node]):
            lines.append(json.dumps(
                {"node": node, "attr": attribute, "val": inventory.nodes[node][attribute]},
                separators=(",", ":"),
            ))
    return "\n".join(lines) + ("\n" if lines else "")


def inventory_from_jsonl(text: str, registry: FeatureRegistry | None = None) -> NodeInventory:
    """Rebuild an inventory from its fixture form, optionally feeding a registry."""
    inventory = NodeInventory()
    reg = registry if registry is not None else FeatureRegistry()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            node, attribute, value = obj["node"], obj["attr"], obj["val"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: bad inventory record: {exc}") from None
        apply_machine_event(inventory, reg, node, attribute, value)
    return inventory


# any JSON value, nested a little
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
