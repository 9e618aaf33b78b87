"""Stratified splitting, classification metrics, and per-step reporting."""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .neural import CLASS_COUNT, TwoLayerClassifier, forward_pass
from .trace import DatasetSnapshot

log = logging.getLogger(__name__)


@dataclass
class SplitConfig:
    """Holdout share and seed. The split is always stratified when every
    present class has two samples; otherwise it falls back to a plain
    random split and logs a warning."""

    test_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {self.test_fraction}")


@dataclass
class Split:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray


def stratified_split(snapshot: DatasetSnapshot, cfg: SplitConfig) -> Split:
    """Seeded holdout split preserving class proportions when feasible.

    Stratification requires at least two samples of every present class;
    otherwise a plain seeded random split is used and a warning logged.
    Test counts per class follow largest-remainder rounding and
    every class keeps at least one sample on each side.
    """
    n = len(snapshot)
    if n < 4:
        raise ValueError(f"need at least 4 rows to split, got {n}")
    rng = np.random.default_rng(cfg.seed)
    y = snapshot.y
    classes, counts = np.unique(y, return_counts=True)

    if int(counts.min()) < 2:
        log.warning("class with fewer than 2 samples; falling back to plain random split")
        perm = rng.permutation(n)
        n_test = min(max(1, round(n * cfg.test_fraction)), n - 1)
        test_idx = np.sort(perm[:n_test])
        train_idx = np.sort(perm[n_test:])
        return Split(snapshot.X[train_idx], y[train_idx], snapshot.X[test_idx], y[test_idx])

    total_test = min(max(1, round(n * cfg.test_fraction)), n - 1)
    raw = counts * cfg.test_fraction
    take = np.floor(raw).astype(int)
    remainder = raw - take
    spare = total_test - int(take.sum())
    # hand out leftovers by descending fractional remainder, class id breaking ties
    for pos in sorted(range(len(classes)), key=lambda i: (-remainder[i], classes[i])):
        if spare <= 0:
            break
        if take[pos] < counts[pos] - 1:
            take[pos] += 1
            spare -= 1
    take = np.clip(take, 1, counts - 1)

    test_parts = []
    train_parts = []
    for pos, cls in enumerate(classes):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        test_parts.append(idx[: take[pos]])
        train_parts.append(idx[take[pos]:])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    return Split(snapshot.X[train_idx], y[train_idx], snapshot.X[test_idx], y[test_idx])


@dataclass
class Metrics:
    """Scores derived from one confusion matrix.

    Per-class arrays hold NaN for classes absent from the test set; the
    scalar group0_f1 is None in that case.
    """

    accuracy: float
    confusion: np.ndarray  # [26, 26], rows true, columns predicted
    support: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float  # informational, mean over present classes

    @property
    def group0_f1(self):
        if math.isnan(self.f1[0]):
            return None
        return float(self.f1[0])


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = int(confusion.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    tp = np.diag(confusion).astype(np.float64)
    accuracy = float(tp.sum() / total)

    precision = np.full(len(confusion), np.nan)
    recall = np.full(len(confusion), np.nan)
    f1 = np.full(len(confusion), np.nan)
    for c in range(len(confusion)):
        if support[c] == 0:
            continue
        p = tp[c] / predicted[c] if predicted[c] > 0 else 0.0
        r = tp[c] / support[c]
        precision[c] = p
        recall[c] = r
        f1[c] = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    present = support > 0
    macro_f1 = float(np.mean(f1[present]))
    return Metrics(accuracy=accuracy, confusion=confusion, support=support,
                   precision=precision, recall=recall, f1=f1, macro_f1=macro_f1)


def evaluate(model: TwoLayerClassifier, X, y, rows=None) -> Metrics:
    """Argmax predictions scored against labels via the confusion matrix.

    `rows`, when given, are X's rows as `neural._prepared_rows` returns them.
    """
    y = np.asarray(y, dtype=np.int64).ravel()
    if len(y) == 0:
        raise ValueError("empty test set")
    logits = forward_pass(model, X, rows).logits
    predictions = np.argmax(logits, axis=1)
    confusion = np.zeros((CLASS_COUNT, CLASS_COUNT), dtype=np.int64)
    np.add.at(confusion, (y, predictions), 1)
    return metrics_from_confusion(confusion)


@dataclass
class StepReport:
    """One retraining step of one model arm."""

    step_time: int
    features_count: int
    model: str
    epochs: int
    attempts: int
    accuracy: float
    group0_f1: float | None


REPORT_COLUMNS = ("step_time", "features_count", "model", "epochs", "attempts",
                  "accuracy", "group0_f1")


def write_report(rows, path, fmt: str = "csv") -> None:
    """Serialize step reports. Identical rows produce identical bytes.

    Missing group-0 F1 renders as an empty CSV cell and as JSON null.
    """
    rows = [{c: getattr(r, c) for c in REPORT_COLUMNS} for r in rows]
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for row in rows:
                writer.writerow(["" if v is None else v for v in row.values()])
    elif fmt == "json":
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
            f.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
