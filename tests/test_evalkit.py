import json

import numpy as np
import pytest

from covvsched.evalkit import (
    REPORT_COLUMNS,
    SplitConfig,
    StepReport,
    evaluate,
    metrics_from_confusion,
    stratified_split,
    write_report,
)
from covvsched.neural import CLASS_COUNT, DenseLayer, TwoLayerClassifier
from covvsched.trace import DatasetSnapshot


def snapshot_from_labels(y, features=4):
    y = np.asarray(y, dtype=np.int64)
    X = np.zeros((len(y), features), dtype=np.uint8)
    return DatasetSnapshot(X=X, y=y)


class TestStratifiedSplit:
    def test_proportions_preserved(self):
        y = np.repeat([0, 1, 2, 3], 25)
        split = stratified_split(snapshot_from_labels(y), SplitConfig(seed=1))
        assert len(split.y_test) == 25
        for cls in range(4):
            assert 6 <= (split.y_test == cls).sum() <= 7
            assert (split.y_train == cls).sum() + (split.y_test == cls).sum() == 25
        assert split.stratified

    def test_singleton_class_falls_back_to_random(self):
        y = np.array([0] + [1] * 49)
        split = stratified_split(snapshot_from_labels(y), SplitConfig(seed=1))
        assert not split.stratified
        assert len(split.y_test) + len(split.y_train) == 50

    def test_same_seed_same_partition(self):
        y = np.repeat([0, 1, 2], 20)
        snap = snapshot_from_labels(y)
        a = stratified_split(snap, SplitConfig(seed=9))
        b = stratified_split(snap, SplitConfig(seed=9))
        assert np.array_equal(a.y_test, b.y_test)
        assert np.array_equal(a.X_test, b.X_test)

    def test_every_class_lands_on_both_sides(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            sizes = rng.integers(2, 30, size=rng.integers(2, 6))
            y = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
            split = stratified_split(snapshot_from_labels(y), SplitConfig(seed=trial))
            for cls in range(len(sizes)):
                assert (split.y_train == cls).any()
                assert (split.y_test == cls).any()

    def test_per_class_share_within_one_sample(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            sizes = rng.integers(4, 40, size=4)
            y = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
            split = stratified_split(snapshot_from_labels(y), SplitConfig(seed=trial))
            for cls, size in enumerate(sizes):
                got = (split.y_test == cls).sum()
                assert abs(got - round(size * 0.25)) <= 1

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(snapshot_from_labels([0, 1, 1]), SplitConfig())

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            SplitConfig(test_fraction=0.0)


def constant_model(cls, features=4):
    """Predicts `cls` for every all-zero row via the output bias."""
    b2 = np.zeros(CLASS_COUNT)
    b2[cls] = 1.0
    return TwoLayerClassifier(
        layer1=DenseLayer(np.zeros((30, features)), np.zeros(30)),
        layer2=DenseLayer(np.zeros((CLASS_COUNT, 30)), b2),
    )


class TestEvaluate:
    def test_perfect_predictions(self):
        model = constant_model(1)
        m = evaluate(model, np.zeros((10, 4)), np.ones(10, dtype=int))
        assert m.accuracy == 1.0
        assert m.f1[1] == 1.0
        assert m.support[1] == 10

    def test_group0_f1_is_none_without_support(self):
        model = constant_model(1)
        m = evaluate(model, np.zeros((10, 4)), np.ones(10, dtype=int))
        assert m.group0_f1 is None
        assert np.isnan(m.f1[0])

    def test_half_right_binary_case(self):
        # confusion for class 0: TP=1, FP=1, FN=1, TN=1
        confusion = np.zeros((CLASS_COUNT, CLASS_COUNT), dtype=np.int64)
        confusion[0, 0] = 1
        confusion[0, 1] = 1
        confusion[1, 0] = 1
        confusion[1, 1] = 1
        m = metrics_from_confusion(confusion)
        assert m.accuracy == 0.5
        assert m.precision[0] == 0.5
        assert m.recall[0] == 0.5
        assert m.f1[0] == 0.5
        assert m.group0_f1 == 0.5

    def test_scalars_recomputable_from_confusion(self):
        rng = np.random.default_rng(6)
        confusion = np.zeros((CLASS_COUNT, CLASS_COUNT), dtype=np.int64)
        confusion[:6, :6] = rng.integers(0, 30, size=(6, 6))
        m = metrics_from_confusion(confusion)
        assert abs(m.accuracy - np.trace(m.confusion) / m.confusion.sum()) < 1e-12
        for c in range(CLASS_COUNT):
            if m.support[c] == 0:
                continue
            tp = m.confusion[c, c]
            predicted = m.confusion[:, c].sum()
            p = tp / predicted if predicted else 0.0
            r = tp / m.support[c]
            assert abs(m.precision[c] - p) < 1e-12
            assert abs(m.recall[c] - r) < 1e-12
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(m.f1[c] - f1) < 1e-12
        assert m.support.sum() == m.confusion.sum()

    def test_swapping_roles_swaps_precision_and_recall(self):
        rng = np.random.default_rng(7)
        confusion = rng.integers(0, 20, size=(CLASS_COUNT, CLASS_COUNT))
        m = metrics_from_confusion(confusion)
        m_t = metrics_from_confusion(confusion.T)
        both = ~np.isnan(m.precision) & ~np.isnan(m_t.recall)
        np.testing.assert_allclose(m.precision[both], m_t.recall[both], atol=0)
        both = ~np.isnan(m.recall) & ~np.isnan(m_t.precision)
        np.testing.assert_allclose(m.recall[both], m_t.precision[both], atol=0)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(constant_model(0), np.zeros((0, 4)), np.zeros(0, dtype=int))


def sample_rows():
    return [
        StepReport(step_time=960, features_count=15_960, model="growing",
                   epochs=1, attempts=1, accuracy=0.98214, group0_f1=None),
        StepReport(step_time=1260, features_count=15_962, model="fully_retrain",
                   epochs=6, attempts=1, accuracy=1.0, group0_f1=1.0),
    ]


class TestWriteReport:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([], path)
        assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"

    def test_missing_f1_renders_empty_csv_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(sample_rows(), path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith("0.98214,")
        assert lines[2].endswith("1.0,1.0")

    def test_missing_f1_is_json_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(sample_rows(), path, fmt="json")
        doc = json.loads(path.read_text())
        assert doc[0]["group0_f1"] is None
        assert doc[1]["group0_f1"] == 1.0
        assert list(doc[0]) == list(REPORT_COLUMNS)

    def test_identical_rows_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(sample_rows(), a)
        write_report(sample_rows(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([], tmp_path / "r.xml", fmt="xml")
