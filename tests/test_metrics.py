import numpy as np
import pytest

from beamsight.metrics import (
    ConfusionMatrix,
    average_precision,
    iou,
    mean_average_precision,
    precision_recall,
    report,
    top1,
)
from beamsight.pipeline import FutureLabel, LabeledSample, ObservedSequence, WindowTable
from beamsight.scene import VehicleClass


class TestTop1:
    def test_all_correct(self):
        assert top1([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert top1([1, 1, 1], [0, 0, 0]) == 0.0

    def test_mixed_matches_hand_count(self):
        preds = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        labels = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
        # agree at indices 0, 2, 4, 5, 7, 8, 9 -> 7 of 10
        assert top1(preds, labels) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top1([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            top1([1], [1, 0])


class TestPrecisionRecall:
    def test_fig9_style_structure(self):
        cm = ConfusionMatrix(tp=92, fn=8, fp=18, tn=82)
        precision, recall = precision_recall(cm)
        assert recall == pytest.approx(0.92)
        assert precision == pytest.approx(92 / 110)

    def test_perfect(self):
        cm = ConfusionMatrix(tp=5, fn=0, fp=0, tn=5)
        assert precision_recall(cm) == (1.0, 1.0)

    def test_zero_tp_with_fp(self):
        cm = ConfusionMatrix(tp=0, fp=4, tn=2, fn=3)
        precision, recall = precision_recall(cm)
        assert precision == 0.0
        assert recall == 0.0

    def test_degenerate_denominators_undefined(self):
        cm = ConfusionMatrix(tp=0, fp=0, tn=7, fn=0)
        precision, recall = precision_recall(cm)
        assert precision is None
        assert recall is None

    def test_accuracy_identity(self):
        cm = ConfusionMatrix(tp=3, fp=2, tn=4, fn=1)
        assert cm.total == 10
        assert cm.accuracy == (3 + 4) / 10


class TestIou:
    def test_identical_boxes(self):
        assert iou((0, 0, 1, 1), (0, 0, 1, 1)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_hand_computed_case(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert abs(iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1.0 / 7.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = _random_box(rng)
            b = _random_box(rng)
            assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-15)
            assert iou(a, a) == 1.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            iou((1, 0, 0, 1), (0, 0, 1, 1))


def _random_box(rng):
    x1, y1 = rng.uniform(0, 0.6, size=2)
    return (x1, y1, x1 + rng.uniform(0.05, 0.4), y1 + rng.uniform(0.05, 0.4))


class TestAveragePrecision:
    def test_perfect_detector(self):
        truths = [(0, (0.1, 0.1, 0.3, 0.3)), (0, (0.5, 0.5, 0.8, 0.8)),
                  (1, (0.2, 0.2, 0.4, 0.4))]
        preds = [(f, box, 1.0) for f, box in truths]
        assert average_precision(preds, truths) == 1.0

    def test_silent_detector(self):
        truths = [(0, (0.1, 0.1, 0.3, 0.3))]
        assert average_precision([], truths) == 0.0

    def test_five_detection_case_matches_curve_oracle(self):
        # two truths in frame 0; three rankable predictions plus two misses
        truths = [(0, (0.0, 0.0, 0.2, 0.2)), (0, (0.5, 0.5, 0.7, 0.7))]
        preds = [
            (0, (0.0, 0.0, 0.2, 0.2), 0.9),    # TP
            (0, (0.8, 0.8, 0.9, 0.9), 0.8),    # FP
            (0, (0.5, 0.5, 0.7, 0.7), 0.7),    # TP
            (0, (0.3, 0.3, 0.4, 0.4), 0.6),    # FP
            (0, (0.0, 0.0, 0.2, 0.2), 0.5),    # FP (truth already matched)
        ]
        # brute-force PR curve: ranks give tp=[1,0,1,0,0]
        # recall  = [.5, .5, 1., 1., 1.]
        # precis  = [1., .5, 2/3, .5, .4]
        # envelope at recall steps: 0->0.5 uses p=1.0; 0.5->1.0 uses 2/3
        expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
        assert average_precision(preds, truths) == pytest.approx(expected, abs=1e-12)

    def test_equal_confidence_stable_order(self):
        truths = [(0, (0.0, 0.0, 0.2, 0.2))]
        preds = [
            (0, (0.0, 0.0, 0.2, 0.2), 0.5),
            (0, (0.6, 0.6, 0.8, 0.8), 0.5),
        ]
        ap_a = average_precision(preds, truths)
        # reversing equal-confidence entries changes the ranking, by design
        ap_b = average_precision(preds[::-1], truths)
        assert ap_a == 1.0
        assert ap_b == pytest.approx(0.5)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            average_precision([], [(0, (0, 0, 1, 1))], iou_threshold=0.0)


class TestMeanAveragePrecision:
    def test_missing_class_excluded(self):
        truths = {VehicleClass.CAR: [(0, (0.1, 0.1, 0.3, 0.3))]}
        preds = {VehicleClass.CAR: [(0, (0.1, 0.1, 0.3, 0.3), 1.0)]}
        m, per_class = mean_average_precision(preds, truths)
        assert m == 1.0
        assert per_class[VehicleClass.BUS] is None
        assert per_class[VehicleClass.TRUCK] is None

    def test_all_classes(self):
        truths, preds = {}, {}
        for i, cls in enumerate(VehicleClass):
            box = (0.1 * i, 0.1, 0.1 * i + 0.2, 0.4)
            truths[cls] = [(0, box)]
            preds[cls] = [(0, box, 0.9)]
        m, per_class = mean_average_precision(preds, truths)
        assert m == 1.0
        assert all(v == 1.0 for v in per_class.values())


def make_sample(camera, status, instance):
    window = tuple(1 if i + 1 >= instance else 0 for i in range(5)) if status else (0,) * 5
    seq = ObservedSequence(camera_id=camera, user_id=0, t_end=instance * 10 + camera,
                           beams=[1] * 8, detections=[[] for _ in range(8)])
    return LabeledSample(seq, FutureLabel(status, window, instance if status else None))


class TestReport:
    def test_only_negatives_with_perfect_model(self):
        samples = [make_sample(1, 0, 0) for _ in range(6)]
        preds = [0] * 6
        rep, cm = report(preds, WindowTable.of(samples))
        assert rep.top1 == 1.0
        assert rep.recall is None
        assert rep.precision is None
        assert rep.pivotal_accuracy is None

    def test_pivotal_accuracy_reported_separately(self):
        samples = [make_sample(1, 1, 1), make_sample(1, 1, 2),
                   make_sample(1, 0, 0), make_sample(1, 0, 0)]
        preds = [1, 0, 0, 1]
        rep, cm = report(preds, WindowTable.of(samples))
        assert rep.top1 == 0.5
        assert rep.pivotal_accuracy == 0.5
        assert cm.total == 4

    def test_instance_bins_partition_pivotal_set(self):
        samples = []
        for instance in (1, 1, 2, 3, 5, 5, 5):
            samples.append(make_sample(2, 1, instance))
        samples += [make_sample(2, 0, 0) for _ in range(4)]
        preds = [1] * len(samples)
        rep, _ = report(preds, WindowTable.of(samples))
        assert sum(rep.per_instance_counts.values()) == 7
        assert rep.per_instance_counts == {1: 2, 2: 1, 3: 1, 4: 0, 5: 3}
        assert rep.per_instance[4] is None

    def test_per_camera_breakdown(self):
        samples = [make_sample(1, 1, 1), make_sample(1, 1, 1),
                   make_sample(4, 1, 2), make_sample(4, 0, 0)]
        preds = [1, 0, 1, 0]
        rep, _ = report(preds, WindowTable.of(samples))
        assert rep.per_camera_pivotal[1] == 0.5
        assert rep.per_camera_pivotal[4] == 1.0

    def test_confusion_totals(self):
        samples = [make_sample(1, s, 1 if s else 0) for s in (0, 1, 0, 1, 1)]
        preds = [0, 1, 1, 0, 1]
        rep, cm = report(preds, WindowTable.of(samples))
        assert cm.total == len(samples)
        assert cm.accuracy == pytest.approx(rep.top1)
