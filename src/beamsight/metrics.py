"""Evaluation metrics: top-1, precision/recall, confusion matrices,
per-camera and per-blockage-instance breakdowns, IoU and AP/mAP.

NLOS (future status 1) is the positive class throughout.  Degenerate
denominators yield None ("undefined"), never 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .pipeline import WindowTable
from .scene import VehicleClass

log = logging.getLogger(__name__)


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    @classmethod
    def from_predictions(cls, predictions, labels) -> "ConfusionMatrix":
        predictions, labels = np.asarray(predictions), np.asarray(labels)
        if predictions.shape != labels.shape:
            raise ValueError("predictions and labels must have equal length")
        positive, predicted = labels == 1, predictions == 1
        return cls(*(int(np.sum(a & b)) for a, b in ((positive, predicted), (~positive, predicted),
                                                     (~positive, ~predicted), (positive, ~predicted))))


def top1(predictions, labels) -> float:
    """Mean indicator of exact agreement."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if predictions.size == 0:
        raise ValueError("empty input")
    return float(np.mean(predictions == labels))


def precision_recall(cm: ConfusionMatrix) -> tuple[float | None, float | None]:
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    return precision, recall


def iou(box_a, box_b) -> float:
    """Intersection area over union area of two (x1, y1, x2, y2) boxes."""
    for box in (box_a, box_b):
        if not (box[0] < box[2] and box[1] < box[3]):
            raise ValueError(f"invalid box {box}")
    ix1 = max(box_a[0], box_b[0])
    iy1 = max(box_a[1], box_b[1])
    ix2 = min(box_a[2], box_b[2])
    iy2 = min(box_a[3], box_b[3])
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    area_a = (box_a[2] - box_a[0]) * (box_a[3] - box_a[1])
    area_b = (box_b[2] - box_b[0]) * (box_b[3] - box_b[1])
    union = area_a + area_b - inter
    return inter / union


def average_precision(predictions, truths, iou_threshold: float = 0.5) -> float:
    """All-points-interpolated AP for one class.

    ``predictions``: (frame_id, box, confidence) triples; ``truths``:
    (frame_id, box) pairs.  Matching is greedy in descending confidence
    (ties keep submission order), each truth box matched at most once.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError("iou_threshold must be in (0, 1)")
    n_truth = len(truths)
    if n_truth == 0:
        raise ValueError("no ground truth boxes")
    if not predictions:
        return 0.0

    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i][2], i))
    truth_by_frame: dict = {}
    for idx, (frame, box) in enumerate(truths):
        truth_by_frame.setdefault(frame, []).append((idx, box))
    matched = np.zeros(n_truth, dtype=bool)

    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, i in enumerate(order):
        frame, box, _ = predictions[i]
        best_iou, best_idx = 0.0, None
        for idx, truth_box in truth_by_frame.get(frame, []):
            if matched[idx]:
                continue
            overlap = iou(box, truth_box)
            if overlap > best_iou:
                best_iou, best_idx = overlap, idx
        if best_idx is not None and best_iou >= iou_threshold:
            matched[best_idx] = True
            tp[rank] = 1
        else:
            fp[rank] = 1

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recall = cum_tp / n_truth
    precision = cum_tp / (cum_tp + cum_fp)

    # all-points interpolation: integrate the precision envelope
    r = np.concatenate([[0.0], recall, [recall[-1]]])
    p = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    steps = np.nonzero(r[1:] != r[:-1])[0]
    return float(np.sum((r[steps + 1] - r[steps]) * p[steps + 1]))


def mean_average_precision(predictions_by_class: dict, truths_by_class: dict,
                           iou_threshold: float = 0.5) -> tuple[float | None, dict]:
    """Class-mean AP over {car, bus, truck}; classes without ground truth
    are excluded with a warning."""
    per_class: dict = {}
    for cls in VehicleClass:
        truths = truths_by_class.get(cls, [])
        if not truths:
            log.warning("no ground truth for class %s; excluded from mAP", cls.value)
            per_class[cls] = None
            continue
        per_class[cls] = average_precision(
            predictions_by_class.get(cls, []), truths, iou_threshold)
    values = [v for v in per_class.values() if v is not None]
    return (float(np.mean(values)) if values else None), per_class


@dataclass
class MetricReport:
    top1: float
    precision: float | None
    recall: float | None
    pivotal_accuracy: float | None
    per_camera_pivotal: dict[int, float | None] = field(default_factory=dict)
    per_camera_counts: dict[int, int] = field(default_factory=dict)
    per_instance: dict[int, float | None] = field(default_factory=dict)
    per_instance_counts: dict[int, int] = field(default_factory=dict)
    n_samples: int = 0


def report(predictions, windows: WindowTable,
           future: int = 5) -> tuple[MetricReport, ConfusionMatrix]:
    """Aggregate predictions over the windows of a WindowTable.

    Per-camera accuracy and the accuracy-vs-blockage-instance curve are
    computed on pivotal sequences only; the instance bins partition the
    pivotal set.
    """
    predictions, labels, instance = np.asarray(predictions), windows.label, windows.instance
    cm = ConfusionMatrix.from_predictions(predictions, labels)   # checks the lengths
    precision, recall = precision_recall(cm)

    def pivotal_accuracy(idx):
        return float(np.mean(predictions[idx] == 1)) if np.any(idx) else None

    pivotal = labels == 1
    cameras = {c: (windows.camera == c) & pivotal for c in np.unique(windows.camera).tolist()}
    instances = {i: instance == i for i in range(1, future + 1)}
    return MetricReport(
        top1=top1(predictions, labels),
        precision=precision,
        recall=recall,
        pivotal_accuracy=pivotal_accuracy(pivotal),
        per_camera_pivotal={c: pivotal_accuracy(idx) for c, idx in cameras.items()},
        per_camera_counts={c: int(np.sum(idx)) for c, idx in cameras.items()},
        per_instance={i: pivotal_accuracy(idx) for i, idx in instances.items()},
        per_instance_counts={i: int(np.sum(idx)) for i, idx in instances.items()},
        n_samples=len(windows),
    ), cm
