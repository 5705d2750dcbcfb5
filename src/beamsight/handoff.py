"""Proactive handoff decisions from per-basestation blockage predictions.

The central unit initiates a handoff exactly when the serving link is
predicted blocked while the alternative link is predicted maintained.  A
decision counts as successful when it matches the decision the ground
truth would have produced, which covers both the explicit success tuples
and every consistent stay-put combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HandoffEvent:
    """(predicted serving, predicted other, true serving, true other)."""

    pred_serving: int
    pred_other: int
    true_serving: int
    true_other: int

    def __post_init__(self):
        for value in (self.pred_serving, self.pred_other,
                      self.true_serving, self.true_other):
            if value not in (0, 1):
                raise ValueError("handoff events are binary tuples")


def decide(pred_serving: int, pred_other: int) -> int:
    """1 = hand off, only for (serving blocked, other maintained) = (1, 0)."""
    if pred_serving not in (0, 1) or pred_other not in (0, 1):
        raise ValueError("predictions must be binary")
    return 1 if (pred_serving, pred_other) == (1, 0) else 0


def classify_event(event: HandoffEvent) -> bool:
    """Success iff the predicted decision equals the ground-truth decision."""
    return decide(event.pred_serving, event.pred_other) == \
        decide(event.true_serving, event.true_other)


@dataclass
class HandoffReport:
    category1_accuracy: float | None     # serving bs1, handoff to bs2 needed
    category2_accuracy: float | None
    category1_count: int
    category2_count: int
    overall_accuracy: float | None
    joint_correct_fraction: float | None  # both link statuses predicted right
    bs_nlos_accuracy: dict[int, float | None] = field(default_factory=dict)
    bs_los_accuracy: dict[int, float | None] = field(default_factory=dict)


def score_handoff(pred_bs1, pred_bs2, status_bs1, status_bs2, category) -> HandoffReport:
    """Category-wise handoff accuracy plus per-basestation link accuracy of
    per-pair arrays: the predicted and the true future status at each
    basestation, and the pair's category (the serving basestation)."""
    p1, p2, s1, s2, category = (np.asarray(a, dtype=np.int64).reshape(-1) for a in (
        pred_bs1, pred_bs2, status_bs1, status_bs2, category))
    if not np.isin(np.concatenate([p1, p2, s1, s2]), (0, 1)).all():
        raise ValueError("handoff events are binary tuples")
    first = category == 1   # bs1 serves in category 1, bs2 in category 2

    def hand_off(x1, x2):   # decide() of the serving and the other side
        return np.where(first, x1, x2) - np.where(first, x2, x1) == 1

    ok = hand_off(p1, p2) == hand_off(s1, s2)

    def mean(values):
        return float(np.mean(values)) if len(values) else None

    return HandoffReport(
        category1_accuracy=mean(ok[first]),
        category2_accuracy=mean(ok[category == 2]),
        category1_count=int(np.sum(first)),
        category2_count=int(np.sum(category == 2)),
        overall_accuracy=mean(ok),
        joint_correct_fraction=mean((p1 == s1) & (p2 == s2)),
        bs_nlos_accuracy={bs: mean(p[s == 1] == 1) for bs, p, s in ((1, p1, s1), (2, p2, s2))},
        bs_los_accuracy={bs: mean(p[s == 0] == 0) for bs, p, s in ((1, p1, s1), (2, p2, s2))},
    )
