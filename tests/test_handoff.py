import itertools

import numpy as np
import pytest

from beamsight.handoff import HandoffEvent, classify_event, decide
from beamsight.pipeline import ConjugateSample, FutureLabel, LabeledSample, ObservedSequence
from oracles import evaluate_handoff


class TestDecide:
    def test_truth_table(self):
        assert decide(1, 0) == 1
        assert decide(0, 0) == 0
        assert decide(1, 1) == 0
        assert decide(0, 1) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            decide(2, 0)


class TestClassifyEvent:
    def test_correct_handoff(self):
        assert classify_event(HandoffEvent(1, 0, 1, 0)) is True

    def test_correct_stay(self):
        assert classify_event(HandoffEvent(0, 1, 0, 1)) is True

    def test_listed_success_set_members(self):
        # the stay-put tuples listed alongside the handoff tuple
        stay_set = [(0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1), (1, 1, 0, 0),
                    (1, 1, 0, 1), (0, 1, 0, 0), (0, 0, 0, 1)]
        for tup in stay_set:
            assert classify_event(HandoffEvent(*tup)) is True

    def test_all_16_tuples_match_decide_oracle(self):
        for tup in itertools.product((0, 1), repeat=4):
            event = HandoffEvent(*tup)
            expected = decide(tup[0], tup[1]) == decide(tup[2], tup[3])
            assert classify_event(event) == expected


def make_pair(s1, s2, user=0, t_end=50, beams1=None, beams2=None):
    def mk(camera, status, beams):
        window = (status,) * 5
        seq = ObservedSequence(camera_id=camera, user_id=user, t_end=t_end,
                               beams=beams or [1] * 8,
                               detections=[[] for _ in range(8)])
        return LabeledSample(seq, FutureLabel(status, window,
                                              1 if status else None))

    assert s1 != s2
    return ConjugateSample(user_id=user, t_end=t_end,
                           sample_bs1=mk(3, s1, beams1),
                           sample_bs2=mk(4, s2, beams2),
                           category=1 if s1 == 1 else 2)


class TestEvaluateHandoff:
    def test_perfect_predictors(self):
        pairs = [make_pair(1, 0, t_end=t) for t in range(5)] + \
                [make_pair(0, 1, t_end=100 + t) for t in range(4)]
        oracle = lambda sample: sample.label.status
        rep = evaluate_handoff(oracle, oracle, pairs)
        assert rep.category1_accuracy == 1.0
        assert rep.category2_accuracy == 1.0
        assert rep.category1_count == 5
        assert rep.category2_count == 4
        assert rep.joint_correct_fraction == 1.0

    def test_constant_los_predictor_never_hands_off(self):
        pairs = [make_pair(1, 0, t_end=t) for t in range(6)]
        always_los = lambda sample: 0
        rep = evaluate_handoff(always_los, always_los, pairs)
        # serving truly blocked, handoff needed, never initiated
        assert rep.category1_accuracy == 0.0

    def test_category_accuracy_matches_per_sample_enumeration(self):
        rng = np.random.default_rng(3)
        pairs = []
        for t in range(60):
            s1 = int(rng.random() < 0.5)
            pairs.append(make_pair(s1, 1 - s1, t_end=t))
        flip1 = {t: int(rng.random() < 0.3) for t in range(60)}
        flip2 = {t: int(rng.random() < 0.3) for t in range(60)}

        def noisy(flips):
            def predict(sample):
                s = sample.label.status
                return s ^ flips[sample.sequence.t_end]
            return predict

        rep = evaluate_handoff(noisy(flip1), noisy(flip2), pairs)

        per_category = {1: [], 2: []}
        for pair in pairs:
            p1 = pair.sample_bs1.label.status ^ flip1[pair.t_end]
            p2 = pair.sample_bs2.label.status ^ flip2[pair.t_end]
            s1 = pair.sample_bs1.label.status
            s2 = pair.sample_bs2.label.status
            if pair.category == 1:
                ok = decide(p1, p2) == decide(s1, s2)
            else:
                ok = decide(p2, p1) == decide(s2, s1)
            per_category[pair.category].append(ok)
        assert rep.category1_accuracy == pytest.approx(np.mean(per_category[1]))
        assert rep.category2_accuracy == pytest.approx(np.mean(per_category[2]))

    def test_handoff_accuracy_lower_bounded_by_joint_correct(self):
        # the bound must hold for any predictor on any evaluation set
        rng = np.random.default_rng(17)
        for trial in range(20):
            pairs = []
            for t in range(40):
                s1 = int(rng.random() < 0.5)
                pairs.append(make_pair(s1, 1 - s1, t_end=t))
            noise1 = {t: int(rng.random() < rng.uniform(0, 0.5)) for t in range(40)}
            noise2 = {t: int(rng.random() < rng.uniform(0, 0.5)) for t in range(40)}
            p1 = lambda s: s.label.status ^ noise1[s.sequence.t_end]
            p2 = lambda s: s.label.status ^ noise2[s.sequence.t_end]
            rep = evaluate_handoff(p1, p2, pairs)
            assert rep.overall_accuracy >= rep.joint_correct_fraction

    def test_empty_category_reported_as_none(self):
        pairs = [make_pair(1, 0, t_end=t) for t in range(3)]
        oracle = lambda sample: sample.label.status
        rep = evaluate_handoff(oracle, oracle, pairs)
        assert rep.category2_accuracy is None
        assert rep.category2_count == 0

    def test_per_bs_link_accuracy(self):
        pairs = [make_pair(1, 0, t_end=0), make_pair(0, 1, t_end=1)]
        # bs1 always predicts LOS; bs2 always predicts NLOS
        rep = evaluate_handoff(lambda s: 0, lambda s: 1, pairs)
        assert rep.bs_nlos_accuracy[1] == 0.0   # missed the bs1 blockage
        assert rep.bs_los_accuracy[1] == 1.0
        assert rep.bs_nlos_accuracy[2] == 1.0
        assert rep.bs_los_accuracy[2] == 0.0
