import numpy as np
import pytest

from beamsight.embedding import (
    BeamEmbeddingTable,
    bbox_feature,
    embed_bboxes,
    sequence_inputs,
)
from beamsight.pipeline import FutureLabel, LabeledSample, ObservedSequence
from beamsight.scene import Detection, VehicleClass


def det(x1, y1, x2, y2, conf=1.0, cls=VehicleClass.CAR):
    return Detection(cls, (x1, y1, x2, y2), conf)


class TestBeamTable:
    def test_lookup_determinism(self):
        table = BeamEmbeddingTable(n_beams=16, dim=32, seed=5)
        assert np.array_equal(table.vector(7), table.vector(7))

    def test_regeneration_from_seed(self):
        a = BeamEmbeddingTable(64, 256, seed=11)
        b = BeamEmbeddingTable(64, 256, seed=11)
        assert np.array_equal(a.entries, b.entries)

    def test_moments_close_to_standard_normal(self):
        table = BeamEmbeddingTable(n_beams=64, dim=256, seed=2)  # 16384 draws
        values = table.entries.ravel()
        assert abs(values.mean()) < 0.05
        assert abs(values.std() - 1.0) < 0.05

    def test_out_of_range_index(self):
        table = BeamEmbeddingTable(8, 16, seed=0)
        with pytest.raises(IndexError):
            table.vector(0)
        with pytest.raises(IndexError):
            table.vector(9)

    def test_table_is_immutable(self):
        table = BeamEmbeddingTable(8, 16, seed=0)
        with pytest.raises(ValueError):
            table.entries[0, 0] = 99.0


class TestEmbedBboxes:
    def test_empty_list_gives_zero_vector(self):
        out = embed_bboxes([], 48)
        assert out.shape == (48,)
        assert np.all(out == 0)

    def test_single_detection_layout(self):
        out = embed_bboxes([det(0.2, 0.4, 0.6, 0.8)], 24)
        assert np.allclose(out[:6], [0.4, 0.6, 0.2, 0.4, 0.6, 0.8])
        assert np.all(out[6:] == 0)

    def test_center_is_mean_of_corners(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x1, y1 = rng.uniform(0.0, 0.5, size=2)
            x2, y2 = x1 + rng.uniform(0.01, 0.5), y1 + rng.uniform(0.01, 0.5)
            feat = bbox_feature(det(x1, y1, min(x2, 1.0), min(y2, 1.0)))
            assert feat[0] == (feat[2] + feat[4]) / 2.0
            assert feat[1] == (feat[3] + feat[5]) / 2.0

    def test_inverse_parse_oracle_recovers_boxes(self):
        # coordinates strictly inside (0, 1) so the zero padding is
        # unambiguous for the reconstruction oracle
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            boxes = []
            for _ in range(n):
                x1, y1 = rng.uniform(0.05, 0.5, size=2)
                w, h = rng.uniform(0.05, 0.4, size=2)
                boxes.append(det(x1, y1, min(x1 + w, 0.99), min(y1 + h, 0.99),
                                 conf=float(rng.uniform(0.3, 1.0))))
            out = embed_bboxes(boxes, 256)
            recovered = []
            for i in range(256 // 6):
                chunk = out[i * 6:(i + 1) * 6]
                if np.all(chunk == 0):
                    break
                recovered.append(tuple(chunk[2:6]))
            assert sorted(recovered) == sorted(b.bbox for b in boxes)
            assert np.all(out[len(recovered) * 6:] == 0)

    def test_canonical_order_by_area(self):
        big = det(0.1, 0.1, 0.9, 0.9)
        small = det(0.4, 0.4, 0.5, 0.5)
        out = embed_bboxes([small, big], 64)
        assert tuple(out[2:6]) == big.bbox
        assert tuple(out[8:12]) == small.bbox

    def test_truncates_lowest_confidence(self):
        boxes = [det(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2, conf=0.1 * (i + 1))
                 for i in range(5)]
        out = embed_bboxes(boxes, 18)  # room for 3
        recovered = {tuple(np.round(out[i * 6 + 2:i * 6 + 6], 6)) for i in range(3)}
        expected = {tuple(np.round(b.bbox, 6)) for b in boxes[-3:]}  # highest conf
        assert recovered == expected


class TestSequenceInputs:
    def make_sample(self):
        frames = [[det(0.2, 0.2, 0.4, 0.4)], [], [det(0.5, 0.5, 0.7, 0.9)],
                  [], [], [], [], []]
        seq = ObservedSequence(camera_id=1, user_id=0, t_end=20,
                               beams=[3, 1, 4, 1, 5, 2, 6, 2], detections=frames)
        return LabeledSample(seq, FutureLabel(0, (0, 0, 0, 0, 0), None))

    def test_bimodal_block_order(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        sample = self.make_sample()
        x = sequence_inputs(sample, table, "bimodal")
        assert x.shape == (16, 30)
        # first 8 rows are box embeddings, last 8 rows the beam lookups
        assert np.allclose(x[0][:6], bbox_feature(det(0.2, 0.2, 0.4, 0.4)))
        assert np.all(x[1] == 0)
        for i, b in enumerate(sample.sequence.beams):
            assert np.array_equal(x[8 + i], table.vector(b))

    def test_beam_only_inputs(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        sample = self.make_sample()
        x = sequence_inputs(sample, table, "beam-only")
        assert x.shape == (8, 30)
        for i, b in enumerate(sample.sequence.beams):
            assert np.array_equal(x[i], table.vector(b))

    def test_unknown_mode_rejected(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        with pytest.raises(ValueError):
            sequence_inputs(self.make_sample(), table, "fused")

    def test_table_unchanged_after_use(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        before = table.entries.copy()
        sequence_inputs(self.make_sample(), table, "bimodal")
        assert np.array_equal(table.entries, before)

    def test_table_bit_identical_through_training(self):
        from beamsight.config import TrainConfig
        from beamsight.predictor import train_model

        table = BeamEmbeddingTable(8, 24, seed=2)
        before = table.entries.copy()
        rng = np.random.default_rng(0)
        x = np.stack([[table.vector(int(b) + 1) for b in rng.integers(0, 8, size=4)]
                      for _ in range(12)])
        y = rng.integers(0, 2, size=12)
        train_model(x, y, x, y, TrainConfig(hidden=6, embed_dim=24, epochs=3,
                                            batch_size=6))
        assert np.array_equal(table.entries, before)
