import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest

from beamsight.config import load_experiment_config
from beamsight.embedding import (
    BeamEmbeddingTable,
    embed_frames,
    encode_dataset,
)
from beamsight.experiment import build_dataset_stage, simulate_stage
from beamsight.pipeline import (
    FrameTable,
    FutureLabel,
    LabeledSample,
    ObservedSequence,
    build_seed,
    collect_windows,
    read_pairs,
    read_split,
    read_trace,
)
from beamsight.scene import Detection, VehicleClass
from oracles import embed_bboxes as reference_embedding
from oracles import samples_of

MINI = Path(__file__).resolve().parent.parent / "configs" / "mini.ini"


def embed_bboxes(detections, dim):
    """One frame's row of the encoder's box embedding."""
    return embed_frames(FrameTable.of([(1, 0, detections)]), dim)[0]


def det(x1, y1, x2, y2, conf=1.0, cls=VehicleClass.CAR):
    return Detection(cls, (x1, y1, x2, y2), conf)


def window(frames, beams, camera_id=1, user_id=0, t_end=20, status=0):
    seq = ObservedSequence(camera_id=camera_id, user_id=user_id, t_end=t_end,
                           beams=beams, detections=frames)
    future = (1, 0, 0, 0, 0) if status else (0, 0, 0, 0, 0)
    return LabeledSample(seq, FutureLabel(status, future, 1 if status else None))


def dense(x):
    """The (n, T, N) array of an encoder output's rows and row index."""
    return x.rows[x.index]


class TestBeamTable:
    def test_lookup_determinism(self):
        table = BeamEmbeddingTable(n_beams=16, dim=32, seed=5)
        assert np.array_equal(table.entries[7 - 1], table.entries[7 - 1])

    def test_regeneration_from_seed(self):
        a = BeamEmbeddingTable(64, 256, seed=11)
        b = BeamEmbeddingTable(64, 256, seed=11)
        assert np.array_equal(a.entries, b.entries)

    def test_entries_are_the_seeded_draws_rounded_to_float32(self):
        table = BeamEmbeddingTable(16, 32, seed=5)
        draws = np.random.default_rng(5).standard_normal((16, 32))
        assert table.entries.dtype == np.float32
        assert table.entries.tobytes() == draws.astype(np.float32).tobytes()

    def test_moments_close_to_standard_normal(self):
        table = BeamEmbeddingTable(n_beams=64, dim=256, seed=2)  # 16384 draws
        values = table.entries.ravel()
        assert abs(values.mean()) < 0.05
        assert abs(values.std() - 1.0) < 0.05

    def test_out_of_range_index(self):
        table = BeamEmbeddingTable(8, 16, seed=0)
        for beam in (0, 9):
            sample = window([[]] * 3, beams=[1, beam, 2])
            with pytest.raises(ValueError, match="beam index"):
                encode_dataset([sample], table, "beam-only")

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
            feat = embed_bboxes([det(x1, y1, min(x2, 1.0), min(y2, 1.0))], 6)
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
        return window(frames, beams=[3, 1, 4, 1, 5, 2, 6, 2])

    def test_bimodal_block_order(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        sample = self.make_sample()
        x = dense(encode_dataset([sample], table, "bimodal")[0])[0]
        assert x.shape == (16, 30)
        # first 8 rows are box embeddings, last 8 rows the beam lookups
        assert np.allclose(x[0][:6], [0.3, 0.3, 0.2, 0.2, 0.4, 0.4])
        assert np.all(x[1] == 0)
        for i, b in enumerate(sample.sequence.beams):
            assert np.array_equal(x[8 + i], table.entries[b - 1])

    def test_beam_only_inputs(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        sample = self.make_sample()
        x = dense(encode_dataset([sample], table, "beam-only")[0])[0]
        assert x.shape == (8, 30)
        for i, b in enumerate(sample.sequence.beams):
            assert np.array_equal(x[i], table.entries[b - 1])

    def test_unknown_mode_rejected(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        with pytest.raises(ValueError):
            encode_dataset([self.make_sample()], table, "fused")

    def test_table_unchanged_after_use(self):
        table = BeamEmbeddingTable(8, 30, seed=1)
        before = table.entries.copy()
        encode_dataset([self.make_sample()], table, "bimodal")
        assert np.array_equal(table.entries, before)

    def test_table_bit_identical_through_training(self):
        from beamsight.config import TrainConfig
        from beamsight.predictor import train_model

        table = BeamEmbeddingTable(8, 24, seed=2)
        before = table.entries.copy()
        rng = np.random.default_rng(0)
        x = np.stack([[table.entries[int(b)] for b in rng.integers(0, 8, size=4)]
                      for _ in range(12)])
        y = rng.integers(0, 2, size=12)
        train_model(x, y, x, y, TrainConfig(hidden=6, embed_dim=24, epochs=3,
                                            batch_size=6))
        assert np.array_equal(table.entries, before)


def reference_inputs(samples, table, mode):
    """Per-window oracle: embed every frame of every window, look up every
    beam, stack the rows of each window and then the windows, in the table's
    dtype (the model's input dtype)."""
    per_window = []
    for s in samples:
        beam_rows = [table.entries[b - 1] for b in s.sequence.beams]
        box_rows = ([reference_embedding(frame, table.dim) for frame in s.sequence.detections]
                    if mode == "bimodal" else [])
        per_window.append(np.stack(box_rows + beam_rows))
    return np.stack(per_window).astype(table.entries.dtype)


@pytest.fixture(scope="module")
def mini_windows(tmp_path_factory):
    """The mini config's val windows, both sides of its pairs (read back
    from disk) and the seed-pass windows of its first 40 frames."""
    cfg = load_experiment_config(MINI)
    out = tmp_path_factory.mktemp("mini")
    simulate_stage(cfg.scenario, cfg.frames, out / "trace")
    build_dataset_stage(out / "trace", out / "dataset", cfg.dataset)
    pairs = read_pairs(out / "dataset" / "pairs.ndrec")
    scenario, worlds = read_trace(out / "trace")
    seeded = collect_windows(build_seed(worlds[:40], scenario),
                             cfg.dataset.observed, cfg.dataset.future)
    table = BeamEmbeddingTable(scenario.beams, cfg.train.embed_dim, cfg.train.table_seed)
    return table, {
        "val": read_split(out / "dataset", "val").samples,
        "bs1": [p.sample_bs1 for p in pairs],
        "bs2": [p.sample_bs2 for p in pairs],
        "seed": samples_of(seeded[1]) + samples_of(seeded[2]),
    }


class TestEncodeDataset:
    @pytest.mark.parametrize("mode", ["bimodal", "beam-only"])
    @pytest.mark.parametrize("windows", ["val", "bs1", "bs2", "seed"])
    def test_byte_identical_to_per_window_reference(self, mini_windows, windows, mode):
        table, sets = mini_windows
        samples = sets[windows]
        assert samples
        x, y = encode_dataset(samples, table, mode)
        x = dense(x)
        expected = reference_inputs(samples, table, mode)
        assert x.dtype == expected.dtype and x.shape == expected.shape
        assert x.tobytes() == expected.tobytes()
        assert np.array_equal(y, [s.label.status for s in samples])

    @pytest.mark.parametrize("mode", ["bimodal", "beam-only"])
    def test_equal_content_and_shared_lists(self, mode):
        a = [det(0.1, 0.1, 0.3, 0.4), det(0.5, 0.2, 0.6, 0.3, conf=0.5)]
        b, c = [det(0.4, 0.4, 0.9, 0.8)], []
        copies = [list(a), list(b), list(c)]        # equal content, distinct objects
        samples = [window([a, b, c], [1, 2, 3]),
                   window(copies, [3, 2, 1], t_end=21, status=1),
                   window([c, a, a], [2, 2, 4], t_end=22),  # ``a`` at 1, 2; above at 0
                   window([b, c, a], [4, 3, 2], user_id=1)]
        table = BeamEmbeddingTable(4, 18, seed=6)
        x, _ = encode_dataset(samples, table, mode)
        assert dense(x).tobytes() == reference_inputs(samples, table, mode).tobytes()

    @pytest.mark.parametrize("mode", ["bimodal", "beam-only"])
    def test_rows_hold_each_frame_once_then_the_table(self, mini_windows, mode):
        table, sets = mini_windows
        samples = sets["val"] + sets["bs1"]
        x, labels = encode_dataset(samples, table, mode)
        rows, index = x.rows, x.index
        frames = len({id(d) for s in samples for d in s.sequence.detections})
        if mode == "beam-only":
            assert rows is table.entries
            frames = 0
        assert rows.shape == (frames + table.n_beams, table.dim)
        assert np.array_equal(rows[frames:], table.entries)
        r = len(samples[0].sequence.beams)
        assert index.shape == (len(samples), r if mode == "beam-only" else 2 * r)
        assert np.all(index[:, :-r] < frames) and np.all(index[:, -r:] >= frames)
        assert np.array_equal(labels, [s.label.status for s in samples])

    @pytest.mark.parametrize("mode", ["bimodal", "beam-only"])
    def test_rows_are_float32_box_embeddings_rounded_once(self, mini_windows, mode):
        # embed_bboxes stays float64; the stacked rows round it to float32
        table, sets = mini_windows
        samples = sets["val"]
        x, _ = encode_dataset(samples, table, mode)
        assert x.rows.dtype == np.float32
        frames = {id(d): d for s in samples for d in s.sequence.detections}
        if mode == "bimodal":
            boxes = [embed_bboxes(d, table.dim) for d in frames.values()]
            assert boxes[0].dtype == np.float64
            assert np.array_equal(x.rows[:len(boxes)], np.array(boxes, np.float32))

    def test_embeds_each_distinct_list_once_per_call(self, mini_windows, caplog):
        # one more window: a frame over capacity, seen twice, and an empty one;
        # the crowded frame's first four boxes have one area: the second goes
        # first by its x centre, the fourth before the third by its box
        table, sets = mini_windows
        crowded = [det(0.0625, 0.5, 0.5625, 0.5625, 0.99), det(0.125, 0.5, 0.1875, 1.0, 0.99),
                   det(0.5625, 0.25, 0.6875, 0.5, 0.99), det(0.5, 0.125, 0.75, 0.25, 0.99)]
        crowded += [det(0.02 * i, 0.1, 0.02 * i + 0.05, 0.2 + 0.01 * (i % 4),
                        conf=0.5 + 0.01 * (i % 7)) for i in range(table.dim // 6)]
        first = sets["val"][0]
        frames = [crowded, [], crowded, *first.sequence.detections[3:]]
        samples = sets["val"] + sets["bs1"] + [dataclasses.replace(
            first, sequence=dataclasses.replace(first.sequence, detections=frames))]
        distinct = {id(d): d for s in samples for d in s.sequence.detections}
        assert len(distinct) < sum(len(s.sequence.detections) for s in samples)
        with caplog.at_level(logging.INFO, logger="beamsight.embedding"):
            x, _ = encode_dataset(samples, table, "bimodal")
        assert len(x.rows) == len(distinct) + table.n_beams
        for row, detections in zip(x.rows, distinct.values()):
            want = reference_embedding(detections, table.dim).astype(np.float32)
            assert row.tobytes() == want.tobytes()
        # one line per distinct list over capacity, the added one among them
        capacity = table.dim // 6
        lines = [f"truncating {len(d) - capacity} of {len(d)} detections to fit "
                 f"embedding dim {table.dim}" for d in distinct.values() if len(d) > capacity]
        assert lines[-1].startswith(f"truncating 4 of {len(crowded)} ")
        assert [r.getMessage() for r in caplog.records if r.name == "beamsight.embedding"] == lines

    @pytest.mark.parametrize("beams", [[1, 2], [1, 2, 3, 4], []])
    def test_ragged_window_names_its_key(self, beams):
        table = BeamEmbeddingTable(4, 12, seed=0)
        samples = [window([[]] * 3, [1, 2, 3]),
                   window([[]] * len(beams), beams, user_id=5, t_end=30)]
        with pytest.raises(ValueError, match=r"window \(1, 5, 30\).*beam index"):
            encode_dataset(samples, table, "bimodal")
