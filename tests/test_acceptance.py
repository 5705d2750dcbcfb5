"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  The comparative and trend criteria (8, 9) share one
desk-scale pipeline run from configs/desk.ini; determinism (11) uses the
miniature config twice through the CLI.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    exhaustive_beam_scan,
    sampled_segment_oracle,
    samples_of,
    scalar_channel,
)

from beamsight.cli import main
from beamsight.config import ScenarioConfig, TrainConfig, load_experiment_config
from beamsight.experiment import run_experiment
from beamsight.handoff import HandoffEvent, classify_event, decide, evaluate_handoff
from beamsight.metrics import average_precision, iou, mean_average_precision
from beamsight.phy import ChannelPath, Codebook, channel_vector, los_status, select_beam
from beamsight.pipeline import Seed, collect_windows
from beamsight.predictor import GruPredictor, train_model
from beamsight.scene import (
    Basestation,
    SceneObject,
    UlaGeometry,
    VehicleClass,
    World,
    build_world,
    detect,
    step_world,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WAVELENGTH = 299_792_458.0 / 28e9
VEHICLE_DIMS = {
    VehicleClass.CAR: (4.6, 1.8, 1.5),
    VehicleClass.BUS: (12.0, 2.55, 3.2),
    VehicleClass.TRUCK: (9.5, 2.5, 3.6),
}


def announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def make_object(object_id, center, cls=VehicleClass.CAR):
    dims = VEHICLE_DIMS[cls]
    return SceneObject(object_id=object_id, object_class=cls,
                       center=np.array(center, dtype=float),
                       dims=np.array(dims), velocity=np.zeros(3), lane=0)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One desk-scale experiment shared by criteria 8 and 9."""
    out = tmp_path_factory.mktemp("desk") / "run"
    cfg = load_experiment_config(CONFIGS / "desk.ini")
    start = time.perf_counter()
    manifest = run_experiment(cfg, out)
    elapsed = time.perf_counter() - start
    return out, manifest, elapsed


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCriterion1Codebook:
    def test_unit_norms_and_exhaustive_scan(self):
        ula = UlaGeometry(32, WAVELENGTH / 2, WAVELENGTH)
        codebook = Codebook.build(ula, 64)
        norms = np.linalg.norm(codebook.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

        rng = np.random.default_rng(1)
        elapsed = 0.0  # time in select_beam only; the oracle is not timed
        for _ in range(1000):
            h = rng.normal(size=(8, 32)) + 1j * rng.normal(size=(8, 32))
            start = time.perf_counter()
            got = select_beam(h, codebook)
            elapsed += time.perf_counter() - start
            assert got == exhaustive_beam_scan(h, codebook)
        assert elapsed < 1.0
        announce(1, f"64 unit-norm beams, 1000/1000 scan agreements in {elapsed:.2f}s")


class TestCriterion2ChannelOracle:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 9))
            l = int(rng.integers(1, 4))
            d = int(rng.integers(1, 9))
            ts = 10 ** rng.uniform(-8, -6)
            ula = UlaGeometry(m, WAVELENGTH / 2, WAVELENGTH,
                              axis_azimuth=rng.uniform(0, 2 * math.pi))
            paths = [ChannelPath(gain=complex(rng.normal(), rng.normal()),
                                 delay=rng.uniform(0, d * ts * 0.95),
                                 azimuth=rng.uniform(-math.pi, math.pi),
                                 elevation=rng.uniform(-0.5, 0.5))
                     for _ in range(l)]
            got = channel_vector(paths, ula, k, d, ts)
            want = scalar_channel(paths, ula, k, d, ts)
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10
        assert elapsed < 5.0
        announce(2, f"100 instances, worst deviation {worst:.2e} in {elapsed:.2f}s")


class TestCriterion3LosOracle:
    def test_ten_thousand_random_scenes(self):
        ula = UlaGeometry(32, WAVELENGTH / 2, WAVELENGTH)
        rng = np.random.default_rng(33)
        elapsed = 0.0  # time in los_status only; the oracle is not timed
        agree = 0
        for _ in range(10000):
            bs = Basestation(bs_id=1,
                             position=np.array([rng.uniform(0, 200), -6.0, 4.5]),
                             ula=ula, cameras=[])
            user = make_object(0, (rng.uniform(0, 200), rng.uniform(1, 20), 0.75))
            others = []
            for i in range(int(rng.integers(1, 5))):
                cls = [VehicleClass.CAR, VehicleClass.BUS,
                       VehicleClass.TRUCK][int(rng.integers(0, 3))]
                h = VEHICLE_DIMS[cls][2]
                others.append(make_object(
                    i + 1, (rng.uniform(0, 200), rng.uniform(1, 20), h / 2), cls))
            world = World(objects=[user] + others, street_length=200.0, lanes=6,
                          lane_width=3.5, basestations=[], wall_south=-10.0,
                          wall_north=31.0)
            start = time.perf_counter()
            got = los_status(bs, user, world)
            elapsed += time.perf_counter() - start
            want = sampled_segment_oracle(bs.position, user.antenna_point,
                                          [o.bounds() for o in others])
            agree += got == want
        assert agree == 10000
        assert elapsed < 10.0
        announce(3, f"10000/10000 agreements in {elapsed:.1f}s")


class TestCriterion4LabelLaw:
    def test_all_32_future_windows(self):
        mismatches = 0
        for bits in itertools.product((0, 1), repeat=5):
            seed = Seed(bs=np.full(13, 1), camera=np.full(13, 2), user=np.zeros(13, int),
                        frame=np.arange(13), beam=np.ones(13, int),
                        status=np.array([0] * 8 + list(bits)),
                        detections={(2, t): [] for t in range(13)})
            [sample] = samples_of(collect_windows(seed)[1])
            if sample.label.status != (1 if any(bits) else 0):
                mismatches += 1
            if sample.label.window != bits:
                mismatches += 1
        assert mismatches == 0
        announce(4, "all 32 future windows match the any() oracle")


class TestCriterion5HandoffLaw:
    def test_all_16_tuples(self):
        mismatches = 0
        for tup in itertools.product((0, 1), repeat=4):
            got = classify_event(HandoffEvent(*tup))
            want = decide(tup[0], tup[1]) == decide(tup[2], tup[3])
            mismatches += got != want
        assert mismatches == 0

    def test_bound_on_generated_evaluation_sets(self, desk_run):
        # randomized predictors over synthetic conjugate sets
        from beamsight.pipeline import (ConjugateSample, FutureLabel,
                                        LabeledSample, ObservedSequence)

        def mk(camera, status, user, t_end):
            seq = ObservedSequence(camera_id=camera, user_id=user, t_end=t_end,
                                   beams=[1] * 8, detections=[[] for _ in range(8)])
            return LabeledSample(seq, FutureLabel(status, (status,) * 5,
                                                  1 if status else None))

        rng = np.random.default_rng(5)
        for _ in range(10):
            pairs = []
            for t in range(50):
                s1 = int(rng.random() < 0.5)
                pairs.append(ConjugateSample(
                    user_id=0, t_end=t, sample_bs1=mk(3, s1, 0, t),
                    sample_bs2=mk(4, 1 - s1, 0, t), category=1 if s1 else 2))
            flips1 = rng.random(50) < rng.uniform(0, 0.6)
            flips2 = rng.random(50) < rng.uniform(0, 0.6)
            p1 = lambda s: s.label.status ^ int(flips1[s.sequence.t_end])
            p2 = lambda s: s.label.status ^ int(flips2[s.sequence.t_end])
            rep = evaluate_handoff(p1, p2, pairs)
            assert rep.overall_accuracy >= rep.joint_correct_fraction - 1e-12

        # and on the desk-scale artifacts
        out, _, _ = desk_run
        for row in read_csv(out / "handoff.csv"):
            assert float(row["overall_acc"]) >= float(row["joint_correct"]) - 1e-9
        announce(5, "16/16 tuples match; accuracy >= joint-correct bound everywhere")


class TestCriterion6GradientChecks:
    def test_finite_differences_tiny_instance(self):
        start = time.perf_counter()
        model = GruPredictor(input_dim=3, hidden=2, dropout=0.0, seed=12)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 4, 3))
        y = np.array([0, 1])
        _, grads = model.loss_and_grads(x, y)
        eps = 1e-5
        worst = 0.0
        for name, param in model.params.items():
            flat = param.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = model.loss_and_grads(x, y)
                flat[idx] = orig - eps
                down, _ = model.loss_and_grads(x, y)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                g = grads[name].ravel()[idx]
                worst = max(worst, abs(g - fd) / max(1e-8, abs(g) + abs(fd)))
        elapsed = time.perf_counter() - start
        assert worst < 1e-5
        assert elapsed < 30.0
        announce(6, f"worst relative error {worst:.2e} over all parameters "
                    f"in {elapsed:.1f}s")


class TestCriterion7OverfitSanity:
    def test_memorizes_64_samples(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 16, 256))
        y = rng.integers(0, 2, size=64)
        cfg = TrainConfig(epochs=200, batch_size=16, seed=1)
        start = time.perf_counter()
        result = train_model(x, y, x, y, cfg)
        elapsed = time.perf_counter() - start
        reached = next((r["epoch"] for r in result.history
                        if r["train_top1"] == 1.0), None)
        assert reached is not None and reached <= 200
        assert elapsed < 120.0
        announce(7, f"100% train top-1 at epoch {reached}, {elapsed:.0f}s for 200 epochs")


class TestCriterion8ComparativeClaim:
    def test_bimodal_beats_beam_only(self, desk_run):
        out, manifest, elapsed = desk_run
        counts = manifest["stages"]["build-dataset"]["counts"]
        per_camera = {}
        for split in ("train", "val"):
            for key, n in counts[split].items():
                cam = key.split("_")[0]
                per_camera[cam] = per_camera.get(cam, 0) + n
        assert all(n >= 600 for n in per_camera.values()), per_camera

        summary = {row["metric"]: row["value"]
                   for row in read_csv(out / "eval_bimodal.csv")}
        baseline = {row["metric"]: row["value"]
                    for row in read_csv(out / "eval_beam_only.csv")}
        top1_gap = float(summary["top1"]) - float(baseline["top1"])
        assert top1_gap >= 0.10, f"gap {top1_gap:.3f}"
        assert float(summary["recall"]) > float(baseline["recall"])
        assert elapsed < 600.0
        announce(8, f"top-1 gap {100 * top1_gap:.1f} points, recall "
                    f"{summary['recall']} vs {baseline['recall']}, "
                    f"pipeline {elapsed:.0f}s")


class TestCriterion9TrendReproduction:
    def test_blockage_instance_endpoints(self, desk_run):
        out, _, _ = desk_run
        rows = {int(r["blockage_instance"]): r
                for r in read_csv(out / "eval_bimodal_per_instance.csv")}
        first = float(rows[1]["accuracy"])
        last = float(rows[5]["accuracy"])
        assert first > last
        announce(9, f"instance-1 accuracy {first:.3f} > instance-5 {last:.3f}")


class TestCriterion10DetectionMetrics:
    def test_hand_computed_iou(self):
        assert abs(iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1.0 / 7.0) < 1e-12

    def test_noiseless_detector_perfect_map(self):
        cfg = ScenarioConfig(cars=8, buses=3, trucks=2, seed=6)
        world = build_world(cfg)
        predictions = {cls: [] for cls in VehicleClass}
        truths = {cls: [] for cls in VehicleClass}
        frame_id = 0
        for _ in range(4):
            for bs in world.basestations:
                for cam in bs.cameras:
                    dets = detect(cam, world)
                    for det in dets:
                        predictions[det.object_class].append(
                            (frame_id, det.bbox, det.confidence))
                        truths[det.object_class].append((frame_id, det.bbox))
                    frame_id += 1
            world = step_world(world, 0.5)
        assert all(truths[cls] for cls in VehicleClass), "need all three classes"
        m, per_class = mean_average_precision(predictions, truths, iou_threshold=0.5)
        assert m == 1.0
        assert all(v == 1.0 for v in per_class.values())
        announce(10, "mAP 1.0 at IoU 0.5 for all classes; IoU case 1/7 exact")


class TestCriterion11Determinism:
    def test_byte_identical_metric_csvs(self, tmp_path):
        config = str(CONFIGS / "mini.ini")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run-experiment", "--config", config, "--out", str(out_a)]) == 0
        assert main(["run-experiment", "--config", config, "--out", str(out_b)]) == 0
        csvs = sorted(p.name for p in out_a.glob("*.csv"))
        assert csvs, "expected metric CSVs"
        for name in csvs:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert (out_a / "manifest.json").read_bytes() == \
            (out_b / "manifest.json").read_bytes()
        announce(11, f"{len(csvs)} CSVs plus manifest byte-identical across runs")
