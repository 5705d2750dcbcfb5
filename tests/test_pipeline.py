import atexit
import io
import itertools
import json
import os
import shutil
import signal
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import beamsight.config
import beamsight.pipeline
import beamsight.scene
import oracles
from oracles import (
    FRAME_DEFECTS,
    _read_frames,
    break_frame_columns,
    detections_by_key,
    exhaustive_beam_scan,
    pairs_of,
    per_frame_seed,
    read_records,
    record_to_pair,
    record_to_sample,
    samples_of,
    sat_segment_box,
    scalar_channel,
    simulate_trace,
    window_groups,
    window_tables,
)

from beamsight.cli import main
from beamsight.config import DatasetConfig, ScenarioConfig, load_experiment_config
from beamsight.embedding import BeamEmbeddingTable, encode_dataset
from beamsight.errors import DataError
from beamsight.experiment import build_dataset_stage, simulate_stage
from beamsight.phy import (
    Codebook,
    channel_vector,
    received_power,
    select_beam,
    synthesize_paths,
)
from beamsight.pipeline import (
    BLOCK_FRAMES,
    DATASET_FILES,
    DETECT_STREAM,
    TRACE_FILE,
    FutureLabel,
    LabeledDataset,
    LabeledSample,
    ObservedSequence,
    Seed,
    balance_and_split,
    build_seed,
    camera_to_bs,
    collect_windows,
    concat,
    conjugate_pairs,
    observe,
    read_frames,
    read_manifest,
    read_pair_table,
    read_pairs,
    read_split,
    read_splits,
    read_trace,
    read_windows,
    read_trace_rows,
    seed_pass,
    write_dataset,
    write_trace,
)
from beamsight.scene import (
    CLASSES,
    Detection,
    DetectorNoiseModel,
    FrameTable,
    SceneObject,
    VehicleClass,
    build_world,
    detect,
    object_rows,
    project_boxes,
    step_world,
    world_from_objects,
)

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.ini"
MINI = DESK.with_name("mini.ini")


def small_cfg(**kwargs):
    defaults = dict(cars=1, buses=0, trucks=0, seed=2)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def car(object_id, x, y, vx=0.0):
    return SceneObject(object_id=object_id, object_class=VehicleClass.CAR,
                       center=np.array([x, y, 0.75]), dims=np.array([4.6, 1.8, 1.5]),
                       velocity=np.array([vx, 0.0, 0.0]), lane=0)


def bus(object_id, x, y, vx=0.0):
    return SceneObject(object_id=object_id, object_class=VehicleClass.BUS,
                       center=np.array([x, y, 1.6]), dims=np.array([12.0, 2.55, 3.2]),
                       velocity=np.array([vx, 0.0, 0.0]), lane=1)


def static_worlds(cfg, objects, frames):
    return [world_from_objects(cfg, objects) for _ in range(frames)]


def write_worlds(trace_dir, cfg, worlds):
    """``write_trace`` of hand-built worlds, which hold the same objects in
    ascending id order: the first world's objects, every world's centres."""
    write_trace(trace_dir, cfg, worlds[0].objects,
                np.reshape([[o.center for o in w.objects] for w in worlds], (len(worlds), -1, 3)))


def pin_processes(monkeypatch, processes=1):
    """Run the seed pass in ``processes`` processes, whatever the machine."""
    monkeypatch.setattr(beamsight.config, "cpu_workers", lambda: processes)


def as_tuples(seed):
    """(bs, camera, user, frame, beam, status) of every seed row, as ints."""
    return list(zip(*(c.tolist() for c in (seed.bs, seed.camera, seed.user, seed.frame,
                                            seed.beam, seed.status))))


def streams(seed):
    """The row indices of each stream, by the Seed's own stream rule."""
    ids = seed.stream_ids()
    return [np.flatnonzero(ids == i) for i in range(ids[-1] + 1 if len(ids) else 0)]


class TestBuildSeed:
    def test_unobstructed_user_is_los(self):
        cfg = small_cfg()
        world = world_from_objects(cfg, [car(0, 63.0, 10.5)])
        seed = build_seed([world], cfg)
        assert len(seed), "user should be visible to at least one camera"
        for bs, camera, user, frame, beam, status in as_tuples(seed):
            assert status == 0

    def test_user_behind_parked_bus_is_nlos(self):
        cfg = small_cfg()
        bs1 = world_from_objects(cfg, []).basestations[0]
        user = car(0, float(bs1.position[0]), 15.75)
        blocker = bus(1, float(bs1.position[0]), 5.25)
        worlds = static_worlds(cfg, [user, blocker], 3)
        bs1_rows = [r for r in as_tuples(build_seed(worlds, cfg)) if r[0] == 1 and r[2] == 0]
        assert bs1_rows
        for bs, camera, user, frame, beam, status in bs1_rows:
            assert status == 1

    def test_beam_matches_exhaustive_scan_oracle(self):
        cfg = small_cfg()
        world = world_from_objects(cfg, [car(0, 70.0, 8.75), car(1, 95.0, 12.25)])
        seed = build_seed([world], cfg)
        assert len(seed)
        for bs_id, camera, user_id, frame, beam, status in as_tuples(seed):
            bs = next(b for b in world.basestations if b.bs_id == bs_id)
            codebook = Codebook.build(bs.ula, cfg.beams)
            user = world.object_by_id(user_id)
            paths = synthesize_paths(bs, user, world, cfg.reflection_loss_db)
            h = channel_vector(paths, bs.ula, cfg.subcarriers,
                               cfg.cyclic_prefix, cfg.sample_time)
            best, best_p = None, -1.0
            for q in range(codebook.n_beams):
                p = received_power(h, codebook.vectors[q])
                if p > best_p:
                    best, best_p = q + 1, p
            assert beam == best

    def test_ownership_is_single_camera_per_bs(self):
        cfg = small_cfg()
        worlds = static_worlds(cfg, [car(0, 80.0, 8.75)], 5)
        per_bs = {}
        for bs, camera, *_ in as_tuples(build_seed(worlds, cfg)):
            per_bs.setdefault(bs, set()).add(camera)
            assert camera_to_bs(camera) == bs
        for cams in per_bs.values():
            assert len(cams) == 1  # static user keeps one owner

    def test_projects_once_per_camera_and_block(self, monkeypatch):
        # one projection per camera and block feeds both the detections and
        # the ownership test; frames without users add no rows to it, and a
        # block without users projects nothing (counted in one process: a
        # forked child's calls never reach this list)
        calls = []
        pin_processes(monkeypatch)

        def counting(cam, centers, dims):
            calls.append((cam.camera_id, len(centers)))
            return project_boxes(cam, centers, dims)

        monkeypatch.setattr(beamsight.pipeline, "project_boxes", counting)
        monkeypatch.setattr(beamsight.scene, "project_boxes", counting)
        cfg = small_cfg()
        with_user = world_from_objects(cfg, [car(0, 80.0, 8.75), bus(1, 100.0, 5.25)])
        without = world_from_objects(cfg, [bus(1, 100.0, 5.25)])
        worlds = ([with_user] * (BLOCK_FRAMES - 1) + [without] + [with_user] * 3
                  + [without] * (BLOCK_FRAMES - 3) + [without] * 2)
        assert len(build_seed(worlds, cfg))
        assert calls == [(camera, 2 * users) for users in (BLOCK_FRAMES - 1, 3)
                         for camera in range(1, 7)]

    def test_user_out_of_every_view_for_one_frame_splits_its_streams(self):
        cfg = small_cfg()
        worlds = static_worlds(cfg, [car(0, 80.0, 8.75)], 8)
        # frame 3: lifted far above every camera's field of view
        worlds[3] = world_from_objects(cfg, [SceneObject(
            object_id=0, object_class=VehicleClass.CAR, center=np.array([80.0, 8.75, 1000.0]),
            dims=np.array([4.6, 1.8, 1.5]), velocity=np.zeros(3), lane=0)])
        seed = build_seed(worlds, cfg)
        assert set(seed.bs.tolist()) == {1, 2}
        for bs_id in (1, 2):
            runs = [run for run in streams(seed) if seed.bs[run[0]] == bs_id]
            assert [seed.frame[run].tolist() for run in runs] == [[0, 1, 2], [4, 5, 6, 7]]
            assert seed.camera[runs[0][0]] == seed.camera[runs[1][0]]

    def test_desk_street_streams_are_maximal_runs(self):
        cfg = load_experiment_config(DESK).scenario
        assert assert_maximal_runs(build_seed(street(cfg, 60), cfg)) > 0

    def test_seed_detections_are_the_owning_cameras_detect(self):
        cfg = small_cfg(cars=8, buses=2, seed=4, p_miss=0.2, jitter_sigma=2.0,
                        p_false_positive=0.5)
        worlds = street(cfg, 4)
        noise = DetectorNoiseModel(p_miss=0.2, jitter_sigma=2.0, p_false_positive=0.5)
        seed = build_seed(worlds, cfg)
        detections = detections_by_key(seed.frames)
        # one detection list per owning camera and frame, and no other
        assert set(detections) == {(r[1], r[3]) for r in as_tuples(seed)}
        assert list(detections) == sorted(detections)   # by (camera, frame)
        for bs_id, camera, user, frame, beam, status in as_tuples(seed):
            bs = worlds[0].basestations[bs_id - 1]
            cam = next(c for c in bs.cameras if c.camera_id == camera)
            rng = np.random.default_rng([cfg.seed, DETECT_STREAM, frame, cam.camera_id])
            assert detections[camera, frame] == detect(
                cam, worlds[frame], noise, rng=rng,
                min_visible_fraction=cfg.min_visible_fraction)
        assert len(seed) > 10


def assert_same_seed(a, b):
    """Every column of two Seeds and of their frame tables, values and dtypes."""
    for name in ("bs", "camera", "user", "frame", "beam", "status"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("camera", "frame", "count", "classes", "boxes", "confidence"):
        x, y = getattr(a.frames, name), getattr(b.frames, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def on_basestation(monkeypatch, bs_id, act):
    """Wrap the seed pass's per-(block, basestation) kernel: ``act(bs)`` runs
    first for basestation ``bs_id``, and a non-None result replaces the
    kernel's.  A forked child inherits the patch."""
    real = beamsight.pipeline._seed_block

    def kernel(block, bs, *args):
        result = act(bs) if bs.bs_id == bs_id else None
        return real(block, bs, *args) if result is None else result

    monkeypatch.setattr(beamsight.pipeline, "_seed_block", kernel)


class TestForkedSeedPass:
    """Basestation 2's half of the seed pass in a forked child: the same Seed
    as one process, its errors raised here, and no process left behind."""

    @pytest.fixture
    def trace(self, tmp_path):
        cfg = load_experiment_config(MINI)
        simulate_stage(cfg.scenario, 40, tmp_path / "trace")
        scenario, world, rows = read_trace_rows(tmp_path / "trace")
        return rows, world, scenario

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):   # none running, none unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_hand_built_worlds_same_at_two_processes(self, monkeypatch):
        cfg = small_cfg(cars=8, buses=2, seed=4, p_miss=0.2, jitter_sigma=2.0,
                        p_false_positive=0.5)
        for worlds in (street(cfg, 4), static_worlds(cfg, [car(0, 80.0, 8.75)], 5)):
            seeds = []
            for processes in (1, 2):
                pin_processes(monkeypatch, processes)
                seeds.append(build_seed(worlds, cfg))
            assert_same_seed(*seeds)

    def test_child_error_is_raised_as_its_own(self, trace, monkeypatch):
        def fail(bs):
            raise ZeroDivisionError(f"basestation {bs.bs_id} failed")

        on_basestation(monkeypatch, 2, fail)
        for processes in (1, 2):
            pin_processes(monkeypatch, processes)
            with pytest.raises(ZeroDivisionError, match="^basestation 2 failed$"):
                seed_pass(*trace)

    def test_child_data_error_exits_2_naming_manifest(self, tmp_path, monkeypatch, capsys):
        # basestation 2's paths outlast the cyclic prefix; basestation 1's do not
        real = beamsight.pipeline.path_arrays

        def path_arrays(bs, *args):
            gain, delay, *angles = real(bs, *args)
            return (gain, delay * 1e6 if bs.bs_id == 2 else delay, *angles)

        monkeypatch.setattr(beamsight.pipeline, "path_arrays", path_arrays)
        pin_processes(monkeypatch, 2)
        trace = tmp_path / "trace"
        simulate_stage(load_experiment_config(MINI).scenario, 20, trace)
        assert main(["build-dataset", "--trace", str(trace), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{trace / 'manifest.json'}: path delay" in err and "is too short" in err
        assert not (tmp_path / "ds").exists()

    def test_parent_error_ends_a_child_blocked_on_its_result(self, trace, monkeypatch):
        # the child's 12 MB result cannot fit the pipe, so it blocks writing
        # until the parent reads; the parent fails instead and must not wait
        # on it forever
        def hung(signum, frame):
            raise TimeoutError("the seed pass waited on its child")

        def late_failure(bs):
            time.sleep(0.2)
            raise ZeroDivisionError("basestation 1 failed")

        on_basestation(monkeypatch, 2, lambda bs: (np.zeros((6, 2**18), dtype=int), []))
        on_basestation(monkeypatch, 1, late_failure)
        pin_processes(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(ZeroDivisionError, match="basestation 1 failed"):
                seed_pass(*trace)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("death, status", [
        (lambda: os._exit(7), "7"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")])
    def test_child_death_names_its_exit_status(self, trace, monkeypatch, death, status):
        on_basestation(monkeypatch, 2, lambda bs: death())
        pin_processes(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=f"exit status {status} and no result"):
            seed_pass(*trace)

    def test_child_runs_no_exit_handlers_and_flushes_no_buffers(self, trace, monkeypatch,
                                                               tmp_path):
        pin_processes(monkeypatch, 2)
        exits = os.open(tmp_path / "exits.txt", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        with (tmp_path / "buffered.txt").open("w") as buffered:
            buffered.write("parent\n")   # still in this process's buffer at the fork
            atexit.register(os.write, exits, b"exit handler\n")
            try:
                assert seed_pass(*trace).processes == 2
            finally:
                atexit.unregister(os.write)
                os.close(exits)
        assert (tmp_path / "buffered.txt").read_text() == "parent\n"
        assert (tmp_path / "exits.txt").read_text() == ""

    def test_process_count(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cases = [({0, 1}, None, 1),   # OpenBLAS's default, a thread per CPU, fills both
                 ({0, 1}, "1", 2), ({0}, "1", 1), ({0, 1, 2, 3}, "2", 2),
                 ({0, 1, 2, 3}, "3", 1), ({0, 1}, "0", 1), ({0, 1}, "x", 1)]
        for cpus, blas, processes in cases:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            if blas is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
            assert beamsight.config.cpu_workers() == processes, (cpus, blas)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert beamsight.config.cpu_workers() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert beamsight.config.cpu_workers() == 1

    def test_no_fork_runs_one_process(self, trace, monkeypatch):
        pin_processes(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert seed_pass(*trace).processes == 1

    def test_one_process_never_forks(self, trace, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        pin_processes(monkeypatch, 1)
        assert seed_pass(*trace).processes == 1


def assert_maximal_runs(seed):
    """Each stream is a run of consecutive frames under one camera of its
    basestation; the runs of one (bs, user) never overlap, and two that
    abut differ in camera, so no stream could be longer."""
    assert as_tuples(seed) == sorted(as_tuples(seed))   # by (bs, camera, user, frame)
    runs = {}
    for run in streams(seed):
        frames = seed.frame[run].tolist()
        assert frames == list(range(frames[0], frames[0] + len(frames)))
        assert run.tolist() == list(range(run[0], run[0] + len(run)))
        [(bs, camera, user)] = {(seed.bs[i], seed.camera[i], seed.user[i]) for i in run}
        assert camera_to_bs(camera) == bs
        runs.setdefault((bs, user), []).append((frames[0], frames[-1], camera))
    handovers = 0
    for spans in runs.values():
        spans.sort()
        for (_, end, camera), (start, _, next_camera) in zip(spans, spans[1:]):
            assert end < start
            if start == end + 1:
                assert camera != next_camera
                handovers += 1
    return handovers


def street(cfg, frames):
    worlds = [build_world(cfg)]
    for _ in range(frames - 1):
        worlds.append(step_world(worlds[-1], cfg.dt))
    return worlds


def seed_rows(worlds, cfg):
    """(world, basestation, user, status, beam) for every row build_seed emits."""
    for bs_id, camera, user_id, frame, beam, status in as_tuples(build_seed(worlds, cfg)):
        world = worlds[frame]
        bs = next(b for b in world.basestations if b.bs_id == bs_id)
        yield world, bs, world.object_by_id(user_id), status, beam


def oracle_status(bs, user, world):
    return int(any(sat_segment_box(bs.position, user.antenna_point, *o.bounds())
                   for o in world.objects if o.object_id != user.object_id))


def oracle_beam(bs, user, world, cfg, codebook):
    paths = synthesize_paths(bs, user, world, cfg.reflection_loss_db)
    channel = scalar_channel(paths, bs.ula, cfg.subcarriers, cfg.cyclic_prefix,
                             cfg.sample_time)
    return exhaustive_beam_scan(channel, codebook)


class TestSeedPassOracles:
    """build_seed's batched kernels against the scalar oracles."""

    def test_desk_street_statuses_and_beams(self):
        cfg = load_experiment_config(DESK).scenario
        rows = list(seed_rows(street(cfg, 30), cfg))
        assert len(rows) > 1000
        codebook = Codebook.build(rows[0][1].ula, cfg.beams)
        for world, bs, user, status, beam in rows:
            assert status == oracle_status(bs, user, world)
            # every beam against the K-domain scan of the per-subcarrier
            # channel (criteria 1 and 2 check both against the oracles) ...
            h = channel_vector(synthesize_paths(bs, user, world, cfg.reflection_loss_db),
                               bs.ula, cfg.subcarriers, cfg.cyclic_prefix,
                               cfg.sample_time)
            assert beam == select_beam(h, codebook)
        # ... and a spread of them against the scalar oracles themselves,
        # which take about 0.1 s per channel at desk size
        for world, bs, user, status, beam in rows[::30]:
            assert beam == oracle_beam(bs, user, world, cfg, codebook)
        assert {status for _, _, _, status, _ in rows} == {0, 1}

    def test_fewer_subcarriers_than_taps(self):
        # K = 8 < D = 16: taps fold modulo K before the scan
        cfg = small_cfg(cars=6, buses=2, seed=5, subcarriers=8, cyclic_prefix=16)
        rows = list(seed_rows(street(cfg, 4), cfg))
        assert len(rows) > 20
        codebook = Codebook.build(rows[0][1].ula, cfg.beams)
        for world, bs, user, status, beam in rows:
            assert beam == oracle_beam(bs, user, world, cfg, codebook)

    def test_basestation_at_antenna_height(self):
        # d[2] == 0: the segment runs inside the z slab of every box it can hit
        cfg = small_cfg(cars=6, buses=2, seed=5, bs_height=1.5)
        rows = list(seed_rows(street(cfg, 6), cfg))
        assert rows
        for world, bs, user, status, beam in rows:
            assert bs.position[2] == user.antenna_point[2]
            assert status == oracle_status(bs, user, world)
        assert {status for _, _, _, status, _ in rows} == {0, 1}


class TestBlockedSeedPass:
    """build_seed's blocks of frames against the per-frame reference pass."""

    def test_matches_per_frame_reference(self):
        self.check_against_reference(load_experiment_config(DESK).scenario)

    def test_matches_per_frame_reference_with_folded_taps(self):
        # K = 8 < D = 16 sends the fold of the taps modulo K through build_seed
        self.check_against_reference(replace(load_experiment_config(DESK).scenario,
                                             subcarriers=8))

    @staticmethod
    def check_against_reference(scenario):
        cfg = replace(scenario, p_false_positive=0.4)
        frames = 2 * BLOCK_FRAMES + 7          # two block boundaries, a short last block
        worlds = street(cfg, frames)
        # a frame without users, and one whose object set changes: the
        # lowest car id is dropped and a car with a new id drives in
        worlds[BLOCK_FRAMES + 3] = world_from_objects(
            cfg, [o for o in worlds[BLOCK_FRAMES + 3].objects if not o.is_user])
        dropped = min(o.object_id for o in worlds[9].users)
        worlds[9] = world_from_objects(cfg, [
            *(o for o in worlds[9].objects if o.object_id != dropped),
            car(1000, 95.0, 8.75, vx=5.0)])
        # one more object in frame 11 pads the other frames of its block
        worlds[11] = world_from_objects(cfg, [*worlds[11].objects, bus(1001, 120.0, 12.25)])
        seed = build_seed(worlds, cfg)
        rows, detections = per_frame_seed(worlds, cfg)
        assert as_tuples(seed) == rows
        assert detections_by_key(seed.frames) == detections
        frame_users = {(r[3], r[2]) for r in rows}
        assert (9, 1000) in frame_users and (9, dropped) not in frame_users
        assert not any(frame == BLOCK_FRAMES + 3 for frame, _ in frame_users)
        assert {frame for frame, _ in frame_users} >= {0, frames - 1}
        assert any(d.object_class is VehicleClass.CAR and d.confidence < 1.0
                   for dets in detections.values() for d in dets)


class TestTraceRows:
    """The seed pass's rows of a trace against object_rows of read_trace's worlds."""

    def test_rows_equal_object_rows_of_read_trace(self, tmp_path):
        # one run of the simulated objects over three blocks, the last one short
        cfg = load_experiment_config(MINI).scenario
        world, frames = build_world(cfg), 2 * BLOCK_FRAMES + 3
        centers = beamsight.scene.roll_centers(world, cfg.dt, frames)
        write_trace(tmp_path / "trace", cfg, world.objects, centers)

        cfg_back, world, rows = read_trace_rows(tmp_path / "trace")
        _, worlds = read_trace(tmp_path / "trace")
        want = object_rows([w.objects for w in worlds])
        for column in ("frame", "classes", "ids", "centers", "dims"):
            got, expected = getattr(rows, column), getattr(want, column)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), column
        assert cfg_back == cfg and world.objects == [] and len(worlds) == frames
        assert np.all(np.diff(rows.frame * 10**6 + rows.ids) > 0)   # sorted by (frame, id)
        ids = sorted(o.object_id for o in build_world(cfg).objects)
        assert [[(o.object_id, o.center.tolist()) for o in w.objects] for w in worlds] == \
            [list(zip(ids, frame.tolist())) for frame in centers]   # every frame's, by id

        seed, reference = seed_pass(rows, world, cfg), build_seed(worlds, cfg)
        assert as_tuples(seed) == as_tuples(reference)
        assert detections_by_key(seed.frames) == detections_by_key(reference.frames)
        assert {0, frames - 1} <= set(seed.frame.tolist())

    def test_read_peak_is_near_the_rows(self, tmp_path):
        # a 1,200-frame desk trace's rows are the file's centres in place and
        # the one object list tiled: the peak is the file, the rows and a few
        # int columns of them
        trace = simulate_stage(load_experiment_config(DESK).scenario, 1200, tmp_path / "trace")
        tracemalloc.start()
        try:
            rows = read_trace_rows(trace)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(column.nbytes for column in vars(rows).values())
        assert size > 2 * 2**20 and peak < 2.5 * size, \
            f"{peak / 2**20:.2f} MiB for {size / 2**20:.2f} MiB of rows"


class TestSimulateOracle:
    """The simulate stage's array rollout and column writer against the
    per-object stepping and list writer of ``oracles.simulate_trace``."""

    @staticmethod
    def assert_same_trace(a, b):
        for name in ("manifest.json", TRACE_FILE):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("config, frames", [(DESK, 1), (DESK, 2), (DESK, BLOCK_FRAMES + 3),
                                                (MINI, None)])
    def test_trace_bytes(self, tmp_path, config, frames):
        experiment = load_experiment_config(config)
        frames = frames or experiment.frames
        simulate_stage(experiment.scenario, frames, tmp_path / "lib")
        simulate_trace(experiment.scenario, frames, tmp_path / "oracle")
        self.assert_same_trace(tmp_path / "lib", tmp_path / "oracle")
        objects = len(build_world(experiment.scenario).objects)
        assert len(oracles.load_columns(tmp_path / "lib" / TRACE_FILE)[-1]) == frames * objects

    def test_vehicles_wrap_at_both_ends(self, tmp_path):
        cfg = small_cfg(cars=8, buses=2, trucks=1, min_speed=25.0, max_speed=40.0, seed=5)
        trace = simulate_stage(cfg, 60, tmp_path / "lib")
        simulate_trace(cfg, 60, tmp_path / "oracle")
        self.assert_same_trace(trace, tmp_path / "oracle")
        x = read_trace_rows(trace)[2].centers[:, 0].reshape(60, -1)
        forward = np.array([o.velocity[0] > 0 for o in build_world(cfg).objects])
        assert forward.any() and not forward.all()
        jumps = np.diff(x, axis=0)
        assert (jumps[:, forward] < 0).any()              # past street_length back to 0
        assert (jumps[:, ~forward] > 0).any()             # backward lanes across x = 0
        assert x.min() >= 0.0 and x.max() < cfg.street_length


def make_seed(statuses, camera_id=2, user_id=0, beams=None, start_frame=0):
    """A Seed holding one stream of the given link statuses."""
    frames = list(range(start_frame, start_frame + len(statuses)))
    return Seed(bs=np.full(len(frames), camera_to_bs(camera_id)),
                camera=np.full(len(frames), camera_id), user=np.full(len(frames), user_id),
                frame=np.array(frames, dtype=int),
                beam=np.array(beams if beams else [1] * len(frames)),
                status=np.array(statuses, dtype=int),
                frames=FrameTable.of([(camera_id, t, []) for t in frames]))


def window_list(seed):
    return samples_of(collect_windows(seed))


class TestWindowSequences:
    def test_stream_of_exactly_13_gives_one_sequence(self):
        assert len(window_list(make_seed([0] * 13))) == 1

    def test_short_stream_gives_zero_sequences(self):
        assert window_list(make_seed([0] * 12)) == []

    def test_all_los_window_is_nonpivotal(self):
        [sample] = window_list(make_seed([0] * 8 + [0, 0, 0, 0, 0]))
        assert sample.label.status == 0
        assert sample.label.blockage_instance is None

    def test_all_32_windows_match_any_oracle(self):
        for bits in itertools.product((0, 1), repeat=5):
            [sample] = window_list(make_seed([0] * 8 + list(bits)))
            assert sample.label.status == (1 if any(bits) else 0)
            assert sample.label.window == bits
            if any(bits):
                assert sample.label.blockage_instance == bits.index(1) + 1

    def test_stride_one_and_no_leakage(self):
        statuses = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1]
        samples = window_list(make_seed(statuses, start_frame=100))
        assert len(samples) == len(statuses) - 13 + 1
        for i, sample in enumerate(samples):
            assert sample.sequence.t_end == 100 + i + 7
            # label window strictly follows the observation
            assert sample.label.window == tuple(statuses[i + 8:i + 13])

    def test_beams_copied_in_order(self):
        beams = list(range(1, 14))
        [sample] = window_list(make_seed([0] * 13, beams=beams))
        assert sample.sequence.beams == beams[:8]

    @pytest.mark.parametrize("cut", ["frame gap", "camera", "user"])
    def test_no_window_spans_two_streams(self, cut):
        # 20 rows that would hold 8 windows as one stream, cut after row 10
        first, second = make_seed([0] * 10, camera_id=1), make_seed(
            [0] * 10, camera_id=2 if cut == "camera" else 1,
            user_id=1 if cut == "user" else 0, start_frame=11 if cut == "frame gap" else 10)
        seed = Seed(*(np.concatenate([getattr(first, c), getattr(second, c)])
                      for c in ("bs", "camera", "user", "frame", "beam", "status")),
                    frames=concat([first.frames, second.frames]))
        assert len(streams(seed)) == 2
        assert window_list(seed) == []
        assert len(window_list(make_seed([0] * 20, camera_id=1))) == 8


def make_sample(camera_id, user_id, t_end, status, beams=None):
    window = (1, 0, 0, 0, 0) if status else (0, 0, 0, 0, 0)
    seq = ObservedSequence(camera_id=camera_id, user_id=user_id, t_end=t_end,
                           beams=beams or [1] * 8, detections=[[] for _ in range(8)])
    return LabeledSample(seq, FutureLabel(status, window, 1 if status else None))


def split(samples, **kwargs):
    """balance_and_split of LabeledSamples, its train and val tables viewed as datasets."""
    return [LabeledDataset(samples_of(windows), name) for windows, name in zip(
        balance_and_split(*window_tables(samples), **kwargs), ("train", "val"))]


def conjugates(windows_bs1, windows_bs2, **kwargs):
    """conjugate_pairs of LabeledSamples, viewed as ConjugateSamples."""
    return pairs_of(conjugate_pairs(*window_tables([*windows_bs1, *windows_bs2]), **kwargs))


def write_samples(out_dir, train, val, pairs, manifest):
    """write_dataset of LabeledSamples and ConjugateSamples."""
    *tables, bs1, bs2 = window_tables(train, val, [p.sample_bs1 for p in pairs],
                                      [p.sample_bs2 for p in pairs])
    write_dataset(out_dir, *tables, (bs1, bs2, np.array([p.category for p in pairs],
                                                         dtype=np.int64)), manifest)


class TestBalanceAndSplit:
    def test_quota_zero_gives_empty_datasets(self):
        samples = [make_sample(1, 0, t, t % 2) for t in range(20)]
        train, val = split(samples, quota=0, seed=1)
        assert train.samples == [] and val.samples == []

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            balance_and_split(*window_tables([]), quota=5)

    def test_histogram_equals_min_quota_available(self):
        rng = np.random.default_rng(0)
        samples = []
        avail = {}
        for cam in range(1, 7):
            n_piv = int(rng.integers(3, 40))
            n_non = int(rng.integers(3, 40))
            avail[(cam, 1)] = n_piv
            avail[(cam, 0)] = n_non
            samples += [make_sample(cam, 0, t, 1) for t in range(n_piv)]
            samples += [make_sample(cam, 1, t, 0) for t in range(n_non)]
        quota = 20
        train, val = split(samples, quota=quota, seed=3)
        counts = {}
        for s in train.samples + val.samples:
            key = (s.sequence.camera_id, s.label.status)
            counts[key] = counts.get(key, 0) + 1
        for key, n in avail.items():
            assert counts.get(key, 0) == min(quota, n)

    def test_paper_scale_totals(self):
        # 9000 sequences per camera (4500 pivotal + 4500 non-pivotal) over
        # 6 cameras gives 54000 samples split evenly
        samples = []
        for cam in range(1, 7):
            samples += [make_sample(cam, 0, t, 1) for t in range(5000)]
            samples += [make_sample(cam, 1, t, 0) for t in range(5000)]
        train, val = split(samples, quota=4500, seed=0)
        assert len(train.samples) + len(val.samples) == 54000
        assert len(train.samples) == 27000
        assert len(val.samples) == 27000
        per_camera = {}
        for s in train.samples + val.samples:
            per_camera[s.sequence.camera_id] = per_camera.get(s.sequence.camera_id, 0) + 1
        assert all(n == 9000 for n in per_camera.values())

    def test_split_is_stratified(self):
        samples = [make_sample(2, 0, t, 1) for t in range(40)]
        samples += [make_sample(2, 1, t, 0) for t in range(40)]
        train, val = split(samples, quota=30, seed=9)
        for ds in (train, val):
            piv = sum(s.label.status for s in ds.samples)
            assert piv == 15
            assert len(ds.samples) == 30

    def test_no_sample_in_both_splits(self):
        samples = [make_sample(3, 0, t, t % 2) for t in range(50)]
        train, val = split(samples, quota=20, seed=4)
        train_keys = {s.key for s in train.samples}
        val_keys = {s.key for s in val.samples}
        assert not (train_keys & val_keys)


class TestConjugatePairs:
    def test_category_assignment(self):
        w1 = [make_sample(3, 0, 50, 1)]
        w2 = [make_sample(4, 0, 50, 0)]
        [pair] = conjugates(w1, w2)
        assert pair.category == 1
        w1b = [make_sample(3, 0, 51, 0)]
        w2b = [make_sample(4, 0, 51, 1)]
        [pair2] = conjugates(w1b, w2b)
        assert pair2.category == 2

    def test_equal_statuses_excluded(self):
        w1 = [make_sample(3, 0, 50, 1)]
        w2 = [make_sample(4, 0, 50, 1)]
        assert conjugates(w1, w2) == []

    def test_non_overlap_cameras_ignored(self):
        w1 = [make_sample(2, 0, 50, 1)]
        w2 = [make_sample(4, 0, 50, 0)]
        assert conjugates(w1, w2) == []

    def test_counts_match_hash_join_oracle(self):
        rng = np.random.default_rng(6)
        w1, w2 = [], []
        for user in range(6):
            for t in range(30, 70):
                if rng.random() < 0.6:
                    w1.append(make_sample(3, user, t, int(rng.random() < 0.4)))
                if rng.random() < 0.6:
                    w2.append(make_sample(4, user, t, int(rng.random() < 0.4)))
        pairs = conjugates(w1, w2)
        lookup1 = {(s.sequence.user_id, s.sequence.t_end): s.label.status for s in w1}
        lookup2 = {(s.sequence.user_id, s.sequence.t_end): s.label.status for s in w2}
        expected = sum(
            1 for key in set(lookup1) & set(lookup2)
            if lookup1[key] != lookup2[key]
        )
        assert len(pairs) == expected

    def test_exclusion_of_train_keys(self):
        w1 = [make_sample(3, 0, 50, 1)]
        w2 = [make_sample(4, 0, 50, 0)]
        excluded = {(3, 0, 50)}
        assert conjugates(w1, w2, exclude_keys=excluded) == []


class TestSeedCounters:
    def test_hand_built_trace(self, tmp_path):
        # a user parked behind a bus at basestation 1, out of every view at
        # frame 3 (lifted, as the second user is), and a second user never in view
        cfg = small_cfg()
        x = float(world_from_objects(cfg, []).basestations[0].position[0])
        hidden = SceneObject(object_id=2, object_class=VehicleClass.CAR,
                             center=np.array([80.0, 8.75, 1000.0]),
                             dims=np.array([4.6, 1.8, 1.5]), velocity=np.zeros(3), lane=0)
        worlds = static_worlds(cfg, [car(0, x, 15.75), bus(1, x, 5.25), hidden], 20)
        worlds[3] = world_from_objects(cfg, [replace(car(0, x, 15.75), center=np.array(
            [x, 15.75, 1000.0])), bus(1, x, 5.25), hidden])
        write_worlds(tmp_path / "trace", cfg, worlds)
        manifest = build_dataset_stage(tmp_path / "trace", tmp_path / "ds",
                                       DatasetConfig(quota=2))
        bs2 = worlds[0].basestations[1]
        nlos_bs2 = sum(oracle_status(bs2, w.object_by_id(0), w)
                       for i, w in enumerate(worlds) if i != 3)
        assert manifest["seed_pass"] == {
            "rows": {"bs1": 19, "bs2": 19},
            "nlos_rows": {"bs1": 19, "bs2": nlos_bs2},
            "streams": 4,
            "longest_stream": 16,
            "users_never_visible": 1,
        }
        assert "seed_pass" not in manifest["counts"]
        on_disk = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert on_disk["seed_pass"] == manifest["seed_pass"]


def write_street_dataset(out_dir):
    """A dataset written from a short simulated street; returns its windows."""
    cfg = small_cfg(cars=4, buses=1, trucks=0, seed=8, p_miss=0.1, jitter_sigma=1.0)
    from beamsight.scene import build_world, step_world

    worlds = [build_world(cfg)]
    for _ in range(25):
        worlds.append(step_world(worlds[-1], cfg.dt))
    windows = collect_windows(build_seed(worlds, cfg))
    train, val = balance_and_split(windows, quota=5, seed=3)
    pairs = conjugate_pairs(windows)
    write_dataset(out_dir, train, val, pairs, {"seed": 3})
    return samples_of(train) + samples_of(val) + [s for p in pairs_of(pairs)
                                                  for s in (p.sample_bs1, p.sample_bs2)]


class TestSerialization:
    def test_sample_roundtrip(self, tmp_path):
        from beamsight.scene import Detection

        # corners that are float32 values, the precision of frames.cols
        dets = [[Detection(VehicleClass.CAR, (0.125, 0.25, 0.375, 0.5), 0.9)]] + \
               [[] for _ in range(7)]
        seq = ObservedSequence(camera_id=5, user_id=3, t_end=42,
                               beams=[1, 2, 3, 4, 5, 6, 7, 8], detections=dets)
        sample = LabeledSample(seq, FutureLabel(1, (0, 1, 0, 0, 1), 2))
        write_samples(tmp_path, [], [sample], [], {})
        assert read_split(tmp_path, "val").samples == [sample]

    def test_dataset_files_byte_identical_for_same_inputs(self, tmp_path):
        write_street_dataset(tmp_path / "a")
        write_street_dataset(tmp_path / "b")
        for name in (*DATASET_FILES, "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_one_frame_line_per_observed_camera_frame(self, tmp_path):
        windows = write_street_dataset(tmp_path)
        observed = {(s.sequence.camera_id, t)
                    for s in windows
                    for t in range(s.sequence.t_end - 7, s.sequence.t_end + 1)}
        assert list(_read_frames(tmp_path)) == sorted(observed)
        for name in ("train.ndrec", "val.ndrec"):   # key, beams and statuses only
            assert len(oracles.load_columns(tmp_path / name)) == 5
        # within one read, windows that observe one frame share its detection
        # list, also across splits read together
        lists = {}
        samples = [s for ds in read_splits(tmp_path, "train", "val") for s in ds.samples]
        for s in samples:
            for t, frame in enumerate(s.sequence.detections, s.sequence.t_end - 7):
                assert lists.setdefault((s.sequence.camera_id, t), frame) is frame
        assert len(samples) * 8 > len(lists)   # some frames are shared
        assert [s.key for s in samples] == [s.key for s in windows[:len(samples)]]

    def test_trace_roundtrip(self, tmp_path):
        cfg = small_cfg(cars=3, buses=1, trucks=1, seed=4)
        from beamsight.scene import build_world, step_world

        worlds = [build_world(cfg)]
        for _ in range(4):
            worlds.append(step_world(worlds[-1], cfg.dt))
        write_worlds(tmp_path / "trace", cfg, worlds)
        cfg_back, worlds_back = read_trace(tmp_path / "trace")
        assert cfg_back == cfg
        assert len(worlds_back) == len(worlds)
        # one geometry for the whole trace, equal to the simulated one
        assert all(w.basestations is worlds_back[0].basestations for w in worlds_back)
        for ba, bb in zip(worlds[0].basestations, worlds_back[0].basestations):
            assert np.array_equal(ba.position, bb.position)
            for ca, cb in zip(ba.cameras, bb.cameras):
                assert np.array_equal(ca.rotation, cb.rotation)
        for wa, wb in zip(worlds, worlds_back):
            for oa, ob in zip(wa.objects, wb.objects):
                assert oa.object_id == ob.object_id
                assert np.array_equal(oa.center, ob.center)
                assert np.array_equal(oa.velocity, ob.velocity)

    def test_split_files_readable(self, tmp_path):
        samples = [make_sample(1, 0, t, t % 2) for t in range(7, 17)]   # frames from 0
        train, val = split(samples, quota=4, seed=2)
        write_samples(tmp_path, train.samples, val.samples, [], {"q": 4})
        assert [s.key for s in read_split(tmp_path, "train").samples] == \
            [s.key for s in train.samples]
        assert read_pairs(tmp_path / "pairs.ndrec") == []

    @staticmethod
    def write_two_windows(out_dir, change: dict) -> Path:
        """A val.ndrec of two windows, the second one's columns changed by ``change``,
        in a dataset whose frames.cols holds the first one's frames."""
        write_samples(out_dir, [make_sample(1, 0, 20, 1)], [], [], {})
        [group] = window_groups(out_dir / "train.ndrec")
        two = {name: np.concatenate([column, column]) for name, column in group.items()}
        two["user"][1] = 1
        for name, value in change.items():
            two[name][1] = value
        oracles.save_window_groups(path := out_dir / "val.ndrec", [two])
        return path

    @pytest.mark.parametrize("change, check", [
        ({"t_end": 500}, "row 1: window (1, 1, 500) observes frame 493 of its camera, "
                         "which frames.cols lacks"),
        ({"t_end": 3}, "row 1: window (1, 1, 3) observes frame -4 of its camera"),   # t below 0
        ({"t_end": 2**62}, "row 1: window (1, 1, 4611686018427387904) observes frame"),
        ({"camera": 2}, "row 1: window (2, 1, 20) observes frame 13 of its camera"),
        ({"future": 2}, "a future link status other than 0 (LOS) or 1 (NLOS), first at row 1"),
        ({"future": -1}, "a future link status other than 0 (LOS) or 1 (NLOS), first at row 1"),
        ({"camera": 7}, "a camera outside 1..6, first at row 1"),
    ])
    def test_malformed_window_names_file_and_row(self, tmp_path, change, check):
        path = self.write_two_windows(tmp_path, change)
        with pytest.raises(DataError) as err:
            read_split(tmp_path, "val")
        assert str(err.value).startswith(f"{path}: ") and check in str(err.value)

    @pytest.mark.parametrize("change", [{"camera": 99}, {"camera": 0}, {"camera": -1},
                                        {"future": 2}, {"future": -1}])
    def test_window_out_of_range_names_file_and_row(self, tmp_path, change):
        # read without its frames, as a beam-only stage reads it
        path = self.write_two_windows(tmp_path, change)
        with pytest.raises(DataError) as err:
            read_windows(tmp_path, "val")
        assert str(err.value).startswith(f"{path}: ") and str(err.value).endswith("first at row 1")

    FRAME_CHECKS = {   # what the error names, by the defect of frames.cols
        "unknown class": "unknown class code", "x1 = x2": "a box not within",
        "past the image": "a box not within", "nan corner": "a box not within",
        "inf corner": "a box not within", "confidence below 0": "a confidence outside",
        "nan confidence": "a confidence outside", "inf confidence": "a confidence outside",
        "count one more": "the counts sum to", "count negative": "a count below 0",
        "key repeated": "of frame 1 repeats or is below", "keys swapped": "of frame 1 repeats or",
        "a camera short": "differ in length", "classes as <i8": "classes column: <i8 of shape",
        "boxes as (n, 2)": "boxes column: <f4 of shape", "trailing bytes": "8 bytes follow",
        "camera 7": "a camera outside 1..6, first at row", "frame negative": "a frame number",
        "frame 2**32": "a frame number outside 0..2**32 - 1, first at row 0",
    }

    @pytest.mark.parametrize("defect", FRAME_DEFECTS)
    @pytest.mark.parametrize("reader", ["split", "pairs"])
    def test_malformed_frame_columns_name_file_and_check(self, dataset, tmp_path, defect, reader):
        shutil.copytree(dataset, tmp_path / "ds")
        path = tmp_path / "ds" / "frames.cols"
        break_frame_columns(path, defect)
        with pytest.raises(DataError) as err:
            if reader == "split":
                read_split(tmp_path / "ds", "val")
            else:
                read_pairs(tmp_path / "ds" / "pairs.ndrec")
        message = str(err.value)
        assert message.startswith(f"{path}: ") and self.FRAME_CHECKS[defect] in message


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The dataset the stages build from the mini config."""
    cfg = load_experiment_config(MINI)
    out = tmp_path_factory.mktemp("mini")
    simulate_stage(cfg.scenario, cfg.frames, out / "trace")
    build_dataset_stage(out / "trace", out / "dataset", cfg.dataset)
    return out / "dataset"


class TestReaderOracle:
    """The column readers against the object reader of ``oracles``: one
    record at a time, one Detection per box."""

    def test_frame_table_matches_field_for_field(self, dataset):
        frames, expected = read_frames(dataset), _read_frames(dataset)
        assert list(zip(frames.camera.tolist(), frames.frame.tolist())) == list(expected)
        assert frames.count.tolist() == [len(d) for d in expected.values()]
        flat = [d for detections in expected.values() for d in detections]
        assert frames.classes.tolist() == [CLASSES.index(d.object_class) for d in flat]
        assert frames.boxes.tolist() == [list(d.bbox) for d in flat]
        assert frames.confidence.tolist() == [d.confidence for d in flat]
        assert frames.detections() == list(expected.values())

    def windows_match(self, windows, samples, frames):
        assert windows.keys() == [s.key for s in samples]
        assert windows.beams.tolist() == [s.sequence.beams for s in samples]
        assert windows.future.tolist() == [list(s.label.window) for s in samples]
        assert windows.label.tolist() == [s.label.status for s in samples]
        assert windows.instance.tolist() == [s.label.blockage_instance or 0 for s in samples]
        detections = frames.detections()
        assert [[detections[i] for i in rows] for rows in windows.frame_rows.tolist()] == \
            [s.sequence.detections for s in samples]

    def test_window_tables_and_objects_match(self, dataset):
        expected_frames, frames = _read_frames(dataset), read_frames(dataset)
        expected = {split: [record_to_sample(r, expected_frames)
                            for r in read_records(dataset / f"{split}.ndrec")]
                    for split in ("train", "val")}
        tables = read_windows(dataset, "train", "val")
        for (split, samples), windows in zip(expected.items(), tables):
            assert samples
            self.windows_match(observe(dataset / f"{split}.ndrec", windows, frames),
                               samples, frames)
            assert read_split(dataset, split).samples == samples
        assert [ds.samples for ds in read_splits(dataset, "train", "val")] == \
            list(expected.values())

    def test_pair_tables_and_objects_match(self, dataset):
        expected_frames, frames = _read_frames(dataset), read_frames(dataset)
        expected = [record_to_pair(r, expected_frames)
                    for r in read_records(dataset / "pairs.ndrec")]
        assert expected
        bs1, bs2, category = read_pair_table(dataset / "pairs.ndrec")
        for side, windows in (("sample_bs1", bs1), ("sample_bs2", bs2)):
            self.windows_match(observe(dataset / "pairs.ndrec", windows, frames),
                               [getattr(p, side) for p in expected], frames)
        assert category.tolist() == [p.category for p in expected]
        assert read_pairs(dataset / "pairs.ndrec") == expected

    @pytest.mark.parametrize("mode", ["bimodal", "beam-only"])
    def test_table_and_object_encodings_are_byte_identical(self, dataset, mode):
        # the stages encode tables; the benchmark checks encode LabeledSamples
        table = BeamEmbeddingTable(read_manifest(dataset)["codebook"]["beams"], 64, seed=3)
        frames, [val] = read_frames(dataset), read_windows(dataset, "val")
        x, y = encode_dataset(observe(dataset / "val.ndrec", val, frames), table, mode)
        expected, labels = encode_dataset(read_split(dataset, "val").samples, table, mode)
        assert x.rows.tobytes() == expected.rows.tobytes()
        assert x.index.tobytes() == expected.index.tobytes()
        assert y.tobytes() == labels.tobytes()


WINDOW_DEFECTS = {   # a defect of a window or pair file -> what the error names
    "t_end as <f8": "t_end column: <f8 of shape", "beams as <i8": "beams column: <i8 of shape",
    "future as (n,)": "future column: |i1 of shape", "beams as Fortran": "beams column: <i2",
    "user short": "the columns of windows differ in length", "trailing bytes": "2 bytes follow",
    "cut in a header": "not a .npy header", "cut in the data": "rows do not fit in the file",
    "2**40 rows": "camera column: 1099511627776 rows do not fit in the file",
    "a negative row count": "camera column: <i8 of shape (-1,)",
    **{f"beams (0, {name})": f"beams column: a row of shape ({width},) is longer than the file"
       for name, width in (("2**62", 2**62), ("2**70", 2**70))},   # no rows, a huge width
    **{f"beams ({name}, 0)": f"beams column: {rows} rows of shape (0,) hold no values"
       for name, rows in (("2**62", 2**62), ("2**70", 2**70))},   # no width, a huge row count
}
PAIR_DEFECTS = {**WINDOW_DEFECTS,
                "bs2 short": "bs2 windows: a pair has one of each",
                "bs2 group missing": "bs2 camera column: not a .npy header",
                "bs2 beams narrower": None}


def break_window_columns(path: Path, defect: str) -> None:
    """``defect``, a key of PAIR_DEFECTS, made in a window or pair file."""
    data = path.read_bytes()
    if defect.startswith("cut") or defect == "trailing bytes":
        head = 128   # np.save pads each header to a multiple of 64 bytes
        path.write_bytes({"cut in a header": data[:head // 2], "cut in the data": data[:head + 4],
                          "trailing bytes": data + b"\0\0"}[defect])
        return
    groups = window_groups(path)
    first = groups[0]
    if defect.startswith(("2**40", "a negative")):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": "<i8", "fortran_order": False,
            "shape": (2**40,) if defect.startswith("2**40") else (-1,)})
        path.write_bytes(header.getvalue() + data[128 + first["camera"].nbytes:])
        return
    if defect.startswith("beams ("):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": "<i2", "fortran_order": False,
            "shape": tuple({"0": 0, "2**62": 2**62, "2**70": 2**70}[n]
                           for n in defect[len("beams ("):-1].split(", "))})
        empty = [np.save(buffer := io.BytesIO(), first[name][:0]) or buffer.getvalue()
                 for name in oracles.WINDOW_COLUMNS]
        path.write_bytes(b"".join(empty[:3]) + header.getvalue() + empty[4])
        return
    if defect == "t_end as <f8":
        first["t_end"] = first["t_end"].astype("<f8")
    elif defect == "beams as <i8":
        first["beams"] = first["beams"].astype("<i8")
    elif defect == "future as (n,)":
        first["future"] = first["future"][:, 0].copy()
    elif defect == "beams as Fortran":
        first["beams"] = np.asfortranarray(first["beams"])
    elif defect == "user short":
        first["user"] = first["user"][:-1]
    elif defect == "bs2 short":
        groups[1] = {name: column[:-1] for name, column in groups[1].items()}
    elif defect == "bs2 group missing":
        groups = groups[:1]
    else:
        groups[1]["beams"] = groups[1]["beams"][:, 1:].copy()
    oracles.save_window_groups(path, groups)


class TestColumnFiles:
    """A window or pair file is read by the one column reader into the columns
    ``np.load`` gives, every value checked; any other file is a DataError
    naming it and the check."""

    @pytest.mark.parametrize("name", ["train.ndrec", "val.ndrec", "pairs.ndrec"])
    def test_tables_hold_np_loads_columns(self, dataset, name):
        read = (read_pair_table(dataset / name)[:2] if name == "pairs.ndrec"
                else read_windows(dataset, name.split(".")[0]))
        for windows, group in zip(read, window_groups(dataset / name), strict=True):
            assert len(windows) > 0
            for column in oracles.WINDOW_COLUMNS:
                found = getattr(windows, column)
                assert found.dtype == np.int64 and np.array_equal(found, group[column]), column

    @pytest.mark.parametrize("name, defect", [("val.ndrec", d) for d in WINDOW_DEFECTS]
                             + [("pairs.ndrec", d) for d in PAIR_DEFECTS])
    def test_defect_names_file_and_check(self, dataset, tmp_path, name, defect):
        shutil.copytree(dataset, tmp_path / "ds")
        path = tmp_path / "ds" / name
        break_window_columns(path, defect)
        check = PAIR_DEFECTS[defect]
        read = ((lambda: read_pair_table(path)) if name == "pairs.ndrec"
                else lambda: read_windows(tmp_path / "ds", "val"))
        if check is None:   # the sides' beam widths need not agree
            bs1, bs2, _ = read()
            assert bs1.beams.shape[1] == bs2.beams.shape[1] + 1
            return
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as err:
                read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(err.value)
        assert message.startswith(f"{path}: ") and check in message, message
        if name == "pairs.ndrec" and not defect.startswith(("bs2", "cut", "trailing")):
            assert message.startswith(f"{path}: bs1 ") or "windows differ" in message
        assert peak < 2**20 + 2 * path.stat().st_size


class TestRepeats:
    """The bulk repeated-key check against a row loop, the reference: the
    first row to repeat a key of its own file or of an earlier file read
    with it, and that key's first row."""

    @staticmethod
    def first_repeat(files) -> str | None:
        seen = {}
        for path, keys in files:
            for i, key in enumerate(zip(*(column.tolist() for column in keys))):
                if key in seen:
                    other, j = seen[key]
                    return f"{path}: row {i} repeats key {key} of {other}: row {j}"
                seen[key] = (path, i)
        return None

    def test_seeded_files_name_the_loops_rows(self, tmp_path):
        rng = np.random.default_rng(30)
        for case in range(500):
            width, files = int(rng.integers(1, 4)), []   # key columns; 1 to 3 files
            for f in range(int(rng.integers(1, 4))):   # of 0 to 7 rows
                rows = int(rng.integers(0, 8))
                files.append((tmp_path / f"{case}-{f}",
                              tuple(rng.integers(0, 3, rows) for _ in range(width))))
            seen, found = [], None
            try:
                for path, keys in files:
                    beamsight.pipeline._repeats(path, keys, lambda table: table, seen)
            except DataError as exc:
                found = str(exc)
            assert found == self.first_repeat(files), case


def cut_seed():
    """A hand-built Seed whose streams are cut by a frame gap, a change of
    camera and a change of user, at both basestations, with random beams,
    statuses and detections."""
    rng = np.random.default_rng(11)
    runs = [(1, 3, 0, 0, 20), (1, 3, 0, 21, 40), (1, 2, 1, 0, 15), (1, 3, 1, 15, 33),
            (2, 4, 0, 0, 40), (2, 4, 1, 0, 33), (2, 5, 2, 5, 25)]   # bs, camera, user, frames
    rows = np.array([(bs, c, u, f) for bs, c, u, lo, hi in runs for f in range(lo, hi)])
    rows = rows[np.lexsort(rows.T[::-1])]
    detections = {}
    for key in sorted(set(zip(rows[:, 1].tolist(), rows[:, 3].tolist()))):
        corner, size = rng.uniform(0.0, 0.5, (2, 2, n := int(rng.integers(0, 4))))
        detections[key] = [Detection(CLASSES[c], (x, y, x + w, y + h), p)
                            for c, x, y, w, h, p in zip(
                                rng.integers(0, len(CLASSES), n).tolist(), *corner.tolist(),
                                *(size + 0.01).tolist(), rng.uniform(0.3, 1.0, n).tolist())]
    return Seed(*rows.T, beam=rng.integers(1, 33, len(rows)),
                status=(rng.random(len(rows)) < 0.3).astype(int),
                frames=FrameTable.of([(*key, d) for key, d in detections.items()]))


def differing_files(a, b, names=(*DATASET_FILES, "manifest.json")):
    return [name for name in names if (a / name).read_bytes() != (b / name).read_bytes()]


class TestBuildOracle:
    """The table build path against the object writer of ``oracles``: one
    LabeledSample per window, the columns built from them through ``np.save``."""

    CASES = ["mini", "quota 0", "no pairs", "desk street 3", "desk street 4", "desk street 5"]

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        """Each case's trace, dataset config and dataset built by the stage;
        the desk streets are the seed-pass benchmark's (100 frames, quota 300)."""
        mini, desk = load_experiment_config(MINI), load_experiment_config(DESK)
        out = tmp_path_factory.mktemp("build")
        simulate_stage(mini.scenario, mini.frames, out / "trace" / "mini")
        cases = {"mini": ("mini", mini.dataset),
                 "quota 0": ("mini", replace(mini.dataset, quota=0)),
                 "no pairs": ("mini", replace(mini.dataset, overlap_cameras=(1, 6)))}
        for s in (3, 4, 5):
            simulate_stage(replace(desk.scenario, seed=s), 100, out / "trace" / f"desk{s}")
            cases[f"desk street {s}"] = (f"desk{s}", replace(desk.dataset, quota=300, seed=1))
        for case, (trace, cfg) in cases.items():
            build_dataset_stage(out / "trace" / trace, out / case, cfg)
        return out, cases

    @pytest.mark.parametrize("case", CASES)
    def test_stage_files_byte_identical(self, built, case, tmp_path):
        out, cases = built
        trace, cfg = cases[case]
        manifest = json.loads((out / case / "manifest.json").read_text())
        scenario, world, rows = read_trace_rows(out / "trace" / trace)
        oracles.build_dataset(seed_pass(rows, world, scenario), cfg, tmp_path, manifest)
        assert differing_files(out / case, tmp_path) == []
        assert manifest["counts"]["pairs"] > 0 or case == "no pairs"
        assert (manifest["counts"]["train"] == {}) == (case == "quota 0")

    @pytest.mark.parametrize("case", CASES)
    def test_read_tables_equal_the_object_reader(self, built, case):
        # every window and pair the readers give, against the records of np.load
        out, _ = built
        ds = out / case
        for split, windows in zip(("train", "val"), read_windows(ds, "train", "val")):
            records = oracles.read_records(ds / f"{split}.ndrec")
            assert [list(w.values()) for w in records] == [
                [*key, b, f] for key, b, f in zip(windows.keys(), windows.beams.tolist(),
                                                  windows.future.tolist())]
        bs1, bs2, category = read_pair_table(ds / "pairs.ndrec")
        records = oracles.read_records(ds / "pairs.ndrec")
        assert [(r["bs1"]["user"], r["bs1"]["t_end"]) for r in records] == \
            list(zip(bs1.user.tolist(), bs2.t_end.tolist()))
        assert category.tolist() == [1 if any(r["bs1"]["window"]) else 2 for r in records]

    @pytest.mark.parametrize("quota", [0, 2, 100])
    def test_hand_built_seed_byte_identical(self, tmp_path, quota):
        seed, cfg = cut_seed(), DatasetConfig(quota=quota, seed=5)
        windows = collect_windows(seed, cfg.observed, cfg.future)
        train, val = balance_and_split(windows, cfg.quota, cfg.split_fraction, cfg.seed)
        pairs = conjugate_pairs(windows, cfg.overlap_cameras, frozenset(train.keys()))
        write_dataset(tmp_path / "tables", train, val, pairs, {})
        oracles.build_dataset(seed, cfg, tmp_path / "objects", {})
        assert differing_files(tmp_path / "tables", tmp_path / "objects",
                               names=DATASET_FILES) == []
        assert len(pairs[2]) > 0 and (len(train) > 0) == (quota > 0)

    @pytest.mark.parametrize("case", ["mini", "desk street 3"])
    def test_files_identical_at_one_and_two_processes(self, built, case, tmp_path,
                                                       monkeypatch):
        out, cases = built
        trace, cfg = cases[case]
        for processes in (1, 2):
            pin_processes(monkeypatch, processes)
            build_dataset_stage(out / "trace" / trace, tmp_path / str(processes), cfg)
            assert differing_files(out / case, tmp_path / str(processes)) == []

    def test_seed_pass_identical_at_one_and_two_processes(self, built, monkeypatch):
        out, _ = built
        for trace in ("mini", "desk3", "desk4", "desk5"):
            scenario, world, rows = read_trace_rows(out / "trace" / trace)
            seeds = []
            for processes in (1, 2):
                pin_processes(monkeypatch, processes)
                seeds.append(seed_pass(rows, world, scenario))
            assert [s.processes for s in seeds] == [1, 2]
            assert_same_seed(*seeds)

    def test_build_peak_is_bounded(self, built, tmp_path, monkeypatch):
        # Python allocations of one seed-pass benchmark street's build: windows
        # stay columns from the seed pass to the files (in one process, so
        # tracemalloc sees both basestations' halves)
        out, cases = built
        trace, cfg = cases["desk street 3"]
        pin_processes(monkeypatch)
        tracemalloc.start()
        try:
            build_dataset_stage(out / "trace" / trace, tmp_path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_build_makes_no_detection_objects(self, built, tmp_path, monkeypatch):
        # detections stay columns from the detector to the files (in one
        # process, so the patch sees both basestations' halves)
        out, cases = built
        trace, cfg = cases["desk street 3"]
        pin_processes(monkeypatch)
        made = []
        check = Detection.__post_init__
        monkeypatch.setattr(Detection, "__post_init__", lambda d: made.append(d) or check(d))
        build_dataset_stage(out / "trace" / trace, tmp_path, cfg)
        assert made == []
        assert sum(map(len, read_frames(tmp_path).detections())) == len(made) > 0   # counted
