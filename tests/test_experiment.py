import dataclasses
import io
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import beamsight.config
import beamsight.embedding
import beamsight.experiment
import beamsight.pipeline
import beamsight.predictor
import oracles
from beamsight.cli import main
from beamsight.config import (
    _SCENARIO_SECTIONS,
    DatasetConfig,
    ExperimentConfig,
    ScenarioConfig,
    TrainConfig,
    load_experiment_config,
)
from beamsight.errors import DataError
from beamsight.experiment import (
    StageFailure,
    build_dataset_stage,
    eval_stage,
    handoff_eval,
    handoff_stage,
    run_experiment,
    simulate_stage,
    train_stage,
)
from beamsight.embedding import BeamEmbeddingTable, encode_dataset
from beamsight.pipeline import (
    DATASET_FILES,
    TRACE_FILE,
    observe,
    read_frames,
    read_manifest,
    read_pair_table,
    read_pairs,
    read_split,
    read_trace_rows,
    read_windows,
    seed_pass,
    write_dataset,
)
from beamsight.predictor import (
    GruPredictor,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)

MINI = Path(__file__).resolve().parent.parent / "configs" / "mini.ini"


def mini_config(**overrides) -> ExperimentConfig:
    cfg = load_experiment_config(MINI)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def frame_parses(monkeypatch) -> list:
    """The paths of the frames.cols files the stages read from now on."""
    parsed, read = [], beamsight.experiment.read_frames
    monkeypatch.setattr(beamsight.experiment, "read_frames", lambda dataset_dir: parsed.append(
        Path(dataset_dir) / "frames.cols") or read(dataset_dir))
    return parsed


def edit_windows(path, edit) -> None:
    """``edit`` of the window groups (dicts of columns) of a window or pair file, in place."""
    groups = oracles.window_groups(path)
    edit(groups)
    oracles.save_window_groups(path, groups)


def empty_windows(path) -> None:
    """A window or pair file's columns cut to no rows."""
    oracles.save_window_groups(path, [{name: column[:0] for name, column in group.items()}
                                      for group in oracles.window_groups(path)])


def cut_future(groups) -> None:
    """The future statuses of window groups cut to two, the first one NLOS
    where the window's label is."""
    for group in groups:
        group["future"] = np.stack([group["future"].any(axis=1),
                                    np.zeros(len(group["future"]), bool)], axis=1).astype("|i1")


def first_window(groups, side=0, **change) -> None:
    """The first window of a window group changed by ``change``."""
    for name, value in change.items():
        groups[side][name][0] = value


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini") / "run"
    manifest = run_experiment(load_experiment_config(MINI), out)
    return out, manifest


class TestRunExperiment:
    def test_all_artifacts_present(self, mini_run):
        out, manifest = mini_run
        for name in ("trace/manifest.json", f"trace/{TRACE_FILE}",
                     *(f"dataset/{name}" for name in (*DATASET_FILES, "manifest.json")),
                     "bimodal.ckpt", "beam_only.ckpt",
                     "eval_bimodal.csv", "eval_bimodal_confusion.csv",
                     "eval_bimodal_per_camera.csv", "eval_bimodal_per_instance.csv",
                     "eval_beam_only.csv", "handoff.csv",
                     "train_bimodal_history.csv", "manifest.json"):
            assert (out / name).is_file(), name

    def test_manifest_records_hash_and_seeds(self, mini_run):
        out, manifest = mini_run
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["config_hash"] == manifest["config_hash"]
        assert on_disk["stages"]["simulate"]["seed"] == 2
        assert on_disk["stages"]["build-dataset"]["seed"] == 7
        assert on_disk["stages"]["train-bimodal"]["seed"] == 3
        assert on_disk["stages"]["train-beam-only"]["seed"] == 4

    def test_handoff_csv_structure(self, mini_run):
        out, _ = mini_run
        lines = (out / "handoff.csv").read_text().strip().splitlines()
        assert lines[0].startswith("model,handoff_acc_1to2,count_1to2")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "bimodal"
        assert lines[2].split(",")[0] == "beam-only"

    def test_rerun_is_byte_identical(self, mini_run, tmp_path, monkeypatch):
        out, _ = mini_run
        again = tmp_path / "again"
        parsed = frame_parses(monkeypatch)
        run_experiment(load_experiment_config(MINI), again)
        # once per bimodal stage (train, eval, handoff); beam-only stages never
        assert parsed == [again / "dataset" / "frames.cols"] * 3
        for name in ("eval_bimodal.csv", "eval_beam_only.csv", "handoff.csv",
                     "eval_bimodal_per_camera.csv", "eval_bimodal_per_instance.csv",
                     "train_bimodal_history.csv", "manifest.json"):
            assert (out / name).read_bytes() == (again / name).read_bytes(), name

    def test_files_identical_on_one_and_two_workers(self, tmp_path, monkeypatch):
        # chunks of 16 windows, so that two threads score every stage's windows
        real_logits, real_run, on_main = GruPredictor._logits, GruPredictor._run, set()

        def run(model, *args, **kwargs):
            on_main.add(threading.current_thread() is threading.main_thread())
            return real_run(model, *args, **kwargs)

        monkeypatch.setattr(GruPredictor, "_logits", lambda model, x, batch_size=512:
                            real_logits(model, x, 16))
        monkeypatch.setattr(GruPredictor, "_run", run)
        for workers in (1, 2):
            monkeypatch.setattr(beamsight.config, "cpu_workers", lambda: workers)
            run_experiment(load_experiment_config(MINI), tmp_path / str(workers))
            assert len(on_main) == workers   # {True}, then {True, False}
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*"))
        assert files == sorted(p.relative_to(tmp_path / "2") for p in (tmp_path / "2").rglob("*"))
        for name in files:
            if (tmp_path / "1" / name).is_file():
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / "2" / name).read_bytes(), name

    def test_quota_zero_fails_at_train_with_prior_outputs_intact(self, tmp_path):
        cfg = mini_config()
        cfg.dataset.quota = 0
        cfg.frames = 40
        out = tmp_path / "broken"
        with pytest.raises(StageFailure) as err:
            run_experiment(cfg, out)
        assert err.value.stage == "train-bimodal"
        assert "empty dataset" in str(err.value)
        # earlier stages' outputs survive
        assert (out / "trace" / TRACE_FILE).is_file()
        assert (out / "dataset" / "train.ndrec").is_file()


class TestStages:
    def test_simulate_then_build(self, tmp_path):
        cfg = load_experiment_config(MINI)
        simulate_stage(cfg.scenario, 60, tmp_path / "trace")
        manifest = build_dataset_stage(tmp_path / "trace", tmp_path / "ds",
                                       DatasetConfig(quota=5, seed=1))
        assert manifest["counts"]["windows"] > 0
        assert (tmp_path / "ds" / "train.ndrec").stat().st_size > 0

    def test_missing_trace_rejected(self, tmp_path):
        with pytest.raises(DataError):
            build_dataset_stage(tmp_path / "nope", tmp_path / "ds", DatasetConfig())

    def test_eval_missing_checkpoint(self, tmp_path):
        with pytest.raises((DataError, FileNotFoundError)):
            eval_stage(tmp_path / "none.ckpt", tmp_path, tmp_path / "out.csv")

    def test_train_stage_parses_frames_once(self, tmp_path, mini_run, monkeypatch):
        # a bimodal stage reads frames.cols once for train and val; a
        # beam-only stage does not open it
        out, _ = mini_run
        parsed = frame_parses(monkeypatch)
        train_stage(out / "dataset", "bimodal", replace(mini_config().train, epochs=1),
                    tmp_path / "m.ckpt")
        assert parsed == [out / "dataset" / "frames.cols"]
        train_stage(out / "dataset", "beam-only", replace(mini_config().train, epochs=1),
                    tmp_path / "b.ckpt")
        assert parsed == [out / "dataset" / "frames.cols"]

    def test_handoff_loads_one_checkpoint_once(self, tmp_path, mini_run, monkeypatch):
        out, _ = mini_run
        loaded = []
        load = beamsight.predictor.load_checkpoint
        monkeypatch.setattr(beamsight.predictor, "load_checkpoint",
                            lambda path: loaded.append(path) or load(path))
        ckpt, pairs = out / "bimodal.ckpt", out / "dataset" / "pairs.ndrec"
        shutil.copy(ckpt, tmp_path / "copy.ckpt")
        once = handoff_eval(ckpt, ckpt, pairs)
        assert loaded == [ckpt]
        twice = handoff_eval(ckpt, tmp_path / "copy.ckpt", pairs)
        assert loaded == [ckpt, ckpt, tmp_path / "copy.ckpt"]
        assert repr(once) == repr(twice)

    @pytest.mark.parametrize("ckpt", ["bimodal.ckpt", "beam_only.ckpt"])
    def test_best_val_top1_rescores_through_dense_predict(self, mini_run, ckpt):
        # training scores val through row indices; rescore through the
        # dense public path
        out, _ = mini_run
        model, meta = model_from_checkpoint(out / ckpt)
        table = BeamEmbeddingTable(meta["n_beams"], meta["embed_dim"], meta["table_seed"])
        x, y = encode_dataset(read_split(out / "dataset", "val").samples, table,
                              meta["mode"])
        dense = x.rows[x.index]
        assert abs(np.mean(model.predict(dense) == y) - meta["best_val_top1"]) <= 1e-12

    def test_stages_encode_through_encode_dataset(self, tmp_path, mini_run, monkeypatch):
        # perfbench counts the stages' encoding through embedding.encode_dataset
        # train_stage encodes train and val in one call, which checks each
        # window once; the stage checks a file on its own only once that fails
        out, _ = mini_run
        modes, sizes, checked = [], [], []
        encode, check = beamsight.experiment.encode_dataset, beamsight.embedding.check_beams
        monkeypatch.setattr(beamsight.experiment, "encode_dataset",
                            lambda windows, table, mode: modes.append(mode)
                            or sizes.append(len(windows)) or encode(windows, table, mode))
        for module in (beamsight.experiment, beamsight.embedding):
            monkeypatch.setattr(module, "check_beams", lambda windows, n_beams:
                                checked.append(len(windows)) or check(windows, n_beams))
        train_stage(out / "dataset", "bimodal", replace(mini_config().train, epochs=1),
                    tmp_path / "m.ckpt")
        splits = [read_split(out / "dataset", name).samples for name in ("train", "val")]
        assert sizes == [sum(map(len, splits))]
        assert checked == sizes
        eval_stage(out / "bimodal.ckpt", out / "dataset", tmp_path / "eval.csv")
        assert len(modes) == 2
        handoff_eval(out / "bimodal.ckpt", out / "beam_only.ckpt",
                     out / "dataset" / "pairs.ndrec")
        assert modes == ["bimodal"] * 3 + ["beam-only"]


class TestBuildDiagnostics:
    def test_manifest_counts_quota_shortfalls(self, tmp_path, mini_run, caplog):
        # the mini street's (camera, label) groups hold 5 to 873 windows, so
        # some fill a quota of 40 and some fall short of it
        out, _ = mini_run
        quota = 40
        with caplog.at_level(logging.INFO):
            manifest = build_dataset_stage(out / "trace", tmp_path / "ds",
                                           DatasetConfig(quota=quota, seed=7))
        counts = manifest["counts"]
        drawn = Counter(counts["train"]) + Counter(counts["val"])
        short = {key: quota - n for key, n in drawn.items() if n < quota}
        assert counts["shortfalls"] == short and 0 < len(short) < len(drawn)
        assert json.loads((tmp_path / "ds" / "manifest.json").read_text())["counts"] == counts
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == len(short)
        # the info line gives each dataset file's bytes
        info = [r.getMessage() for r in caplog.records if r.name == "beamsight.experiment"]
        assert info[-1].endswith(", ".join(f"{name} {(tmp_path / 'ds' / name).stat().st_size} B"
                                           for name in DATASET_FILES))


    @pytest.mark.parametrize("processes", [1, 2])
    def test_info_line_reports_seed_pass_processes(self, tmp_path, mini_run, caplog,
                                                    monkeypatch, processes):
        # a log figure only: the files are the run's at any process count
        out, _ = mini_run
        monkeypatch.setattr(beamsight.config, "cpu_workers", lambda: processes)
        with caplog.at_level(logging.INFO, logger="beamsight.experiment"):
            build_dataset_stage(out / "trace", tmp_path, load_experiment_config(MINI).dataset)
        [info] = [r.getMessage() for r in caplog.records if r.name == "beamsight.experiment"]
        assert re.match(rf"dataset: trace \d+\.\d\d s, seed pass \d+\.\d\d s "
                        rf"\(processes: {processes}\), write \d+\.\d\d s; ", info)
        assert info.endswith(", ".join(f"{name} {(tmp_path / name).stat().st_size} B"
                                       for name in DATASET_FILES))
        for name in (*DATASET_FILES, "manifest.json"):
            assert (tmp_path / name).read_bytes() == (out / "dataset" / name).read_bytes(), name

    @pytest.mark.parametrize("workers", [1, 2])
    def test_info_lines_report_scoring_threads(self, tmp_path, mini_run, caplog, monkeypatch,
                                               workers):
        # 750 validation windows make two chunks of 512; 23 pairs one
        out, _ = mini_run
        manifest = build_dataset_stage(out / "trace", tmp_path, DatasetConfig(quota=300, seed=7))
        val, pairs = sum(manifest["counts"]["val"].values()), manifest["counts"]["pairs"]
        assert 512 < val <= 1024 and pairs <= 512
        monkeypatch.setattr(beamsight.config, "cpu_workers", lambda: workers)
        with caplog.at_level(logging.INFO, logger="beamsight.experiment"):
            eval_stage(out / "bimodal.ckpt", tmp_path, tmp_path / "eval.csv")
            handoff_eval(out / "bimodal.ckpt", out / "beam_only.ckpt", tmp_path / "pairs.ndrec")
        info = [r.getMessage() for r in caplog.records if r.name == "beamsight.experiment"]
        assert re.fullmatch(rf"eval: {val} windows scored in \d+\.\d\d s \(threads: {workers}\)",
                            info[-2])
        assert re.fullmatch(rf"handoff: {2 * pairs} windows scored in \d+\.\d\d s \(threads: 1\)",
                            info[-1])

class TestBoxText:
    """frames.cols stores each box corner as its nearest float32, moved one
    float32 step outward where a box's corners meet."""

    def test_corners_are_the_nearest_float32(self, mini_run):
        out, _ = mini_run
        scenario, world, rows = read_trace_rows(out / "trace")
        frames = seed_pass(rows, world, scenario).frames
        boxes = dict(zip(zip(frames.camera.tolist(), frames.frame.tolist()),
                         np.split(frames.boxes, np.cumsum(frames.count)[:-1])))
        columns = oracles.frame_columns(out / "dataset" / "frames.cols")
        written = columns["boxes"]
        nearest = np.concatenate([boxes[key] for key in zip(columns["camera"].tolist(),
                                                             columns["frame"].tolist())])
        nearest = nearest.astype(np.float32)
        assert written.dtype == np.float32 and written.shape == nearest.shape
        assert len(written) > 500
        meet = np.tile(nearest[:, :2] == nearest[:, 2:], 2)   # widened by the guard
        assert np.array_equal(written[~meet], nearest[~meet])
        assert np.all(np.abs(written[meet] - nearest[meet]) <= np.spacing(nearest[meet]))

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("low, high", [(1 - 1e-12, 1.0), (0.0, 1e-50), (0.5, 0.5 + 1e-12)],
                             ids=["at the image edge", "at 0", "thinner than a float32 step"])
    def test_corners_that_meet_in_float32_move_apart(self, tmp_path, mini_run, low, high, axis):
        # the two corners round to one float32; written as they round, the
        # reader would reject the box
        out, _ = mini_run
        ds, cut = out / "dataset", tmp_path / "ds"
        frames = read_frames(ds)
        train, val = (observe(ds / f"{split}.ndrec", windows, frames) for split, windows in
                      zip(("train", "val"), read_windows(ds, "train", "val")))
        *sides, category = read_pair_table(ds / "pairs.ndrec")
        pairs = *(observe(ds / "pairs.ndrec", side, frames) for side in sides), category
        box = np.repeat(np.isin(np.arange(len(frames)), val.frame_rows), frames.count).argmax()
        corners = [0, 2] if axis == "x" else [1, 3]
        frames.boxes[box, corners] = low, high
        write_dataset(cut, train, val, pairs, read_manifest(ds))
        again = read_frames(cut)
        assert len(again.boxes) == len(frames.boxes)
        lo, hi = again.boxes[box, corners].tolist()
        assert 0 <= lo < hi <= 1
        for read, given in ((lo, low), (hi, high)):
            assert abs(read - given) <= np.spacing(np.float32(given))
        column = oracles.frame_columns(cut / "frames.cols")["boxes"][box]
        assert column.dtype == np.float32
        assert column.tolist() == again.boxes[box].tolist() == \
            oracles.float32_corners(frames.boxes[box].tolist())
        assert main(["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(cut),
                     "--out", str(tmp_path / "eval.csv")]) == 0


class TestReadContract:
    """A stage reads only the files its model reads: a beam-only stage never
    opens frames.cols, so a defect there leaves its outputs as they were."""

    @staticmethod
    def stages(out, ds, dest, mode) -> list[list[str]]:
        """CLI train, eval and handoff-eval of ``mode`` on ``ds``, writing under
        ``dest``; handoff-eval takes the beam-only checkpoint as its second."""
        ckpt, beam_only = str(out / f"{mode.replace('-', '_')}.ckpt"), str(out / "beam_only.ckpt")
        dest.mkdir()
        return [["train", "--dataset", str(ds), "--mode", mode, "--config", str(MINI),
                 "--out", str(dest / "m.ckpt"), "--history", str(dest / "h.csv")],
                ["eval", "--ckpt", ckpt, "--dataset", str(ds), "--out", str(dest / "eval.csv")],
                ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", beam_only,
                 "--pairs", str(ds / "pairs.ndrec"), "--out", str(dest / "handoff.csv")]]

    @pytest.mark.parametrize("defect", ["deleted", "truncated"])
    def test_frames_defect_harms_only_bimodal_stages(self, tmp_path, capsys, mini_run, defect):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        frames = ds / "frames.cols"
        if defect == "deleted":
            frames.unlink()
        else:
            frames.write_bytes(frames.read_bytes()[:-10])
        for argv in (self.stages(out, out / "dataset", tmp_path / "intact", "beam-only")
                     + self.stages(out, ds, tmp_path / "broken", "beam-only")):
            assert main(argv) == 0
        written = sorted(p.name for p in (tmp_path / "intact").iterdir())
        assert len(written) == 7
        for name in written:
            assert (tmp_path / "intact" / name).read_bytes() == \
                (tmp_path / "broken" / name).read_bytes(), name
        capsys.readouterr()
        for argv in self.stages(out, ds, tmp_path / "bimodal", "bimodal"):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert str(frames) in err and "Traceback" not in err
            assert defect == "deleted" or f"{frames}: confidence column: " in err

    def test_mixed_handoff_parses_frames_once(self, mini_run, monkeypatch):
        out, _ = mini_run
        parsed = frame_parses(monkeypatch)
        pairs = out / "dataset" / "pairs.ndrec"
        handoff_eval(out / "bimodal.ckpt", out / "beam_only.ckpt", pairs)
        assert parsed == [out / "dataset" / "frames.cols"]
        handoff_eval(out / "beam_only.ckpt", out / "beam_only.ckpt", pairs)
        assert len(parsed) == 1


class TestBenchmarkChecks:
    """The benchmark's output checks read a run through the package's public
    readers and encode through ``encode_dataset`` of LabeledSamples; a reader
    refactor that breaks them, or that the stages' tables disagree with, fails here."""

    def test_dataset_and_replay_checks_pass_on_a_mini_run(self, mini_run, monkeypatch,
                                                          tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import checks

        out, _ = mini_run
        assert checks.check_dataset(out / "dataset", out / "trace") == []
        # handoff.csv's first row is the bimodal one; the beam-only table
        # comes from handoff_stage, as the benchmark writes it
        handoff_stage(out / "beam_only.ckpt", out / "beam_only.ckpt",
                      out / "dataset" / "pairs.ndrec", tmp_path / "handoff.csv",
                      label="beam-only")
        assert checks.check_replay(out / "dataset", {
            "bimodal": (out / "bimodal.ckpt", out / "eval_bimodal.csv", out / "handoff.csv"),
            "beam-only": (out / "beam_only.ckpt", out / "eval_beam_only.csv",
                          tmp_path / "handoff.csv"),
        }) == []


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["simulate"]) == 1  # missing required flags
        assert main(["no-such-command"]) == 1

    def test_missing_config_is_data_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "gone.ini"),
                     "--frames", "5", "--out", str(tmp_path / "t")]) == 2

    def test_stage_by_stage_matches_run_experiment(self, tmp_path, mini_run):
        out_all, _ = mini_run
        trace = tmp_path / "trace"
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", str(MINI), "--frames", "140",
                     "--out", str(trace)]) == 0
        assert main(["build-dataset", "--trace", str(trace), "--out", str(ds),
                     "--quota", "12", "--seed", "7"]) == 0
        ckpt = tmp_path / "bimodal.ckpt"
        assert main(["train", "--dataset", str(ds), "--mode", "bimodal",
                     "--config", str(MINI), "--out", str(ckpt)]) == 0
        report_csv = tmp_path / "report.csv"
        assert main(["eval", "--ckpt", str(ckpt), "--dataset", str(ds),
                     "--out", str(report_csv)]) == 0
        handoff_csv = tmp_path / "handoff.csv"
        assert main(["handoff-eval", "--ckpt1", str(ckpt), "--ckpt2", str(ckpt),
                     "--pairs", str(ds / "pairs.ndrec"), "--out", str(handoff_csv),
                     "--label", "bimodal"]) == 0
        # byte-identical to the orchestrated pipeline's intermediate files
        assert (ds / "train.ndrec").read_bytes() == \
            (out_all / "dataset" / "train.ndrec").read_bytes()
        assert ckpt.read_bytes() == (out_all / "bimodal.ckpt").read_bytes()
        assert report_csv.read_bytes() == (out_all / "eval_bimodal.csv").read_bytes()

    def test_run_experiment_command(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["run-experiment", "--config", str(MINI),
                     "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()

    def test_threads_flag_validated(self):
        assert main(["--threads", "0", "simulate", "--config", "x",
                     "--frames", "1", "--out", "y"]) == 1

    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "cut.ckpt"
        save_checkpoint(ckpt, GruPredictor(input_dim=6, hidden=4).params, {"layers": 2})
        ckpt.write_bytes(ckpt.read_bytes()[:-20])
        assert main(["eval", "--ckpt", str(ckpt), "--dataset", str(tmp_path),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [
        {"hidden": 4, "layers": 1},                        # input_dim missing
        {"input_dim": 6, "hidden": 0, "layers": 1},        # not positive
        {"input_dim": 6, "hidden": 4, "layers": "1"},      # not an int
        {"input_dim": 6, "hidden": 5, "layers": 1},        # disagrees with l0.U
        {"input_dim": 7, "hidden": 4, "layers": 1},        # disagrees with l0.W
        {"input_dim": 6, "hidden": 4, "layers": 2},        # no l1 tensors
        {"input_dim": 6, "hidden": 4, "layers": 10**12},   # never built
        {"input_dim": 6, "hidden": 4, "layers": 1},        # no embedding keys
    ])
    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_checkpoint_header_sizes_are_data_error(self, tmp_path, capsys, mini_run,
                                                    meta, command):
        out, _ = mini_run
        ckpt = tmp_path / "sizes.ckpt"
        save_checkpoint(ckpt, GruPredictor(input_dim=6, hidden=4, layers=1).params,
                        dict(meta, mode="bimodal"))
        if command == "eval":
            argv = ["eval", "--ckpt", str(ckpt), "--dataset", str(out / "dataset")]
        else:
            argv = ["handoff-eval", "--ckpt1", str(ckpt), "--ckpt2", str(ckpt),
                    "--pairs", str(out / "dataset" / "pairs.ndrec")]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["<c16", "|O", "x", "<i4", "mixed", "no dtype",
                                      "version 2"])
    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_checkpoint_tensor_dtype_is_data_error(self, tmp_path, capsys, mini_run,
                                                   case, command):
        # version 3 takes '<f4' or '<f8', one dtype for every tensor
        out, _ = mini_run
        blob = (out / "bimodal.ckpt").read_bytes()
        version, header_len = struct.unpack_from("<IQ", blob, 4)
        assert version == 3
        header = json.loads(blob[16:16 + header_len])
        tensors = blob[16 + header_len:]
        entries = header["params"]
        assert {entry["dtype"] for entry in entries} == {"<f4"}
        if case == "mixed":
            entries[0]["dtype"] = "<f8"
        elif case == "no dtype":
            del entries[-1]["dtype"]
        elif case == "version 2":
            # the float64 layout before dtypes entered the header
            for entry in entries:
                del entry["dtype"]
            version = 2
            tensors = np.frombuffer(tensors, "<f4").astype("<f8").tobytes()
        else:
            for entry in entries:
                entry["dtype"] = case
        text = json.dumps(header, sort_keys=True).encode()
        ckpt = tmp_path / "dtype.ckpt"
        ckpt.write_bytes(blob[:4] + struct.pack("<IQ", version, len(text)) + text + tensors)
        if command == "eval":
            argv = ["eval", "--ckpt", str(ckpt), "--dataset", str(out / "dataset")]
        else:
            argv = ["handoff-eval", "--ckpt1", str(out / "bimodal.ckpt"), "--ckpt2",
                    str(ckpt), "--pairs", str(out / "dataset" / "pairs.ndrec")]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err

    def test_truncated_split_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        val = ds / "val.ndrec"
        val.write_bytes(val.read_bytes()[:-40])
        assert main(["train", "--dataset", str(ds), "--mode", "beam-only",
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"{val}: future column: " in err and "rows do not fit in the file" in err

    def test_empty_val_split_under_train_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        empty_windows(ds / "val.ndrec")
        assert main(["train", "--dataset", str(ds), "--mode", "beam-only",
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        assert f"{ds / 'val.ndrec'}: empty dataset" in capsys.readouterr().err

    def test_pair_missing_side_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        shutil.copytree(out / "dataset", tmp_path, dirs_exist_ok=True)
        pairs = tmp_path / "pairs.ndrec"
        oracles.save_window_groups(pairs, oracles.window_groups(pairs)[:1])
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                     "--pairs", str(pairs), "--out", str(tmp_path / "h.csv")]) == 2
        assert f"{pairs}: bs2 camera column: not a .npy header" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, beam", [
        ("eval", "val.ndrec", 0), ("handoff-eval", "pairs.ndrec", 0),
        ("eval", "val.ndrec", 65), ("handoff-eval", "pairs.ndrec", 65),   # past the codebook
        ("eval", "val.ndrec", 2**15 - 1), ("eval", "val.ndrec", -2**15),
    ])
    def test_beam_out_of_range_is_data_error(self, tmp_path, capsys, mini_run,
                                             command, name, beam):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        edit_windows(path, lambda groups: groups[-1]["beams"].__setitem__((0, 0), beam))
        ckpt = str(out / "bimodal.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "beam index" in err

    def test_pair_sides_of_equal_status_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "pairs.ndrec"
        edit_windows(path, lambda g: g[1]["future"].__setitem__(0, g[0]["future"][0]))
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "first at row 0" in err and "category" in err

    def test_pair_sides_on_the_wrong_basestations_is_data_error(self, tmp_path, capsys,
                                                                mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "pairs.ndrec"

        def swap(groups):   # swapped sides still have opposite statuses
            for name, bs1 in groups[0].items():
                bs1[0], groups[1][name][0] = groups[1][name][0].copy(), bs1[0].copy()

        edit_windows(path, swap)
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "of basestations 1, 2, first at row 0" in err

    @pytest.mark.parametrize("command, name, change", [
        ("eval", "val.ndrec", {"camera": 99}),
        ("eval", "val.ndrec", {"future": [2, 0, 0, 0, 0]}),
        ("handoff-eval", "pairs.ndrec", {"camera": 0}),   # camera_to_bs(0) is 1
    ])
    def test_window_out_of_range_under_beam_only_is_data_error(self, tmp_path, capsys, mini_run,
                                                               command, name, change):
        # a beam-only stage never looks the window's frames up
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        edit_windows(path, lambda groups: first_window(groups, **change))
        ckpt = str(out / "beam_only.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "first at row 0" in err

    def test_bad_checkpoint_with_empty_pairs_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        shutil.copytree(out / "dataset", tmp_path, dirs_exist_ok=True)
        pairs = tmp_path / "pairs.ndrec"
        empty_windows(pairs)
        ckpt = tmp_path / "garbage.ckpt"
        ckpt.write_bytes(b"garbage")
        assert main(["handoff-eval", "--ckpt1", str(ckpt), "--ckpt2", str(ckpt),
                     "--pairs", str(pairs), "--out", str(tmp_path / "h.csv")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    def test_eval_bins_instances_by_dataset_future(self, tmp_path, mini_run):
        # a checkpoint header without ``future``, a dataset with future = 3
        out, _ = mini_run
        ds = tmp_path / "ds"
        build_dataset_stage(out / "trace", ds, replace(mini_config().dataset, future=3))
        params, meta = load_checkpoint(out / "bimodal.ckpt")
        del meta["future"]
        ckpt = tmp_path / "no_future.ckpt"
        save_checkpoint(ckpt, params, meta)
        rep, _ = eval_stage(ckpt, ds, tmp_path / "eval.csv")
        assert sorted(rep.per_instance) == [1, 2, 3]

    @pytest.mark.parametrize("command, name", [("eval", "val.ndrec"),
                                               ("handoff-eval", "pairs.ndrec")])
    def test_window_length_other_than_checkpoint_is_data_error(
            self, tmp_path, capsys, mini_run, command, name):
        # windows of 4 frames against a checkpoint trained on 8
        out, _ = mini_run
        ds = tmp_path / "ds"
        build_dataset_stage(out / "trace", ds, replace(mini_config().dataset, observed=4))
        assert read_pairs(ds / "pairs.ndrec")
        ckpt = str(out / "bimodal.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                    "--pairs", str(ds / name)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(ds / name) in err and "observe 4 frames" in err

    @pytest.mark.parametrize("observed", [None, 0, -8, "8", 8.0, True])
    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_checkpoint_observed_is_data_error(self, tmp_path, capsys, mini_run,
                                               observed, command):
        out, _ = mini_run
        params, meta = load_checkpoint(out / "bimodal.ckpt")
        if observed is None:
            del meta["observed"]
        else:
            meta["observed"] = observed
        ckpt = tmp_path / "observed.ckpt"
        save_checkpoint(ckpt, params, meta)
        if command == "eval":
            argv = ["eval", "--ckpt", str(ckpt), "--dataset", str(out / "dataset")]
        else:
            argv = ["handoff-eval", "--ckpt1", str(ckpt), "--ckpt2", str(ckpt),
                    "--pairs", str(out / "dataset" / "pairs.ndrec")]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("train", "train.ndrec"),
                                               ("eval", "val.ndrec")])
    def test_empty_split_names_file(self, tmp_path, capsys, mini_run, command, name):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        empty_windows(ds / name)
        if command == "train":
            argv = ["train", "--dataset", str(ds), "--mode", "beam-only",
                    "--out", str(tmp_path / "m.ckpt")]
        else:
            argv = ["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(ds),
                    "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert f"{ds / name}: empty dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("box", [
        [0.3, 0.2, 0.3, 0.4, 0.9],            # x1 = x2
        [0.1, 0.2, 1.5, 0.4, 0.9],            # past the image
        [float("nan"), 0.2, 0.3, 0.4, 0.9],
        [0.1, 0.2, float("inf"), 0.4, 0.9],
        [0.1, 0.2, 0.3, 0.4, -0.1],           # confidence below 0
    ])
    def test_bad_box_under_bimodal_eval_is_data_error(self, tmp_path, capsys, mini_run, box):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "frames.cols"
        columns = oracles.frame_columns(path)
        columns["boxes"][7], columns["confidence"][7] = box[:4], box[4]
        oracles.save_frame_columns(path, columns)
        assert main(["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(ds),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        check = "a confidence outside" if box[4] < 0 else "a box not within"
        assert f"{path}: {check}" in err and "Traceback" not in err

    @staticmethod
    def detection_lists(ds) -> dict:
        """Each (camera, frame) of a dataset's frames.cols -> its detections as
        [class, x1, y1, x2, y2, confidence] lists, as the text layouts held them."""
        return {key: [[d.object_class.value, *d.bbox, d.confidence] for d in detections]
                for key, detections in oracles._read_frames(ds).items()}

    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_old_layout_dataset_is_data_error(self, tmp_path, capsys, mini_run, command):
        # the older layout: no frames file, each window carries its detections
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        frames = self.detection_lists(ds)
        (ds / "frames.cols").unlink()

        def old(window):
            first = window["t_end"] - len(window["beams"]) + 1
            return dict(window, detections=[frames[window["camera"], t]
                                            for t in range(first, window["t_end"] + 1)])

        for name in ("val.ndrec", "pairs.ndrec"):
            records = oracles.read_records(ds / name)
            records = [old(r) if name == "val.ndrec" else
                       dict(r, bs1=old(r["bs1"]), bs2=old(r["bs2"])) for r in records]
            (ds / name).write_text("".join(json.dumps(r) + "\n" for r in records))
        ckpt = str(out / "bimodal.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                    "--pairs", str(ds / "pairs.ndrec")]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert str(ds / "frames.cols") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_text_frames_dataset_is_data_error(self, tmp_path, capsys, mini_run, command):
        # the layout before frames.cols: the frames as JSON lines in frames.ndrec
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        (ds / "frames.ndrec").write_text("".join(
            json.dumps({"camera": c, "frame": f, "detections": d}) + "\n"
            for (c, f), d in self.detection_lists(ds).items()))
        (ds / "frames.cols").unlink()
        ckpt = str(out / "bimodal.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                    "--pairs", str(ds / "pairs.ndrec")]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert f"missing file: {ds / 'frames.cols'}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["train.ndrec", "val.ndrec", "pairs.ndrec"])
    def test_text_window_file_is_data_error(self, tmp_path, capsys, mini_run, name):
        # the layout before the window columns: one JSON window (or pair) a line
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        path.write_text("".join(json.dumps(r) + "\n" for r in oracles.read_records(path)))
        ckpt = str(out / "beam_only.ckpt")
        argv = {"train.ndrec": ["train", "--dataset", str(ds), "--mode", "beam-only"],
                "val.ndrec": ["eval", "--ckpt", ckpt, "--dataset", str(ds)],
                "pairs.ndrec": ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                                "--pairs", str(path)]}[name]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "camera column: not a .npy header" in err

    @pytest.mark.parametrize("edit", [
        lambda m: '{"observed": 8}',                       # keys missing
        lambda m: m[:-20],                                 # not JSON
        lambda m: json.dumps(dict(json.loads(m), observed=0)),
        lambda m: json.dumps(dict(json.loads(m), future="5")),
        lambda m: json.dumps(dict(json.loads(m), codebook=dict(json.loads(m)["codebook"],
                                                               beams=2**15))),   # past <i2
    ])
    def test_bad_dataset_manifest_is_data_error(self, tmp_path, capsys, mini_run, edit):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        manifest = ds / "manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        assert main(["train", "--dataset", str(ds), "--mode", "beam-only",
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        assert str(manifest) in capsys.readouterr().err

    def test_unknown_trace_scenario_key_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        manifest_path = trace / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["scenario"]["antenna_gain"] = 1.0
        manifest_path.write_text(json.dumps(manifest))
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert str(manifest_path) in err and "antenna_gain" in err

    def test_negative_trace_seed_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        manifest_path = trace / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["scenario"]["seed"] = -1
        manifest_path.write_text(json.dumps(manifest))
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert str(manifest_path) in err and "seed" in err

    def test_truncated_trace_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        path = trace / TRACE_FILE
        path.write_bytes(path.read_bytes()[:-40])
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: centers column: " in err and "rows do not fit in the file" in err

    @pytest.mark.parametrize("layout", ["format 1", "no format", "format 2 without columns"])
    def test_older_trace_layout_is_data_error(self, tmp_path, capsys, layout):
        # format 1: a text frames.ndjson, one JSON frame a line, beside the manifest
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        manifest_path = trace / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if layout == "format 1":
            manifest["format"] = 1
            (trace / "frames.ndjson").write_text('{"frame":0,"objects":[]}\n' * 3)
        elif layout == "no format":
            del manifest["format"]
        manifest_path.write_text(json.dumps(manifest))
        (trace / TRACE_FILE).unlink()
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if layout == "format 1":
            assert f"{manifest_path}: trace format 1, not 2" in err and str(trace / TRACE_FILE) in err
        elif layout == "no format":
            assert f"{manifest_path}: not a trace manifest: KeyError('format')" in err
        else:
            assert f"missing file: {trace / TRACE_FILE}" in err

    TRACE_DEFECTS = {   # a defect of trace.cols -> what the error names
        "a frame dropped": "2 frames", "a frame added": "4 frames",
        "a run skipped": "a frame's run is neither the one before's nor the next",
        "runs from 1": "a frame's run is neither", "a run count more": "object counts for",
        "object count one less": "the object counts sum to",
        "object count negative": "an object count below 0",
        "a centre dropped": "the frames' runs hold", "nan centre": "a centre that is not finite",
        "infinite centre": "a centre that is not finite",
        "nan velocity": "a velocity that is not finite",
        "infinite dim": "dimensions must be positive and finite",
        "zero dim": "dimensions must be positive", "negative dim": "dimensions must be positive",
        "repeated object id": "an object id repeats within its run, first at row 1",
        "unknown class": "an unknown class code, first at row 0",
        "ids as <f8": "ids column: <f8 of shape", "centres as (n, 2)": "centers column: <f8",
        "lanes short": "the object columns differ in length", "trailing bytes": "1 bytes follow",
    }

    @staticmethod
    def break_trace(path: Path, defect: str) -> None:
        """``defect``, a key of TRACE_DEFECTS, made in a three-frame trace.cols."""
        if defect == "trailing bytes":
            path.write_bytes(path.read_bytes() + b"\0")
            return
        run, objects, ids, classes, dims, velocities, lanes, centers = \
            oracles.load_columns(path)
        n = len(ids)
        if defect == "a frame dropped":
            run, centers = run[:-1], centers[:-n]
        elif defect == "a frame added":
            run, centers = np.append(run, 0), np.concatenate([centers, centers[:n]])
        elif defect == "a run skipped":
            run[-1] = 2
        elif defect == "runs from 1":
            run += 1
        elif defect == "a run count more":
            objects = np.append(objects, 0)
        elif defect.startswith("object count"):
            objects[0] = n - 1 if defect.endswith("less") else -1
        elif defect == "a centre dropped":
            centers = centers[:-1]
        elif defect.endswith(" centre"):
            centers[n + 1, 2] = math.nan if defect == "nan centre" else math.inf
        elif defect == "nan velocity":
            velocities[1, 0] = math.nan
        elif defect.endswith(" dim"):
            dims[1, 1] = {"infinite": math.inf, "zero": 0.0, "negative": -1.5}[defect.split()[0]]
        elif defect == "repeated object id":
            ids[1] = ids[0]
        elif defect == "unknown class":
            classes[0] = 3
        elif defect == "ids as <f8":
            ids = ids.astype("<f8")
        elif defect == "centres as (n, 2)":
            centers = centers[:, :2].copy()
        else:
            lanes = lanes[:-1]
        oracles.save_columns(path, [run, objects, ids, classes, dims, velocities, lanes, centers])

    @pytest.mark.parametrize("defect", TRACE_DEFECTS)
    def test_corrupt_trace_is_data_error(self, tmp_path, capsys, defect):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        path = trace / TRACE_FILE
        self.break_trace(path, defect)
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and self.TRACE_DEFECTS[defect] in err, err
        if defect.startswith("a frame "):
            assert f"{trace / 'manifest.json'} says 3" in err

    def test_too_short_trace_names_its_file(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "5",
                     "--out", str(trace)]) == 0
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{trace / TRACE_FILE}: trace too short" in err

    @pytest.mark.parametrize("name, edit", [
        ("val.ndrec", "repeat first row"),
        ("val.ndrec", "take a train key"),
        ("pairs.ndrec", "repeat first row"),
    ])
    def test_repeated_key_is_data_error(self, tmp_path, capsys, mini_run, name, edit):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        [train] = oracles.window_groups(ds / "train.ndrec")
        groups = oracles.window_groups(path)
        if edit == "repeat first row":
            groups = [{k: np.insert(c, 1, c[0], axis=0) for k, c in g.items()} for g in groups]
            where = "row 1 repeats key"
        else:
            groups = [{k: np.concatenate([c, train[k][:1]]) for k, c in groups[0].items()}]
            where = f"row {len(groups[0]['camera']) - 1} repeats key"
        oracles.save_window_groups(path, groups)
        ckpt = str(out / "bimodal.ckpt")
        if name == "pairs.ndrec":
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        elif edit == "take a train key":
            argv = ["train", "--dataset", str(ds), "--mode", "beam-only"]
        else:
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {where}" in err and err.rstrip().endswith(": row 0")

    @pytest.mark.parametrize("field", ["user", "t_end"])
    def test_pair_off_its_sides_is_data_error(self, tmp_path, capsys, mini_run, field):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "pairs.ndrec"
        edit_windows(path, lambda groups: groups[1][field].__setitem__(0, groups[1][field][0] + 1))
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: user, t_end differ between its sides, first at row 0" in err

    @pytest.mark.parametrize("section, option, value", [
        ("detector", "p_miss", "1.5"),
        ("detector", "p_false_positive", "-0.1"),
        ("detector", "min_visible_fraction", "1.2"),
        ("detector", "jitter_sigma", "-1"),
        ("phy", "beams", "0"),
        ("phy", "beams", "32768"),   # past the <i2 beam column
        ("phy", "elements", "0"),
        ("phy", "subcarriers", "0"),
        ("phy", "cyclic_prefix", "0"),
        ("phy", "sample_time", "0"),
        ("phy", "carrier_hz", "-28e9"),
        ("phy", "spacing_wavelengths", "0"),
        ("cameras", "hfov_deg", "0"),
        ("cameras", "vfov_deg", "180"),
        ("cameras", "hfov_deg", "1e30"),
        ("cameras", "image_width", "0"),
        ("cameras", "image_height", "-720"),
        ("vehicles", "cars", "-3"),
        ("vehicles", "buses", "-1"),
        ("vehicles", "trucks", "-1"),
        ("vehicles", "min_speed", "-1"),
        ("vehicles", "max_speed", "1.5"),   # below the default min_speed
        ("simulation", "seed", "-1"),
    ])
    def test_bad_scenario_range_is_data_error(self, tmp_path, capsys,
                                              section, option, value):
        # in an INI, and in the trace manifest that echoes the scenario
        ini = tmp_path / "scenario.ini"
        ini.write_text(f"[{section}]\n{option} = {value}\n")
        assert main(["simulate", "--config", str(ini), "--frames", "2",
                     "--out", str(tmp_path / "trace")]) == 2
        err = capsys.readouterr().err
        assert str(ini) in err and option in err and "Traceback" not in err
        assert not (tmp_path / "trace").exists()
        trace = tmp_path / "good"
        assert main(["simulate", "--config", str(MINI), "--frames", "2", "--out", str(trace)]) == 0
        manifest_path = trace / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["scenario"][option] = json.loads(value.replace("e30", "e+30"))
        manifest_path.write_text(json.dumps(manifest))
        assert main(["build-dataset", "--trace", str(trace), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest_path}: " in err and option in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("cls, option", [
        (cls, f.name) for cls in (ScenarioConfig, DatasetConfig, TrainConfig)
        for f in dataclasses.fields(cls) if type(f.default) is float])
    def test_non_finite_config_float_is_data_error(self, tmp_path, capsys, cls, option, value):
        # NaN fails every range comparison, so each float field is checked as such; a
        # scenario float is checked both in an INI and in the trace manifest that echoes it
        ini = tmp_path / "bad.ini"
        if cls is ScenarioConfig:
            section = next(s for s, options in _SCENARIO_SECTIONS.items() if option in options)
            argv = ["simulate", "--frames", "2"]
        elif cls is DatasetConfig:
            section, argv = "dataset", ["build-dataset", "--trace", str(tmp_path / "t")]
        else:
            section, argv = "train", ["train", "--dataset", str(tmp_path), "--mode", "bimodal"]
        ini.write_text(f"[{section}]\n{option} = {value}\n")
        assert main(argv + ["--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{ini}: {option} = {value} is not a finite number" in err
        assert not (tmp_path / "out").exists()
        if cls is ScenarioConfig:
            trace = tmp_path / "trace"
            assert main(["simulate", "--config", str(MINI), "--frames", "2",
                         "--out", str(trace)]) == 0
            manifest_path = trace / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["scenario"][option] = float(value)
            manifest_path.write_text(json.dumps(manifest))
            assert main(["build-dataset", "--trace", str(trace),
                         "--out", str(tmp_path / "ds")]) == 2
            err = capsys.readouterr().err
            assert f"{manifest_path}: {option} = {value} is not a finite number" in err

    @pytest.mark.parametrize("defect", ["nan tensor", "inf tensor", "n_beams 10**12",
                                        "n_beams one more", "n_beams true"])
    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_checkpoint_values_are_data_error(self, tmp_path, capsys, mini_run, defect,
                                              command):
        # a tensor must be finite, and n_beams the dataset's codebook size before
        # the beam table (n_beams rows) is built
        out, _ = mini_run
        params, meta = load_checkpoint(out / "bimodal.ckpt")
        if defect.endswith("tensor"):
            params["l0.U"][3, 1] = float(defect.split()[0])
        else:
            meta["n_beams"] = {"n_beams 10**12": 10**12, "n_beams true": True,
                               "n_beams one more": meta["n_beams"] + 1}[defect]
        ckpt = tmp_path / "values.ckpt"
        save_checkpoint(ckpt, params, meta)
        if command == "eval":
            argv = ["eval", "--ckpt", str(ckpt), "--dataset", str(out / "dataset")]
        else:
            argv = ["handoff-eval", "--ckpt1", str(out / "bimodal.ckpt"), "--ckpt2", str(ckpt),
                    "--pairs", str(out / "dataset" / "pairs.ndrec")]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and ("not finite" if "tensor" in defect else "n_beams") in err

    @pytest.mark.parametrize("command", ["run-experiment", "build-dataset"])
    def test_path_beyond_cyclic_prefix_is_data_error(self, tmp_path, capsys, command):
        # 2 taps of 0.1 us span 60 m, less than the mini street's longer paths;
        # the error names the trace manifest the seed pass took the prefix from
        ini = tmp_path / "short_prefix.ini"
        ini.write_text(MINI.read_text() + "\n[phy]\ncyclic_prefix = 2\n")
        out = tmp_path / "run"
        if command == "run-experiment":
            argv = ["run-experiment", "--config", str(ini), "--out", str(out)]
        else:
            assert main(["simulate", "--config", str(ini), "--frames", "20",
                         "--out", str(out / "trace")]) == 0
            argv = ["build-dataset", "--trace", str(out / "trace"), "--out", str(out / "dataset")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{out / 'trace' / 'manifest.json'}: path delay" in err
        assert "cyclic_prefix = 2 is too short" in err
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize("line", ["hidden = 0", "layers = 0", "embed_dim = 5",
                                      "seed = -4", "table_seed = -1"])
    def test_bad_train_config_is_data_error(self, tmp_path, capsys, line):
        ini = tmp_path / "train.ini"
        ini.write_text(f"[train]\n{line}\n")
        assert main(["train", "--dataset", str(tmp_path), "--mode", "bimodal",
                     "--config", str(ini), "--out", str(tmp_path / "m.ckpt")]) == 2
        assert str(ini) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["seed = -2", "quota = -1", "overlap_cameras = 3",
                                      "overlap_cameras = 3 4 5", "overlap_cameras = 4 3",
                                      "--seed -2", "--quota -1"])
    def test_bad_dataset_config_is_data_error(self, tmp_path, capsys, mini_run, edit):
        # an INI line, or a command-line override of a good INI
        out, _ = mini_run
        flag = edit.startswith("--")
        ini = tmp_path / "dataset.ini"
        ini.write_text("[dataset]\n" if flag else f"[dataset]\n{edit}\n")
        assert main(["build-dataset", "--trace", str(out / "trace"), "--config", str(ini),
                     "--out", str(tmp_path / "ds"), *(edit.split() if flag else [])]) == 2
        err = capsys.readouterr().err
        assert edit.split()[0].lstrip("-") in err and (str(ini) in err) != flag
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "handoff-eval"])
    def test_window_shorter_than_future_is_data_error(self, tmp_path, capsys, mini_run,
                                                      command):
        # the windows' future statuses cut to two, their labels kept
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / {"train": "train.ndrec", "eval": "val.ndrec",
                     "handoff-eval": "pairs.ndrec"}[command]
        edit_windows(path, cut_future)
        ckpt = str(out / "bimodal.ckpt")
        argv = {"train": ["train", "--dataset", str(ds), "--mode", "beam-only"],
                "eval": ["eval", "--ckpt", ckpt, "--dataset", str(ds)],
                "handoff-eval": ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                                 "--pairs", str(path)]}[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "labels 2 future frames" in err

    @pytest.mark.parametrize("defect", ["future", "beam"])
    @pytest.mark.parametrize("name, other", [("train.ndrec", "val.ndrec"),
                                             ("val.ndrec", "train.ndrec")])
    def test_train_names_the_split_of_a_bad_window(self, tmp_path, capsys, mini_run,
                                                   defect, name, other):
        # train and val are encoded in one call; a bad window still names
        # its own file and only that one
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        if defect == "beam":
            edit_windows(ds / name, lambda groups: groups[0]["beams"].__setitem__((-1, -1), 99))
        else:
            edit_windows(ds / name, cut_future)
        assert main(["train", "--dataset", str(ds), "--mode", "bimodal",
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert str(ds / name) in err and str(ds / other) not in err
        assert ("beam index" if defect == "beam" else "labels 2 future frames") in err

    @pytest.mark.parametrize("command, section, option", [
        (["simulate", "--frames", "5"], "vehicles", "cars"),
        (["build-dataset", "--trace", "t"], "dataset", "quota"),
        (["train", "--dataset", "d", "--mode", "bimodal"], "train", "hidden"),
        (["run-experiment"], "experiment", "frames"),
    ])
    def test_unparsable_value_names_file_section_option(self, tmp_path, capsys,
                                                        command, section, option):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{option} = abc\n")
        argv = command + ["--config", str(ini), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(ini) in err and f"[{section}] {option}" in err

    def test_importing_cli_leaves_numpy_unloaded(self):
        # numpy must load only after --threads has set the BLAS thread caps
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        code = "import sys, beamsight.cli; sys.exit('numpy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _byte_mutations(names) -> list[str]:
    """The byte-level mutations of a column file of the columns ``names``."""
    return ["empty file", *(f"{name} {part} {kind}" for name in names
                            for part in ("header", "data") for kind in ("byte flipped", "cut")),
            "2**40 rows", "trailing bytes"]


# mutations of a window group's values, which leave its columns readable
_WINDOW_VALUES = [*(f"{field} = {value}" for field in ("camera", "user", "t_end")
                    for value in ("0", "-1", "2**62")),
                  "beams = 0", "beams = -1", "beams = 2**15 - 1", "future = 2", "future = -1",
                  "repeated row", "beams narrower", "future wider", "user as <i4",
                  "beams as <i8", "future as |u1"]
_PAIR_COLUMNS = [f"{side} {name}" for side in ("bs1", "bs2") for name in oracles.WINDOW_COLUMNS]
_TRACE_VALUES = [*(f"{column} = {value}" for column in ("run", "objects", "ids", "lanes")
                   for value in ("-1", "2**62")),
                 "classes = -1", "classes = 3", "centers = nan", "centers = inf",
                 "centers = 1e300", "dims = 0", "dims = nan", "velocities = inf",
                 "repeated row", "ids as <i4", "centers as <f4"]
_VALUES = {"0": 0, "-1": -1, "2": 2, "3": 3, "2**62": 2**62, "2**15 - 1": 2**15 - 1,
           "nan": math.nan, "inf": math.inf, "1e300": 1e300}


class TestMutations:
    """A fixed, seeded list of mutations of every column file, ``trace.cols``,
    ``frames.cols``, ``train.ndrec``, ``val.ndrec`` and ``pairs.ndrec``, and of
    both checkpoints, each run through the CLI stage that reads the file: it
    exits 2 naming the file, or 0 where the mutation is harmless; never 1 (a
    usage error) and never a traceback.  A header that claims 2**40 rows
    allocates nothing."""

    SEED = 26

    @staticmethod
    def assert_exit(code: int, err: str, path: Path) -> None:
        assert code == 0 or (code == 2 and path.name in err), (code, err)
        assert "Traceback" not in err, err

    @classmethod
    def damage(cls, path: Path, span: tuple, flip: bool, draw: str) -> None:
        """One byte of ``path`` within ``span`` (start, end) with every bit
        flipped, or if not ``flip`` the file cut there, at a place drawn from
        SEED and the text ``draw``."""
        at = int(np.random.default_rng([cls.SEED, *draw.encode()]).integers(*span))
        data = bytearray(path.read_bytes())
        if flip:
            data[at] ^= 0xFF
        else:
            del data[at:]
        path.write_bytes(bytes(data))

    @staticmethod
    def column_parts(path: Path, names) -> dict:
        """The (start, end) of each column's header and data in a column file."""
        parts, at = {}, 0
        for name, column in zip(names, oracles.load_columns(path), strict=True):
            saved = io.BytesIO()
            np.save(saved, column)
            head = at + saved.tell() - column.nbytes
            parts[f"{name} header"], parts[f"{name} data"] = (at, head), (head, saved.tell() + at)
            at += saved.tell()
        return parts

    @classmethod
    def break_bytes(cls, path: Path, names, mutation: str) -> None:
        """A mutation of ``_byte_mutations(names)`` made in ``path``."""
        parts, data = cls.column_parts(path, names), path.read_bytes()
        if mutation == "empty file":
            path.write_bytes(b"")
        elif mutation == "2**40 rows":   # the first column's header claims its rows fill TiBs
            first = oracles.load_columns(path)[0]
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(header, {
                "descr": first.dtype.str, "fortran_order": False,
                "shape": (2**40, *first.shape[1:])})
            path.write_bytes(header.getvalue() + data[parts[f"{names[0]} data"][1]:])
        elif mutation == "trailing bytes":
            path.write_bytes(data + bytes(3))
        else:   # "<column> <header or data> <byte flipped or cut>"
            column, part, kind = re.fullmatch(r"(.+) (header|data) (byte flipped|cut)",
                                              mutation).groups()
            cls.damage(path, parts[f"{column} {part}"], kind == "byte flipped", mutation)

    @classmethod
    def mutate(cls, path: Path, names, mutation: str) -> None:
        """``mutation`` of the column file ``path``: one of ``_byte_mutations``, or a
        change of a value in a row drawn from SEED among the rows after the first
        (of a pair file, in its bs1 group, and in both for a repeated row)."""
        if mutation in _byte_mutations(names):
            cls.break_bytes(path, names, mutation)
            return
        columns = dict(zip(names, oracles.load_columns(path), strict=True))
        side = "bs1 " if "bs1 camera" in columns else ""
        rows = len(columns.get(f"{side}camera", columns.get("ids")))   # of windows, or objects
        rng = np.random.default_rng(cls.SEED)
        i = int(rng.integers(1, rows))
        if mutation == "repeated row":
            for name, column in columns.items():
                if len(column) == rows:
                    column[i] = column[i - 1]
        elif " = " in mutation:
            name, value = mutation.split(" = ")
            column = columns[side + name]
            at = (i,) if column.ndim == 1 else (i, int(rng.integers(column.shape[1])))
            column[at if len(column) == rows else int(rng.integers(len(column)))] = _VALUES[value]
        elif " as " in mutation:
            name, dtype = mutation.split(" as ")
            columns[side + name] = columns[side + name].astype(dtype)
        elif mutation == "beams narrower":
            columns[side + "beams"] = columns[side + "beams"][:, 1:].copy()
        elif mutation == "future wider":
            future = columns[side + "future"]
            columns[side + "future"] = np.concatenate([future, future[:, :1]], axis=1)
        elif mutation == "bs2 user off":
            columns["bs2 user"][i] += 1
        elif mutation == "bs2 short":
            for name in oracles.WINDOW_COLUMNS:
                columns[f"bs2 {name}"] = columns[f"bs2 {name}"][:-1]
        else:   # the sides swapped
            values = list(columns.values())
            columns = dict(zip(columns, values[5:] + values[:5]))
        oracles.save_columns(path, list(columns.values()))

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        return simulate_stage(load_experiment_config(MINI).scenario, 20,
                              tmp_path_factory.mktemp("mutations") / "trace")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mutation", [*_byte_mutations(oracles.TRACE_COLUMNS),
                                          *_TRACE_VALUES])
    def test_trace(self, tmp_path, capsys, monkeypatch, trace, mutation, workers):
        monkeypatch.setattr(beamsight.config, "cpu_workers", lambda: workers)
        shutil.copytree(trace, tmp_path / "trace")
        path = tmp_path / "trace" / TRACE_FILE
        self.mutate(path, oracles.TRACE_COLUMNS, mutation)
        tracemalloc.start()
        try:
            code = main(["build-dataset", "--trace", str(path.parent),
                         "--out", str(tmp_path / "ds")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert code == 2 or mutation in _TRACE_VALUES or mutation.endswith("data byte flipped")
        assert mutation != "2**40 rows" or ("do not fit in the file" in err and peak < 2**20), \
            (peak, err)

    COLUMNS = ["empty file", *(f"{name} {part} {kind}" for name in oracles.FRAME_COLUMNS
                               for part in ("header", "data")
                               for kind in ("byte flipped", "cut")),
               "2**40 rows", *oracles.FRAME_DEFECTS]

    @pytest.mark.parametrize("mutation", COLUMNS)
    def test_frames(self, tmp_path, capsys, mini_run, mutation):
        out, _ = mini_run
        shutil.copytree(out / "dataset", tmp_path / "ds")
        path = tmp_path / "ds" / "frames.cols"
        if mutation in oracles.FRAME_DEFECTS:
            oracles.break_frame_columns(path, mutation)
        else:
            self.break_bytes(path, oracles.FRAME_COLUMNS, mutation)
        argv = ["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(path.parent),
                "--out", str(tmp_path / "eval.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert code == 2 or mutation.endswith("data byte flipped"), err
        assert mutation != "2**40 rows" or ("do not fit in the file" in err and peak < 2**20), \
            (peak, err)

    CHECKPOINTS = [f"{part} {kind}" for part in ("header", "tensors")
                   for kind in ("byte flipped", "cut")] + [
        f"{part} byte flipped {k}" for part in ("header", "tensors") for k in (2, 3)] + [
        "tensor name an int"]

    @pytest.mark.parametrize("mutation", CHECKPOINTS)
    @pytest.mark.parametrize("name", ["bimodal.ckpt", "beam_only.ckpt"])
    def test_checkpoints(self, tmp_path, capsys, mini_run, name, mutation):
        out, _ = mini_run
        path = tmp_path / name
        shutil.copy(out / name, path)
        data = path.read_bytes()
        tensors = 16 + struct.unpack_from("<Q", data, 8)[0]   # magic, version, header length
        if mutation == "tensor name an int":
            header = json.loads(data[16:tensors])
            header["params"][0]["name"] = 0
            text = json.dumps(header, sort_keys=True).encode()
            path.write_bytes(data[:4] + struct.pack("<IQ", 3, len(text)) + text + data[tensors:])
        else:
            span = (0, tensors) if mutation.startswith("header") else (tensors, len(data))
            self.damage(path, span, "flipped" in mutation, mutation)
        code = main(["eval", "--ckpt", str(path), "--dataset", str(out / "dataset"),
                     "--out", str(tmp_path / "eval.csv")])
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert mutation != "tensor name an int" or (code == 2 and "0 is not a string" in err)

    WINDOWS = [*_byte_mutations(oracles.WINDOW_COLUMNS), *_WINDOW_VALUES]

    def run_windows(self, tmp_path, capsys, out, name, names, mutation, argv) -> None:
        shutil.copytree(out / "dataset", tmp_path / "ds")
        path = tmp_path / "ds" / name
        self.mutate(path, names, mutation)
        tracemalloc.start()
        try:
            code = main(argv(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert code == 2 or mutation not in _byte_mutations(names) or \
            mutation.endswith("data byte flipped"), err
        assert mutation != "2**40 rows" or ("do not fit in the file" in err and peak < 2**20), \
            (peak, err)

    @pytest.mark.parametrize("mutation", WINDOWS)
    def test_train_windows(self, tmp_path, capsys, mini_run, mutation):
        # one epoch of the mini model: a harmless mutation trains to its end
        out, _ = mini_run
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\nepochs = 1\nhidden = 16\nembed_dim = 64\nbatch_size = 32\n")
        self.run_windows(tmp_path, capsys, out, "train.ndrec", oracles.WINDOW_COLUMNS, mutation,
                         lambda path: ["train", "--dataset", str(path.parent), "--mode",
                                       "beam-only", "--config", str(ini),
                                       "--out", str(tmp_path / "m.ckpt")])

    @pytest.mark.parametrize("mutation", WINDOWS)
    def test_windows(self, tmp_path, capsys, mini_run, mutation):
        out, _ = mini_run
        self.run_windows(tmp_path, capsys, out, "val.ndrec", oracles.WINDOW_COLUMNS, mutation,
                         lambda path: ["eval", "--ckpt", str(out / "beam_only.ckpt"),
                                       "--dataset", str(path.parent),
                                       "--out", str(tmp_path / "eval.csv")])

    @pytest.mark.parametrize("mutation", [*_byte_mutations(_PAIR_COLUMNS), *_WINDOW_VALUES,
                                          "bs2 user off", "bs2 short", "sides swapped"])
    def test_pairs(self, tmp_path, capsys, mini_run, mutation):
        out, _ = mini_run
        ckpt = str(out / "bimodal.ckpt")
        self.run_windows(tmp_path, capsys, out, "pairs.ndrec", _PAIR_COLUMNS, mutation,
                         lambda path: ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                                       "--pairs", str(path),
                                       "--out", str(tmp_path / "handoff.csv")])

    @pytest.mark.parametrize("name", ["frames.cols", "val.ndrec", TRACE_FILE])
    def test_each_header_byte_xor_0x20(self, tmp_path, capsys, mini_run, trace, name):
        # every byte of every column header, one at a time: the stage's one
        # message, or nothing, on stderr (no warning of the header parse)
        out, _ = mini_run
        names = {"frames.cols": oracles.FRAME_COLUMNS, "val.ndrec": oracles.WINDOW_COLUMNS,
                 TRACE_FILE: oracles.TRACE_COLUMNS}[name]
        src = trace if name == TRACE_FILE else out / "dataset"
        shutil.copytree(src, tmp_path / "in")
        path = tmp_path / "in" / name
        data = path.read_bytes()
        argv = (["build-dataset", "--trace", str(path.parent), "--out", str(tmp_path / "ds")]
                if name == TRACE_FILE else
                ["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(path.parent),
                 "--out", str(tmp_path / "eval.csv")])
        spans = [span for part, span in self.column_parts(path, names).items()
                 if part.endswith(" header")]
        assert len(spans) == len(names)
        with warnings.catch_warnings(record=True) as caught:   # each would print on stderr
            warnings.simplefilter("always")
            for at in (at for start, end in spans for at in range(start, end)):
                path.write_bytes(data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1:])
                code = main(argv)
                err = capsys.readouterr().err
                assert (code, err) == (0, "") or (
                    code == 2 and err.startswith(f"error: {path}: ") and err.count("\n") == 1), \
                    (at, code, err)
        assert [str(w.message) for w in caught] == []
