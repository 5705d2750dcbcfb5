import dataclasses
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
    """The paths of the frames.ndrec files parsed from now on."""
    parsed, read = [], beamsight.pipeline._read_table
    monkeypatch.setattr(beamsight.pipeline, "_read_table", lambda path, *args: (
        path.name == "frames.ndrec" and parsed.append(path)) or read(path, *args))
    return parsed


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini") / "run"
    manifest = run_experiment(load_experiment_config(MINI), out)
    return out, manifest


class TestRunExperiment:
    def test_all_artifacts_present(self, mini_run):
        out, manifest = mini_run
        for name in ("trace/manifest.json", "trace/frames.ndjson",
                     "dataset/frames.ndrec", "dataset/train.ndrec", "dataset/val.ndrec",
                     "dataset/pairs.ndrec", "dataset/manifest.json",
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
        assert parsed == [again / "dataset" / "frames.ndrec"] * 3
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
        assert (out / "trace" / "frames.ndjson").is_file()
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
        # a bimodal stage parses frames.ndrec once for train and val; a
        # beam-only stage does not open it
        out, _ = mini_run
        parsed = frame_parses(monkeypatch)
        train_stage(out / "dataset", "bimodal", replace(mini_config().train, epochs=1),
                    tmp_path / "m.ckpt")
        assert parsed == [out / "dataset" / "frames.ndrec"]
        train_stage(out / "dataset", "beam-only", replace(mini_config().train, epochs=1),
                    tmp_path / "b.ckpt")
        assert parsed == [out / "dataset" / "frames.ndrec"]

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
        for name in ("frames.ndrec", "train.ndrec", "val.ndrec", "pairs.ndrec"):
            assert f"{name} {(tmp_path / 'ds' / name).stat().st_size} B" in info[-1]


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
        for name in ("frames.ndrec", "train.ndrec", "val.ndrec", "pairs.ndrec", "manifest.json"):
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
    """frames.ndrec writes each box corner as the shortest text of its nearest
    float32, moved one float32 step outward where a box's corners meet."""

    def test_corners_are_shortest_text_of_nearest_float32(self, mini_run):
        # not %r of the float64 (17 digits), nor %.9g (which writes every
        # float32 in 9 digits): each text is the float32's shortest
        out, _ = mini_run
        scenario, world, rows = read_trace_rows(out / "trace")
        frames = seed_pass(rows, world, scenario).frames
        boxes = dict(zip(zip(frames.camera.tolist(), frames.frame.tolist()),
                         np.split(frames.boxes, np.cumsum(frames.count)[:-1])))
        texts, given = [], []
        for line in (out / "dataset" / "frames.ndrec").read_text().splitlines():
            record = json.loads(line, parse_float=str)
            texts += [d[1:5] for d in record["detections"]]
            given.append(boxes[record["camera"], record["frame"]])
        texts, nearest = np.array(texts), np.concatenate(given).astype(np.float32)
        assert texts.shape == nearest.shape and len(texts) > 500
        assert all(str(np.float32(float(t))) == t for t in texts.ravel().tolist())
        written = np.vectorize(float)(texts).astype(np.float32)
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
        assert again.boxes[box].tolist() == oracles.float32_corners(frames.boxes[box].tolist())
        assert main(["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(cut),
                     "--out", str(tmp_path / "eval.csv")]) == 0


class TestReadContract:
    """A stage reads only the files its model reads: a beam-only stage never
    opens frames.ndrec, so a defect there leaves its outputs as they were."""

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

    @pytest.mark.parametrize("defect", ["deleted", "line 2 truncated"])
    def test_frames_defect_harms_only_bimodal_stages(self, tmp_path, capsys, mini_run, defect):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        frames = ds / "frames.ndrec"
        if defect == "deleted":
            frames.unlink()
        else:
            lines = frames.read_text().splitlines()
            frames.write_text("\n".join([lines[0], lines[1][:-10], *lines[2:]]) + "\n")
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
            assert defect == "deleted" or f"{frames}: line 2 " in err

    def test_mixed_handoff_parses_frames_once(self, mini_run, monkeypatch):
        out, _ = mini_run
        parsed = frame_parses(monkeypatch)
        pairs = out / "dataset" / "pairs.ndrec"
        handoff_eval(out / "bimodal.ckpt", out / "beam_only.ckpt", pairs)
        assert parsed == [out / "dataset" / "frames.ndrec"]
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

    def test_truncated_split_line_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        val = ds / "val.ndrec"
        val.write_text(val.read_text()[:-40] + "\n")
        assert main(["train", "--dataset", str(ds), "--mode", "beam-only",
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert str(val) in err and "line" in err

    def test_empty_val_split_under_train_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        (ds / "val.ndrec").write_text("")
        assert main(["train", "--dataset", str(ds), "--mode", "beam-only",
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        assert str(ds / "val.ndrec") in capsys.readouterr().err

    def test_pair_missing_key_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        shutil.copy(out / "dataset" / "frames.ndrec", tmp_path)
        pairs = tmp_path / "pairs.ndrec"
        pairs.write_text('{"user": 1}\n')
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                     "--pairs", str(pairs), "--out", str(tmp_path / "h.csv")]) == 2
        assert str(pairs) in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, beam", [
        ("eval", "val.ndrec", 0), ("handoff-eval", "pairs.ndrec", 0),
        ("eval", "val.ndrec", 10**6), ("handoff-eval", "pairs.ndrec", 10**6),
        ("eval", "val.ndrec", 10**30),    # past int64
    ])
    def test_beam_out_of_range_is_data_error(self, tmp_path, capsys, mini_run,
                                             command, name, beam):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        first, *rest = path.read_text().splitlines()
        record = json.loads(first)
        (record["bs2"] if name == "pairs.ndrec" else record)["beams"][0] = beam
        path.write_text("\n".join([json.dumps(record), *rest]) + "\n")
        ckpt = str(out / "bimodal.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "beam index" in err

    @pytest.mark.parametrize("command, name", [("eval", "val.ndrec"),
                                               ("handoff-eval", "pairs.ndrec")])
    def test_ragged_window_is_data_error(self, tmp_path, capsys, mini_run, command, name):
        # a val window one beam short; a pairs bs1 window one beam long
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if name == "val.ndrec":
            records[0]["beams"] = records[0]["beams"][1:]
        else:
            # a window whose camera has the frame before it, so that only
            # the length is wrong
            frames = {(f["camera"], f["frame"]) for f in
                      map(json.loads, (ds / "frames.ndrec").read_text().splitlines())}
            longer = next(r["bs1"] for r in records
                          if (r["bs1"]["camera"],
                              r["bs1"]["t_end"] - len(r["bs1"]["beams"])) in frames)
            longer["beams"] = [1, *longer["beams"]]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        ckpt = str(out / "bimodal.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "beam index" in err

    @pytest.mark.parametrize("instance", [3, "x"])
    def test_instance_off_its_window_is_data_error(self, tmp_path, capsys, mini_run,
                                                   instance):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "val.ndrec"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        pivotal = next(r for r in records if r["window"][0] == 1)
        pivotal["instance"] = instance
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(ds),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line" in err and "instance" in err

    @pytest.mark.parametrize("edit", ["flip category", "equal statuses"])
    def test_pair_category_off_its_sides_is_data_error(self, tmp_path, capsys, mini_run,
                                                       edit):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "pairs.ndrec"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if edit == "flip category":
            records[0]["category"] = 3 - records[0]["category"]
        else:
            for key in ("label", "window", "instance"):
                records[0]["bs2"][key] = records[0]["bs1"][key]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line 1" in err and "category" in err

    def test_pair_sides_on_the_wrong_basestations_is_data_error(self, tmp_path, capsys,
                                                                mini_run):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "pairs.ndrec"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # swapped sides with the category flipped still fit the statuses
        first = records[0]
        first["bs1"], first["bs2"] = first["bs2"], first["bs1"]
        first["category"] = 3 - first["category"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 1 " in err and "of basestation" in err

    @pytest.mark.parametrize("command, name, change", [
        ("eval", "val.ndrec", {"camera": 99}),
        ("eval", "val.ndrec", {"window": [2, 0, 0, 0, 0], "label": 1, "instance": 1}),
        ("handoff-eval", "pairs.ndrec", {"camera": 0}),   # camera_to_bs(0) is 1
    ])
    def test_window_out_of_range_under_beam_only_is_data_error(self, tmp_path, capsys, mini_run,
                                                               command, name, change):
        # a beam-only stage never looks the window's frames up
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        (records[0]["bs1"] if name == "pairs.ndrec" else records[0]).update(change)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        ckpt = str(out / "beam_only.ckpt")
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        else:
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert f"{path}: line 1 " in capsys.readouterr().err

    def test_bad_checkpoint_with_empty_pairs_is_data_error(self, tmp_path, capsys, mini_run):
        out, _ = mini_run
        shutil.copy(out / "dataset" / "frames.ndrec", tmp_path)
        pairs = tmp_path / "pairs.ndrec"
        pairs.write_text("")
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
        (ds / name).write_text("")
        if command == "train":
            argv = ["train", "--dataset", str(ds), "--mode", "beam-only",
                    "--out", str(tmp_path / "m.ckpt")]
        else:
            argv = ["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(ds),
                    "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert str(ds / name) in capsys.readouterr().err

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
        path = ds / "frames.ndrec"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["detections"].insert(0, ["car", *box])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(ds),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2 " in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "handoff-eval"])
    def test_old_layout_dataset_is_data_error(self, tmp_path, capsys, mini_run, command):
        # the older layout: no frames.ndrec, each window carries its detections
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        frames = {}
        for line in (ds / "frames.ndrec").read_text().splitlines():
            record = json.loads(line)
            frames[record["camera"], record["frame"]] = record["detections"]
        (ds / "frames.ndrec").unlink()

        def old(window):
            first = window["t_end"] - len(window["beams"]) + 1
            return dict(window, detections=[frames[window["camera"], t]
                                            for t in range(first, window["t_end"] + 1)])

        for name in ("val.ndrec", "pairs.ndrec"):
            records = [json.loads(line) for line in (ds / name).read_text().splitlines()]
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
        assert str(ds / "frames.ndrec") in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda m: '{"observed": 8}',                       # keys missing
        lambda m: m[:-20],                                 # not JSON
        lambda m: json.dumps(dict(json.loads(m), observed=0)),
        lambda m: json.dumps(dict(json.loads(m), future="5")),
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

    def test_truncated_trace_frame_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        frames = trace / "frames.ndjson"
        frames.write_text(frames.read_text()[:-40] + "\n")
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert str(frames) in err and "line 3" in err

    @pytest.mark.parametrize("edit, line, message", [
        ("duplicate line", 3, "where frame 2 belongs"),
        ("drop last line", None, "says 3"),
        ("swap frame numbers", 2, "where frame 1 belongs"),
        ("nan centre", 2, "not finite"),
        ("infinite centre", 2, "not finite"),
        ("infinite id", 2, "not finite"),
        ("fractional id", 2, "must be integers"),
        ("fractional lane", 2, "must be integers"),
        ("repeated object id", 2, "object id repeats"),
        ("boolean centre", 2, "True where an object record holds a number"),
        ("boolean velocity", 2, "False where an object record holds a number"),
        ("string centre", 2, "'1.5' where an object record holds a number"),
        ("null velocity", 2, "None where an object record holds a number"),
        ("13-entry record", 2, "does not hold 12 entries"),
        ("11-entry record", 2, "does not hold 12 entries"),
        ("unknown class", 2, "unknown object class 'boat'"),
        ("70-bit id", 2, "must be integers within 64 bits"),
        ("70-bit lane", 2, "must be integers within 64 bits"),
        ("objects not a list", 2, "objects must be a list"),
        ("zero dim", 2, "dimensions must be positive"),
        ("negative dim", 2, "dimensions must be positive"),
    ])
    def test_corrupt_trace_is_data_error(self, tmp_path, capsys, edit, line, message):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        frames = trace / "frames.ndjson"
        records = [json.loads(text) for text in frames.read_text().splitlines()]
        objects = records[1]["objects"]
        if edit == "duplicate line":
            records.insert(1, records[1])
        elif edit == "drop last line":
            records.pop()
        elif edit == "swap frame numbers":
            records[1]["frame"], records[2]["frame"] = 2, 1
        elif edit == "nan centre":
            objects[0][2] = float("nan")
        elif edit == "infinite centre":
            objects[0][3] = float("inf")
        elif edit == "infinite id":
            objects[0][0] = float("inf")
        elif edit == "fractional id":
            objects[0][0] += 0.5
        elif edit == "fractional lane":
            objects[0][11] = 0.5
        elif edit == "boolean centre":
            objects[0][2] = True
        elif edit == "boolean velocity":
            objects[1][9] = False
        elif edit == "string centre":
            objects[0][3] = "1.5"
        elif edit == "null velocity":
            objects[0][8] = None
        elif edit == "13-entry record":
            objects[0].append(0)
        elif edit == "11-entry record":
            objects[1].pop()
        elif edit == "unknown class":
            objects[0][1] = "boat"
        elif edit == "70-bit id":
            objects[0][0] = 2**70
        elif edit == "70-bit lane":
            objects[1][11] = -2**70
        elif edit == "objects not a list":
            records[1]["objects"] = {}
        elif edit == "zero dim":
            objects[0][5] = 0.0
        elif edit == "negative dim":
            objects[1][7] = -1.5
        else:
            objects[1][0] = objects[0][0]
        frames.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert str(frames) in err and message in err
        if line is not None:
            assert f"line {line} " in err
        else:
            assert str(trace / "manifest.json") in err

    def test_too_short_trace_names_its_file(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "5",
                     "--out", str(trace)]) == 0
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{trace / 'frames.ndjson'}: trace too short" in err

    @pytest.mark.parametrize("name, edit", [
        ("val.ndrec", "repeat first line"),
        ("val.ndrec", "take a train key"),
        ("pairs.ndrec", "repeat first line"),
        ("frames.ndrec", "repeat first line"),
    ])
    def test_repeated_key_is_data_error(self, tmp_path, capsys, mini_run, name, edit):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        lines = path.read_text().splitlines()
        if edit == "repeat first line":
            lines.insert(1, lines[0])
            where = "line 2 "
        else:
            lines.append((ds / "train.ndrec").read_text().splitlines()[0])
            where = f"line {len(lines)} "
        path.write_text("\n".join(lines) + "\n")
        ckpt = str(out / "bimodal.ckpt")
        if name == "pairs.ndrec":
            argv = ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path)]
        elif edit == "take a train key":
            argv = ["train", "--dataset", str(ds), "--mode", "beam-only"]
        else:
            argv = ["eval", "--ckpt", ckpt, "--dataset", str(ds)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {where}" in err and "repeats key" in err

    @pytest.mark.parametrize("field", ["user", "t_end"])
    def test_pair_off_its_sides_is_data_error(self, tmp_path, capsys, mini_run, field):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / "pairs.ndrec"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0][field] += 1
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        ckpt = str(out / "bimodal.ckpt")
        assert main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 1 " in err and "its sides" in err

    @pytest.mark.parametrize("section, option, value", [
        ("detector", "p_miss", "1.5"),
        ("detector", "p_false_positive", "-0.1"),
        ("detector", "min_visible_fraction", "1.2"),
        ("detector", "jitter_sigma", "-1"),
        ("phy", "beams", "0"),
        ("phy", "elements", "0"),
        ("phy", "subcarriers", "0"),
        ("phy", "cyclic_prefix", "0"),
        ("phy", "sample_time", "0"),
        ("phy", "carrier_hz", "-28e9"),
        ("vehicles", "cars", "-3"),
        ("vehicles", "buses", "-1"),
        ("vehicles", "trucks", "-1"),
        ("simulation", "seed", "-1"),
    ])
    def test_bad_scenario_range_is_data_error(self, tmp_path, capsys,
                                              section, option, value):
        ini = tmp_path / "scenario.ini"
        ini.write_text(f"[{section}]\n{option} = {value}\n")
        assert main(["simulate", "--config", str(ini), "--frames", "2",
                     "--out", str(tmp_path / "trace")]) == 2
        err = capsys.readouterr().err
        assert str(ini) in err and option in err
        assert not (tmp_path / "trace").exists()

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

    @pytest.mark.parametrize("name", ["frames.ndrec", "train.ndrec", "val.ndrec", "pairs.ndrec"])
    def test_dataset_byte_not_utf8_is_data_error(self, tmp_path, capsys, mini_run, name):
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / name
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"\n".join(lines))
        ckpt = str(out / "bimodal.ckpt")
        argv = {"frames.ndrec": ["eval", "--ckpt", ckpt, "--dataset", str(ds)],
                "train.ndrec": ["train", "--dataset", str(ds), "--mode", "beam-only"],
                "val.ndrec": ["eval", "--ckpt", ckpt, "--dataset", str(ds)],
                "pairs.ndrec": ["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt,
                                "--pairs", str(path)]}[name]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2 is not JSON" in err and "0xff" in err

    def test_trace_byte_not_utf8_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["simulate", "--config", str(MINI), "--frames", "3",
                     "--out", str(trace)]) == 0
        frames = trace / "frames.ndjson"
        lines = frames.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"car"', b'"c\xe9r"', 1)
        frames.write_bytes(b"\n".join(lines))
        assert main(["build-dataset", "--trace", str(trace),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{frames}: line 3 is not JSON" in err and "0xe9" in err

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
        # one non-pivotal window cut to two future frames; label and
        # instance still fit it
        out, _ = mini_run
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        path = ds / {"train": "train.ndrec", "eval": "val.ndrec",
                     "handoff-eval": "pairs.ndrec"}[command]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        windows = ([side for r in records for side in (r["bs1"], r["bs2"])]
                   if command == "handoff-eval" else records)
        next(w for w in windows if w["label"] == 0)["window"] = [0, 0]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
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
        records = [json.loads(line) for line in (ds / name).read_text().splitlines()]
        bad = records[-1] if defect == "beam" else next(r for r in records[::-1]
                                                        if r["label"] == 0)
        if defect == "beam":
            bad["beams"][-1] = 10**6
        else:
            bad["window"] = [0, 0]
        (ds / name).write_text("".join(json.dumps(r) + "\n" for r in records))
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


def _mutations(ints: tuple[str, ...], keys: tuple[str, ...], text: str) -> list[str]:
    """The mutations of a JSON-lines file whose records hold ``keys``, the int
    fields ``ints`` and, under ``text``, a list of entries with numbers."""
    return ["truncated line", *(f"dropped {key}" for key in keys), f"{text} as text",
            "frame as text", "true for a number",
            *(f"{field} = {value}" for field in ints for value in ("0", "-1", "2**62", "2**64")),
            "nan", "inf", "empty file", "duplicated line", "byte not UTF-8"]


class TestMutations:
    """A fixed, seeded list of mutations of the files whose reader and writer
    work on whole columns, ``frames.ndjson``, ``frames.ndrec``, ``val.ndrec``
    and ``pairs.ndrec``, each run through the CLI stage that reads the file:
    it exits 2 naming the file, or 0 where the mutation is harmless; never 1
    (a usage error) and never a traceback."""

    SEED = 26
    ENTRIES = {"frames.ndjson": "objects", "frames.ndrec": "detections"}   # else beams
    NUMBER = {"frames.ndjson": 2, "frames.ndrec": 1}   # a centre x; a box x1
    FIELDS = {"frame": "frame", "camera": "camera", "id": 0, "lane": 11,   # 0, 11: in an entry
              "user": "user", "t_end": "t_end", "label": "label", "category": "category"}
    INTS = {"0": 0, "-1": -1, "2**62": 2**62, "2**64": 2**64}
    # edits of a window or pair line in place, which leave the rest of it in
    # the writer's form: (pattern, the replacement of its first match)
    IN_PLACE = {"camera 7 in place": (rb'"camera":\d+', rb'"camera":7'),
                "leading zero in place": (rb'"user":', rb'"user":0'),
                "20 digits in place": (rb'"t_end":\d+', rb'"t_end":10000000000000000000'),
                "beam dropped in place": (rb'"beams":\[\d+,', rb'"beams":['),
                "instance null in place": (rb'"instance":\d+', rb'"instance":null')}

    @classmethod
    def mutate(cls, path: Path, mutation: str) -> None:
        """``mutation`` of one record of ``path`` and one of its entries, both
        drawn from SEED among the records after the first that hold entries
        (of a pair, those of its bs1 side)."""
        rng = np.random.default_rng(cls.SEED)
        lines = path.read_bytes().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        text = cls.ENTRIES.get(path.name, "beams")
        i = int(rng.choice([n for n, r in enumerate(records) if n and r.get("bs1", r)[text]]))
        record = records[i]
        entries = record.get("bs1", record)[text]
        j = int(rng.integers(len(entries)))
        entry, number = (entries, j) if text == "beams" else (entries[j], cls.NUMBER[path.name])
        if mutation in cls.IN_PLACE:
            i = next(n for n, line in enumerate(lines)
                     if n >= i and re.search(rb'"instance":\d', line))
            lines[i] = re.sub(*cls.IN_PLACE[mutation], lines[i], count=1)
        elif mutation == "empty file":
            lines = []
        elif mutation == "duplicated line":
            lines.insert(i, lines[i])
        elif mutation == "truncated line":
            lines[i] = lines[i][:len(lines[i]) // 2] + b"\n"
        elif mutation == "byte not UTF-8":
            lines[i] = lines[i].replace(b'"', b'"\xff', 1)
        else:
            if mutation.startswith("dropped "):
                del record[mutation.split()[1]]
            elif mutation.endswith(" as text"):
                record[mutation.split()[0]] = "1"
            elif mutation in ("true for a number", "nan", "inf"):
                entry[number] = {"nan": math.nan, "inf": math.inf}.get(mutation, True)
            else:
                field, value = mutation.split(" = ")
                key = cls.FIELDS[field]
                (entry if isinstance(key, int) else record)[key] = cls.INTS[value]
            lines[i] = (json.dumps(record) + "\n").encode()
        path.write_bytes(b"".join(lines))

    @staticmethod
    def assert_exit(code: int, err: str, path: Path) -> None:
        assert code == 0 or (code == 2 and path.name in err), (code, err)

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        return simulate_stage(load_experiment_config(MINI).scenario, 20,
                              tmp_path_factory.mktemp("mutations") / "trace")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mutation", _mutations(("frame", "id", "lane"),
                                                    ("frame", "objects"), "objects"))
    def test_trace(self, tmp_path, capsys, monkeypatch, trace, mutation, workers):
        monkeypatch.setattr(beamsight.config, "cpu_workers", lambda: workers)
        shutil.copytree(trace, tmp_path / "trace")
        path = tmp_path / "trace" / "frames.ndjson"
        self.mutate(path, mutation)
        code = main(["build-dataset", "--trace", str(path.parent), "--out", str(tmp_path / "ds")])
        self.assert_exit(code, capsys.readouterr().err, path)

    @pytest.mark.parametrize("mutation", _mutations(("camera", "frame"),
                                                    ("camera", "frame", "detections"),
                                                    "detections"))
    def test_frames(self, tmp_path, capsys, mini_run, mutation):
        out, _ = mini_run
        shutil.copytree(out / "dataset", tmp_path / "ds")
        path = tmp_path / "ds" / "frames.ndrec"
        self.mutate(path, mutation)
        code = main(["eval", "--ckpt", str(out / "bimodal.ckpt"), "--dataset", str(path.parent),
                     "--out", str(tmp_path / "eval.csv")])
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert "camera and frame must be 64-bit integers" in err \
            or mutation not in ("camera = 2**64", "frame = 2**64"), err

    @pytest.mark.parametrize("mutation", [*_mutations(("camera", "user", "t_end", "label"),
                                                      ("camera", "beams", "window", "instance"),
                                                      "beams"), *IN_PLACE])
    def test_windows(self, tmp_path, capsys, mini_run, mutation):
        out, _ = mini_run
        shutil.copytree(out / "dataset", tmp_path / "ds")
        path = tmp_path / "ds" / "val.ndrec"
        self.mutate(path, mutation)
        code = main(["eval", "--ckpt", str(out / "beam_only.ckpt"), "--dataset",
                     str(path.parent), "--out", str(tmp_path / "eval.csv")])
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert "64-bit integers" in err or not mutation.endswith("2**64"), err

    @pytest.mark.parametrize("mutation", [*_mutations(("user", "t_end", "category"),
                                                      ("user", "category", "bs1", "bs2"), "bs1"),
                                          *IN_PLACE])
    def test_pairs(self, tmp_path, capsys, mini_run, mutation):
        out, _ = mini_run
        shutil.copytree(out / "dataset", tmp_path / "ds")
        path = tmp_path / "ds" / "pairs.ndrec"
        self.mutate(path, mutation)
        ckpt = str(out / "bimodal.ckpt")
        code = main(["handoff-eval", "--ckpt1", ckpt, "--ckpt2", ckpt, "--pairs", str(path),
                     "--out", str(tmp_path / "handoff.csv")])
        self.assert_exit(code, err := capsys.readouterr().err, path)
        assert "64-bit integers" in err or not mutation.endswith("2**64"), err
