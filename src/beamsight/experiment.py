"""End-to-end experiment orchestration: simulate -> build-dataset ->
train (both modes) -> eval -> handoff-eval.

Every stage reads its inputs from disk and writes its outputs to disk, so
the in-process pipeline and the stage-by-stage CLI produce identical
artifacts, all ``.npy`` column files beside a manifest: a trace's
``trace.cols`` and a dataset's ``frames.cols``, ``train.ndrec``, ``val.ndrec``
and ``pairs.ndrec`` (names kept from an earlier text layout).  A stage reads
only what its model reads: ``train`` the dataset manifest, ``train.ndrec``
and ``val.ndrec``; ``eval`` a checkpoint, the manifest and ``val.ndrec``;
``handoff-eval`` two checkpoints, ``pairs.ndrec`` and the manifest beside it.
``frames.cols`` is read once by a stage with a bimodal model and never opened
by a beam-only one.  Nothing is cached: each run recomputes every stage into
the output directory and records the config hash in the manifest, so a
changed config can never silently reuse stale artifacts.  Output CSVs carry
no timestamps; reruns of one config are byte-identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import MAX_FRAMES, DatasetConfig, ExperimentConfig, ScenarioConfig, TrainConfig
from .embedding import BeamEmbeddingTable, check_beams, encode_dataset
from .errors import BeamsightError, DataError
from .handoff import HandoffReport, score_handoff
from .metrics import MetricReport, report
from .pipeline import (
    DATASET_FILES,
    PAIRS_FILE,
    SPLIT_FILES,
    TRACE_FILE,
    balance_and_split,
    collect_windows,
    concat,
    conjugate_pairs,
    observe,
    read_frames,
    read_manifest,
    read_pair_table,
    read_trace_rows,
    read_windows,
    seed_pass,
    write_dataset,
    write_trace,
)
from .predictor import model_from_checkpoint, save_checkpoint, train_model
from .scene import USER_CLASS, build_world, roll_centers

log = logging.getLogger(__name__)


class StageFailure(BeamsightError):
    """A pipeline stage failed; earlier stages' outputs are left intact."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _encode(files, table: BeamEmbeddingTable, mode: str, observed: int, future: int,
            frames=None):
    """One ``encode_dataset`` call over the window tables of ``files``, (path,
    windows) pairs, whose frames a bimodal call looks up in ``frames``.  A
    DataError names the file of no windows, windows not ``observed`` long,
    labels not ``future`` long, a frame ``frames`` lacks, or beams that
    ``check_beams`` rejects."""
    for path, windows in files:
        (n, r), f = windows.beams.shape, windows.future.shape[1]
        if not n:
            raise DataError(f"{path}: empty dataset: no windows to encode")
        if r != observed:
            raise DataError(f"{path}: windows observe {r} frames, the model takes {observed}")
        if f != future:
            raise DataError(f"{path}: every window labels {f} future frames, "
                            f"the dataset's manifest says {future}")
    if mode == "bimodal":
        files = [(path, observe(path, windows, frames)) for path, windows in files]
    try:   # checks each window once
        return encode_dataset(concat([w for _, w in files]), table, mode)
    except ValueError:
        for path, windows in files:   # the file at fault
            try:
                check_beams(windows, table.n_beams)
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from exc
        raise


@contextlib.contextmanager
def _writing(path):
    """A write to ``path`` that fails with an OSError ends as a DataError naming it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def simulate_stage(cfg: ScenarioConfig, frames: int, out_dir) -> Path:
    """Roll the world forward and write the trace."""
    if not 1 <= frames <= MAX_FRAMES:
        raise DataError(f"frames must be in 1..{MAX_FRAMES}")
    world = build_world(cfg)
    out = Path(out_dir)
    with _writing(out):
        write_trace(out, cfg, world.objects, roll_centers(world, cfg.dt, frames))
    log.info("simulated %d frames into %s", frames, out)
    return out


def build_dataset_stage(trace_dir, out_dir, ds_cfg: DatasetConfig) -> dict:
    """Seed pass, windowing, balancing/splitting, conjugate pairs."""
    start = time.perf_counter()
    scenario, world, rows = read_trace_rows(trace_dir)
    read = time.perf_counter()
    try:
        seed = seed_pass(rows, world, scenario)
    except DataError as exc:
        raise DataError(f"{Path(trace_dir) / 'manifest.json'}: {exc}") from exc
    seeded = time.perf_counter()
    windows = collect_windows(seed, ds_cfg.observed, ds_cfg.future)
    if not len(windows):
        raise DataError(f"{Path(trace_dir) / TRACE_FILE}: trace too short: no full "
                        f"observation windows in its {len(seed)} seed rows")
    train, val = balance_and_split(windows, ds_cfg.quota, ds_cfg.split_fraction, ds_cfg.seed)
    pairs = conjugate_pairs(windows, ds_cfg.overlap_cameras, frozenset(train.keys()))
    category = pairs[2].tolist()

    def histogram(windows):   # cameras are 1..6: counts in order of their keys
        counts = np.bincount(2 * windows.camera + windows.label).tolist()
        return {f"camera{i // 2}_label{i % 2}": n for i, n in enumerate(counts) if n}

    streams = np.bincount(seed.stream_ids())
    never_visible = set(rows.ids[rows.classes == USER_CLASS].tolist()) - set(seed.user.tolist())
    manifest = {
        "observed": ds_cfg.observed,
        "future": ds_cfg.future,
        "quota": ds_cfg.quota,
        "seed": ds_cfg.seed,
        "split_fraction": ds_cfg.split_fraction,
        "overlap_cameras": list(ds_cfg.overlap_cameras),
        "codebook": {k: getattr(scenario, k) for k in (
            "elements", "beams", "subcarriers", "cyclic_prefix", "sample_time", "carrier_hz")},
        "scenario_seed": scenario.seed,
        "seed_pass": {
            "rows": {f"bs{b}": int(np.sum(seed.bs == b)) for b in (1, 2)},
            "nlos_rows": {f"bs{b}": int(np.sum(seed.status[seed.bs == b])) for b in (1, 2)},
            "streams": len(streams), "longest_stream": int(streams.max()),
            "users_never_visible": len(never_visible),
        },
        "counts": {
            "windows": len(windows),
            "train": histogram(train),
            "val": histogram(val),
            "pairs": len(category),
            "pairs_category1": category.count(1),
            "pairs_category2": category.count(2),
            "shortfalls": {k: ds_cfg.quota - n for k, n in histogram(windows).items()
                           if n < ds_cfg.quota},
        },
    }
    write = time.perf_counter()
    with _writing(out_dir):
        write_dataset(out_dir, train, val, pairs, manifest)
    log.info("dataset: trace %.2f s, seed pass %.2f s (processes: %d), write %.2f s; %d train, "
             "%d val, %d conjugate pairs; %s", read - start, seeded - read, seed.processes,
             time.perf_counter() - write, len(train), len(val), len(category),
             ", ".join(f"{name} {(Path(out_dir) / name).stat().st_size} B"
                       for name in DATASET_FILES))
    return manifest


def train_stage(dataset_dir, mode: str, cfg: TrainConfig, out_ckpt,
                history_csv=None) -> dict:
    """Train one mode on a dataset directory and save the best checkpoint."""
    if mode not in ("bimodal", "beam-only"):
        raise DataError(f"unknown mode {mode!r}")
    manifest = read_manifest(dataset_dir)
    frames = read_frames(dataset_dir) if mode == "bimodal" else None
    train, val = read_windows(dataset_dir, "train", "val")
    table = BeamEmbeddingTable(manifest["codebook"]["beams"], cfg.embed_dim,
                               cfg.table_seed)
    x, y = _encode([(Path(dataset_dir) / SPLIT_FILES["train"], train),
                    (Path(dataset_dir) / SPLIT_FILES["val"], val)],
                   table, mode, manifest["observed"], manifest["future"], frames)
    n = len(train)
    result = train_model(x[:n], y[:n], x[n:], y[n:], cfg)

    meta = {
        "mode": mode,
        "input_dim": cfg.embed_dim,
        "embed_dim": cfg.embed_dim,
        "hidden": cfg.hidden,
        "layers": cfg.layers,
        "classes": 2,
        "table_seed": cfg.table_seed,
        "n_beams": manifest["codebook"]["beams"],
        "observed": manifest["observed"],
        "future": manifest["future"],
        "best_epoch": result.best_epoch,
        "best_val_top1": result.best_val_top1,
        "train_config": dataclasses.asdict(cfg),
    }
    with _writing(out_ckpt):
        save_checkpoint(out_ckpt, result.params, meta)
    if history_csv is not None:
        _write_csv(history_csv,
                   ["epoch", "train_loss", "train_top1", "val_loss", "val_top1"],
                   [[r["epoch"], r["train_loss"], r["train_top1"],
                     r["val_loss"], r["val_top1"]] for r in result.history])
    log.info("trained %s: best val top-1 %.4f at epoch %d",
             mode, result.best_val_top1, result.best_epoch)
    return meta


def _load_model(ckpt_path):
    """A checkpoint's model and its header, which must fit the model and its beam table."""
    model, meta = model_from_checkpoint(ckpt_path)
    try:
        if meta["mode"] not in ("bimodal", "beam-only") or \
                meta["embed_dim"] != model.input_dim:
            raise ValueError("mode or embed_dim does not fit the model")
        if type(meta["table_seed"]) is not int or meta["table_seed"] < 0:
            raise ValueError(f"table_seed = {meta['table_seed']!r} is not an int >= 0")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {ckpt_path}: bad header: {exc!r}") from exc
    return model, meta


def _beam_table(ckpt_path, meta: dict, dataset_dir, manifest: dict) -> BeamEmbeddingTable:
    """A checkpoint's beam table, once its n_beams and observed are found to be
    the codebook size and the window length of the dataset's ``manifest``."""
    n_beams = manifest["codebook"]["beams"]
    for key, value, unit in (("n_beams", n_beams, "codebook beams"),
                             ("observed", manifest["observed"], "observed frames")):
        if type(meta.get(key)) is not int or meta[key] != value:
            raise DataError(f"checkpoint {ckpt_path}: bad header: {key} = {meta.get(key)!r}, "
                            f"but {Path(dataset_dir) / 'manifest.json'} has {value} {unit}")
    return BeamEmbeddingTable(n_beams, meta["embed_dim"], meta["table_seed"])


def eval_stage(ckpt_path, dataset_dir, out_csv) -> tuple[MetricReport, dict]:
    """Evaluate a checkpoint on the validation split; write CSV tables.

    The summary lands at ``out_csv``; the confusion, per-camera, and
    per-instance tables become sibling files with suffixed names.
    """
    model, meta = _load_model(ckpt_path)
    manifest = read_manifest(dataset_dir)
    table = _beam_table(ckpt_path, meta, dataset_dir, manifest)
    frames = read_frames(dataset_dir) if meta["mode"] == "bimodal" else None
    [val] = read_windows(dataset_dir, "val")
    t0 = time.perf_counter()
    x, _ = _encode([(Path(dataset_dir) / SPLIT_FILES["val"], val)], table, meta["mode"],
                   meta["observed"], manifest["future"], frames)
    preds = model.predict(x)
    log.info("eval: %d windows scored in %.2f s (steps advanced: %d of %d)", len(val),
             time.perf_counter() - t0, *model.steps_advanced)
    rep, cm = report(preds, val, future=manifest["future"])

    out_csv = Path(out_csv)
    _write_csv(out_csv, ["metric", "value"], [
        ["mode", meta["mode"]],
        ["n_samples", rep.n_samples],
        ["top1", rep.top1],
        ["precision", rep.precision],
        ["recall", rep.recall],
        ["pivotal_accuracy", rep.pivotal_accuracy],
    ])
    stem = out_csv.with_suffix("")
    _write_csv(Path(f"{stem}_confusion.csv"),
               ["tp", "fp", "tn", "fn", "total", "accuracy"],
               [[cm.tp, cm.fp, cm.tn, cm.fn, cm.total, cm.accuracy]])
    _write_csv(Path(f"{stem}_per_camera.csv"),
               ["camera", "pivotal_accuracy", "pivotal_count"],
               [[cam, rep.per_camera_pivotal[cam], rep.per_camera_counts[cam]]
                for cam in sorted(rep.per_camera_pivotal)])
    _write_csv(Path(f"{stem}_per_instance.csv"),
               ["blockage_instance", "accuracy", "count"],
               [[i, rep.per_instance[i], rep.per_instance_counts[i]]
                for i in sorted(rep.per_instance)])
    return rep, meta


def handoff_eval(ckpt1_path, ckpt2_path, pairs_path) -> HandoffReport:
    """Run the two per-basestation models over the conjugate pairs; two paths
    to one file load it once, and ``frames.cols`` is read only for a
    bimodal model.

    An empty pairs file yields an all-undefined report (n/a categories),
    mirroring the per-category degenerate case.
    """
    model1, meta1 = _load_model(ckpt1_path)
    same = Path(ckpt1_path).resolve() == Path(ckpt2_path).resolve()
    model2, meta2 = (model1, meta1) if same else _load_model(ckpt2_path)
    dataset_dir = Path(pairs_path).parent
    bimodal = "bimodal" in (meta1["mode"], meta2["mode"])
    frames = read_frames(dataset_dir) if bimodal else None
    bs1, bs2, category = read_pair_table(pairs_path)
    manifest = read_manifest(dataset_dir)
    future = manifest["future"]
    table1 = _beam_table(ckpt1_path, meta1, dataset_dir, manifest)
    table2 = table1 if same else _beam_table(ckpt2_path, meta2, dataset_dir, manifest)
    if not len(category):
        return score_handoff([], [], [], [], [])

    def predict(model, meta, table, windows):
        x, _ = _encode([(pairs_path, windows)], table, meta["mode"], meta["observed"],
                       future, frames)
        return model.predict(x), model.steps_advanced

    t0 = time.perf_counter()
    (pred1, steps1), (pred2, steps2) = (predict(model1, meta1, table1, bs1),
                                        predict(model2, meta2, table2, bs2))
    log.info("handoff: %d windows scored in %.2f s (steps advanced: %d of %d)",
             2 * len(category), time.perf_counter() - t0, *np.add(steps1, steps2))
    return score_handoff(pred1, pred2, bs1.label, bs2.label, category)


def handoff_row(label: str, rep: HandoffReport) -> list:
    return [label,
            rep.category1_accuracy, rep.category1_count,
            rep.category2_accuracy, rep.category2_count,
            rep.bs_nlos_accuracy.get(1), rep.bs_los_accuracy.get(1),
            rep.bs_nlos_accuracy.get(2), rep.bs_los_accuracy.get(2),
            rep.overall_accuracy, rep.joint_correct_fraction]


HANDOFF_HEADER = ["model",
                  "handoff_acc_1to2", "count_1to2",
                  "handoff_acc_2to1", "count_2to1",
                  "bs1_nlos_acc", "bs1_los_acc", "bs2_nlos_acc", "bs2_los_acc",
                  "overall_acc", "joint_correct"]


def handoff_stage(ckpt1_path, ckpt2_path, pairs_path, out_csv,
                  label: str = "model") -> HandoffReport:
    rep = handoff_eval(ckpt1_path, ckpt2_path, pairs_path)
    _write_csv(out_csv, HANDOFF_HEADER, [handoff_row(label, rep)])
    return rep


# ---------------------------------------------------------------------------
# Full experiment
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """All stages in sequence; returns the experiment manifest."""
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "stages": {},
    }

    def run(stage_name, fn):
        try:
            return fn()
        except BeamsightError as exc:
            raise StageFailure(stage_name, exc) from exc

    trace_dir = out / "trace"
    run("simulate", lambda: simulate_stage(cfg.scenario, cfg.frames, trace_dir))
    manifest["stages"]["simulate"] = {"out": "trace", "frames": cfg.frames,
                                      "seed": cfg.scenario.seed}

    dataset_dir = out / "dataset"
    ds_manifest = run("build-dataset",
                      lambda: build_dataset_stage(trace_dir, dataset_dir, cfg.dataset))
    manifest["stages"]["build-dataset"] = {"out": "dataset",
                                           "counts": ds_manifest["counts"],
                                           "seed": cfg.dataset.seed}

    checkpoints = {}
    for mode, fname, seed_offset in (("bimodal", "bimodal.ckpt", 0),
                                     ("beam-only", "beam_only.ckpt", 1)):
        ckpt = out / fname
        train_cfg = dataclasses.replace(cfg.train, seed=cfg.train.seed + seed_offset)
        history = out / f"train_{mode.replace('-', '_')}_history.csv"
        meta = run(f"train-{mode}",
                   lambda m=mode, c=ckpt, t=train_cfg, h=history:
                   train_stage(dataset_dir, m, t, c, h))
        checkpoints[mode] = ckpt
        manifest["stages"][f"train-{mode}"] = {
            "out": fname, "seed": train_cfg.seed,
            "best_epoch": meta["best_epoch"],
            "best_val_top1": meta["best_val_top1"],
        }

    reports = {}
    for mode, ckpt in checkpoints.items():
        csv_path = out / f"eval_{mode.replace('-', '_')}.csv"
        rep, _ = run(f"eval-{mode}",
                     lambda c=ckpt, p=csv_path: eval_stage(c, dataset_dir, p))
        reports[mode] = rep
        manifest["stages"][f"eval-{mode}"] = {
            "out": csv_path.name,
            "top1": rep.top1,
            "recall": rep.recall,
        }

    pairs_path = dataset_dir / PAIRS_FILE
    rows = []
    handoff_reports = {}
    for mode, ckpt in checkpoints.items():
        rep = run(f"handoff-{mode}",
                  lambda c=ckpt: handoff_eval(c, c, pairs_path))
        handoff_reports[mode] = rep
        rows.append(handoff_row(mode, rep))
    _write_csv(out / "handoff.csv", HANDOFF_HEADER, rows)
    manifest["stages"]["handoff-eval"] = {
        "out": "handoff.csv",
        "pairs": ds_manifest["counts"]["pairs"],
    }

    with _writing(out / "manifest.json"):
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
