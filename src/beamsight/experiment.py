"""End-to-end experiment orchestration: simulate -> build-dataset, then for
each mode in turn train -> eval -> handoff-eval.

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
_MODES = ("bimodal", "beam-only")   # in run order; each trains with its index added to the seed


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


def _check_writable(*paths) -> None:
    """A DataError naming the first of ``paths`` (None skipped) that cannot be
    opened for writing; a file that was not there is removed again."""
    for path in map(Path, filter(None, paths)):
        made = not path.exists()
        with _writing(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.open("ab").close()
        if made:
            path.unlink()


def train_stage(dataset_dir, mode: str, cfg: TrainConfig, out_ckpt,
                history_csv=None) -> dict:
    """Train one mode on a dataset directory and save the best checkpoint."""
    if mode not in _MODES:
        raise DataError(f"unknown mode {mode!r}")
    _check_writable(out_ckpt, history_csv)   # fail before training
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
        columns = ["epoch", "train_loss", "train_top1", "val_loss", "val_top1"]
        _write_csv(history_csv, columns, [[r[c] for c in columns] for r in result.history])
    log.info("trained %s: best val top-1 %.4f at epoch %d",
             mode, result.best_val_top1, result.best_epoch)
    return meta


def _scorer(ckpt_path, dataset_dir) -> tuple:
    """A checkpoint's model, header and beam table, and the dataset's manifest, once
    the header fits the model and the manifest's codebook size and window length."""
    model, meta = model_from_checkpoint(ckpt_path)
    try:
        if meta["mode"] not in _MODES or meta["embed_dim"] != model.input_dim:
            raise ValueError("mode or embed_dim does not fit the model")
        if type(meta["table_seed"]) is not int or meta["table_seed"] < 0:
            raise ValueError(f"table_seed = {meta['table_seed']!r} is not an int >= 0")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {ckpt_path}: bad header: {exc!r}") from exc
    manifest = read_manifest(dataset_dir)
    n_beams = manifest["codebook"]["beams"]
    for key, value, unit in (("n_beams", n_beams, "codebook beams"),
                             ("observed", manifest["observed"], "observed frames")):
        if type(meta.get(key)) is not int or meta[key] != value:
            raise DataError(f"checkpoint {ckpt_path}: bad header: {key} = {meta.get(key)!r}, "
                            f"but {Path(dataset_dir) / 'manifest.json'} has {value} {unit}")
    return model, meta, BeamEmbeddingTable(n_beams, meta["embed_dim"], meta["table_seed"]), manifest


def _predict(scorer: tuple, path, windows, frames) -> tuple:
    """A ``_scorer``'s predictions for the windows of the file at ``path``, and
    the steps its model advanced."""
    model, meta, table, manifest = scorer
    x, _ = _encode([(path, windows)], table, meta["mode"], meta["observed"],
                   manifest["future"], frames)
    return model.predict(x), model.steps_advanced


def _eval_tables(out_csv) -> list[Path]:
    """The summary ``out_csv``, then its confusion, per-camera and per-instance tables."""
    stem = Path(out_csv).with_suffix("")
    return [Path(out_csv), *(Path(f"{stem}_{name}.csv")
                             for name in ("confusion", "per_camera", "per_instance"))]


def eval_stage(ckpt_path, dataset_dir, out_csv) -> tuple[MetricReport, dict]:
    """Evaluate a checkpoint on the validation split; write CSV tables.

    The summary lands at ``out_csv``; the confusion, per-camera, and
    per-instance tables become sibling files with suffixed names.
    """
    scorer = _scorer(ckpt_path, dataset_dir)
    _, meta, _, manifest = scorer
    frames = read_frames(dataset_dir) if meta["mode"] == "bimodal" else None
    [val] = read_windows(dataset_dir, "val")
    t0 = time.perf_counter()
    preds, steps = _predict(scorer, Path(dataset_dir) / SPLIT_FILES["val"], val, frames)
    log.info("eval: %d windows scored in %.2f s (steps advanced: %d of %d)", len(val),
             time.perf_counter() - t0, *steps)
    rep, cm = report(preds, val, future=manifest["future"])

    summary, confusion, per_camera, per_instance = _eval_tables(out_csv)
    _write_csv(summary, ["metric", "value"], [["mode", meta["mode"]]] + [
        [name, getattr(rep, name)]
        for name in ("n_samples", "top1", "precision", "recall", "pivotal_accuracy")])
    _write_csv(confusion, ["tp", "fp", "tn", "fn", "total", "accuracy"],
               [[cm.tp, cm.fp, cm.tn, cm.fn, cm.total, cm.accuracy]])
    _write_csv(per_camera, ["camera", "pivotal_accuracy", "pivotal_count"],
               [[cam, rep.per_camera_pivotal[cam], rep.per_camera_counts[cam]]
                for cam in sorted(rep.per_camera_pivotal)])
    _write_csv(per_instance, ["blockage_instance", "accuracy", "count"],
               [[i, rep.per_instance[i], rep.per_instance_counts[i]]
                for i in sorted(rep.per_instance)])
    return rep, meta


def handoff_eval(ckpt1_path, ckpt2_path, pairs_path) -> HandoffReport:
    """Run the two per-basestation models over the conjugate pairs; two paths to
    one file load it once, and ``frames.cols`` is read only for a bimodal model.
    An empty pairs file yields an all-undefined report (n/a categories)."""
    dataset_dir = Path(pairs_path).parent
    scorer1 = _scorer(ckpt1_path, dataset_dir)
    same = Path(ckpt1_path).resolve() == Path(ckpt2_path).resolve()
    scorer2 = scorer1 if same else _scorer(ckpt2_path, dataset_dir)
    bimodal = "bimodal" in (scorer1[1]["mode"], scorer2[1]["mode"])
    frames = read_frames(dataset_dir) if bimodal else None
    bs1, bs2, category = read_pair_table(pairs_path)
    if not len(category):
        return score_handoff([], [], [], [], [])
    t0 = time.perf_counter()
    (pred1, steps1), (pred2, steps2) = (_predict(scorer1, pairs_path, bs1, frames),
                                        _predict(scorer2, pairs_path, bs2, frames))
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

@contextlib.contextmanager
def _stage(name: str):
    """A BeamsightError raised in the block ends as a StageFailure of stage ``name``."""
    try:
        yield
    except BeamsightError as exc:
        raise StageFailure(name, exc) from exc


def _lane_files(out: Path, mode: str) -> list[Path]:
    """The files a mode's lane writes in ``out``: its checkpoint, its training
    history, then its eval tables, the summary first."""
    slug = mode.replace("-", "_")
    return [out / f"{slug}.ckpt", out / f"train_{slug}_history.csv",
            *_eval_tables(out / f"eval_{slug}.csv")]


def _lane(out: Path, mode: str, train_cfg: TrainConfig) -> tuple:
    """One mode's train, eval and handoff stages on ``out``'s dataset: the
    checkpoint header, the MetricReport and the HandoffReport."""
    dataset_dir = out / "dataset"
    ckpt, history, eval_csv, *_ = _lane_files(out, mode)
    with _stage(f"train-{mode}"):
        meta = train_stage(dataset_dir, mode, train_cfg, ckpt, history)
    with _stage(f"eval-{mode}"):
        rep, _ = eval_stage(ckpt, dataset_dir, eval_csv)
    with _stage(f"handoff-{mode}"):
        handoff = handoff_eval(ckpt, ckpt, dataset_dir / PAIRS_FILE)
    return meta, rep, handoff


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """simulate and build-dataset, then each mode's lane; returns the experiment
    manifest.  Every top-level output is found writable before the first stage."""
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    _check_writable(*(path for mode in _MODES for path in _lane_files(out, mode)),
                    out / "handoff.csv", out / "manifest.json")
    stages: dict = {}
    manifest = {"version": __version__, "config": cfg.to_dict(),
                "config_hash": cfg.config_hash(), "stages": stages}

    trace_dir, dataset_dir = out / "trace", out / "dataset"
    with _stage("simulate"):
        simulate_stage(cfg.scenario, cfg.frames, trace_dir)
    stages["simulate"] = {"out": "trace", "frames": cfg.frames, "seed": cfg.scenario.seed}
    with _stage("build-dataset"):
        ds_manifest = build_dataset_stage(trace_dir, dataset_dir, cfg.dataset)
    stages["build-dataset"] = {"out": "dataset", "counts": ds_manifest["counts"],
                               "seed": cfg.dataset.seed}

    rows = []
    for seed_offset, mode in enumerate(_MODES):
        ckpt, _, eval_csv, *_ = _lane_files(out, mode)
        train_cfg = dataclasses.replace(cfg.train, seed=cfg.train.seed + seed_offset)
        meta, rep, handoff = _lane(out, mode, train_cfg)
        stages[f"train-{mode}"] = {"out": ckpt.name, "seed": train_cfg.seed,
                                   "best_epoch": meta["best_epoch"],
                                   "best_val_top1": meta["best_val_top1"]}
        stages[f"eval-{mode}"] = {"out": eval_csv.name, "top1": rep.top1, "recall": rep.recall}
        rows.append(handoff_row(mode, handoff))
    _write_csv(out / "handoff.csv", HANDOFF_HEADER, rows)
    stages["handoff-eval"] = {"out": "handoff.csv", "pairs": ds_manifest["counts"]["pairs"]}

    with _writing(out / "manifest.json"):
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
