"""Output checks for the benchmark workloads, and their self-test.

Outputs are read back through the package's public readers
(``read_split``, ``read_pairs``, ``read_trace``, ``load_checkpoint``), so a
new file format does not break the checks.  Each check returns a list of
problems; an empty list means the output passed.  Link statuses and
serving beams of a fixed sample of windows are recomputed with oracles
written apart from the package: a separating-axis segment-box test and a
per-path, per-tap channel sum followed by an exhaustive beam scan.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from beamsight.embedding import BeamEmbeddingTable, encode_dataset
from beamsight.phy import Codebook, synthesize_paths
from beamsight.pipeline import (
    camera_to_bs,
    read_manifest,
    read_pairs,
    read_split,
    read_trace,
)
from beamsight.predictor import GruPredictor, load_checkpoint

ORACLE_WINDOWS = 6     # val windows checked against the oracles, spread evenly
ORACLE_PAIRS = 2       # conjugate pairs checked against the oracles
BEAM_TIE = 1e-9        # relative power gap under which two beams tie


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def sat_blocked(p0, p1, lo, hi) -> bool:
    """Separating-axis test of a segment against a closed axis-aligned box."""
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    mid = (p0 + p1) / 2.0 - center
    d = (p1 - p0) / 2.0
    ad = np.abs(d)
    if np.any(np.abs(mid) > half + ad):
        return False
    for a, b in ((1, 2), (2, 0), (0, 1)):
        if abs(mid[a] * d[b] - mid[b] * d[a]) > half[a] * ad[b] + half[b] * ad[a]:
            return False
    return True


def oracle_status(bs, user, world) -> int:
    p0, p1 = bs.position, user.antenna_point
    for obj in world.objects:
        if obj.object_id != user.object_id:
            lo, hi = obj.center - obj.dims / 2.0, obj.center + obj.dims / 2.0
            if sat_blocked(p0, p1, lo, hi):
                return 1
    return 0


def oracle_channel(paths, ula, subcarriers, cyclic_prefix, sample_time):
    """h[k, m] summed one path and one tap at a time."""
    h = np.zeros((subcarriers, ula.elements), dtype=complex)
    k = np.arange(subcarriers)
    m = np.arange(ula.elements)
    for p in paths:
        direction = np.array([math.cos(p.elevation) * math.cos(p.azimuth),
                              math.cos(p.elevation) * math.sin(p.azimuth),
                              math.sin(p.elevation)])
        proj = float(direction @ ula.axis_vector)
        response = np.exp(1j * 2 * math.pi / ula.wavelength * ula.spacing * m * proj)
        for d in range(cyclic_prefix):
            x = d - p.delay / sample_time
            pulse = 1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x)
            phase = np.exp(-1j * 2 * math.pi * k * d / subcarriers)
            h += p.gain * pulse * np.outer(phase, response)
    return h


def beam_powers(channel, codebook) -> np.ndarray:
    return np.array([float(np.sum(np.abs(channel @ codebook.vectors[q]) ** 2))
                     for q in range(codebook.n_beams)])


# ---------------------------------------------------------------------------
# seed-pass: the dataset
# ---------------------------------------------------------------------------

def _label_problems(sample, future: int, n_beams: int, observed: int) -> list[str]:
    where = f"window {sample.key}"
    lab, seq = sample.label, sample.sequence
    problems = []
    if len(lab.window) != future:
        problems.append(f"{where}: future window has {len(lab.window)} statuses")
    nlos = [i + 1 for i, s in enumerate(lab.window) if s == 1]
    if lab.status != (1 if nlos else 0):
        problems.append(f"{where}: label {lab.status} disagrees with window {lab.window}")
    if lab.blockage_instance != (nlos[0] if nlos else None):
        problems.append(f"{where}: blockage instance {lab.blockage_instance} "
                        f"is not the first NLOS index of {lab.window}")
    if len(seq.beams) != observed or len(seq.detections) != observed:
        problems.append(f"{where}: observation is not {observed} frames long")
    if any(not 1 <= b <= n_beams for b in seq.beams):
        problems.append(f"{where}: beam outside 1..{n_beams}")
    return problems


def dataset_problems(manifest: dict, train, val, pairs) -> list[str]:
    """Label law, beam range, quota, split and pair properties."""
    future, observed = manifest["future"], manifest["observed"]
    n_beams, quota = manifest["codebook"]["beams"], manifest["quota"]
    problems = []
    for sample in train.samples + val.samples:
        problems += _label_problems(sample, future, n_beams, observed)
    groups: dict[tuple[int, int], int] = {}
    for sample in train.samples + val.samples:
        key = (sample.sequence.camera_id, sample.label.status)
        groups[key] = groups.get(key, 0) + 1
    problems += [f"camera {c} label {l}: {n} windows exceed quota {quota}"
                 for (c, l), n in sorted(groups.items()) if n > quota]
    train_keys = {s.key for s in train.samples}
    if train_keys & {s.key for s in val.samples}:
        problems.append("train and val splits share keys")
    cam1, cam2 = manifest["overlap_cameras"]
    for pair in pairs:
        s1, s2 = pair.sample_bs1, pair.sample_bs2
        where = f"pair (user {pair.user_id}, t_end {pair.t_end})"
        problems += _label_problems(s1, future, n_beams, observed)
        problems += _label_problems(s2, future, n_beams, observed)
        if (s1.sequence.camera_id, s2.sequence.camera_id) != (cam1, cam2):
            problems.append(f"{where}: cameras are not the overlap cameras")
        if {s1.key[1:], s2.key[1:]} != {(pair.user_id, pair.t_end)}:
            problems.append(f"{where}: samples of another user or time")
        if s1.label.status == s2.label.status:
            problems.append(f"{where}: statuses are not opposite")
        elif pair.category != (1 if s1.label.status == 1 else 2):
            problems.append(f"{where}: category {pair.category} does not follow "
                            f"from statuses {s1.label.status}, {s2.label.status}")
        if s1.key in train_keys or s2.key in train_keys:
            problems.append(f"{where}: train key among the pairs")
    return problems


def oracle_sample(val, pairs) -> list:
    """A fixed sample: val windows spread evenly by key, and the first pairs."""
    ordered = sorted(val.samples, key=lambda s: s.key)
    step = max(1, len(ordered) // ORACLE_WINDOWS)
    picked = ordered[::step][:ORACLE_WINDOWS]
    for pair in pairs[:ORACLE_PAIRS]:
        picked += [pair.sample_bs1, pair.sample_bs2]
    return picked


def _beam_powers(world, bs, user, scenario, codebook):
    status = oracle_status(bs, user, world)
    paths = synthesize_paths(bs, user, world, scenario.reflection_loss_db, los=status)
    channel = oracle_channel(paths, bs.ula, scenario.subcarriers,
                             scenario.cyclic_prefix, scenario.sample_time)
    return beam_powers(channel, codebook)


def oracle_problems(samples, scenario, worlds) -> list[str]:
    """Future statuses against the separating-axis oracle; serving beams
    against an exhaustive scan of the oracle channel."""
    problems = []
    codebooks = {}
    for sample in samples:
        seq = sample.sequence
        bs_id = camera_to_bs(seq.camera_id)
        where = f"window {sample.key}"
        for i, status in enumerate(sample.label.window):
            world = worlds[seq.t_end + 1 + i]
            bs = next(b for b in world.basestations if b.bs_id == bs_id)
            truth = oracle_status(bs, world.object_by_id(seq.user_id), world)
            if status != truth:
                problems.append(f"{where}: future status {i + 1} is {status}, "
                                f"the oracle says {truth}")
        first = seq.t_end - len(seq.beams) + 1
        for i, beam in enumerate(seq.beams):
            world = worlds[first + i]
            bs = next(b for b in world.basestations if b.bs_id == bs_id)
            if bs_id not in codebooks:
                codebooks[bs_id] = Codebook.build(bs.ula, scenario.beams)
            powers = _beam_powers(world, bs, world.object_by_id(seq.user_id),
                                   scenario, codebooks[bs_id])
            best = int(np.argmax(powers)) + 1
            if beam != best and powers[beam - 1] < powers[best - 1] * (1 - BEAM_TIE):
                problems.append(f"{where}: beam {beam} at frame {first + i}, "
                                f"the exhaustive scan picks {best}")
    return problems


def check_dataset(dataset_dir, trace_dir) -> list[str]:
    dataset_dir = Path(dataset_dir)
    manifest = read_manifest(dataset_dir)
    train = read_split(dataset_dir, "train")
    val = read_split(dataset_dir, "val")
    pairs = read_pairs(dataset_dir / "pairs.ndrec")
    scenario, worlds = read_trace(trace_dir)
    problems = dataset_problems(manifest, train, val, pairs)
    problems += oracle_problems(oracle_sample(val, pairs), scenario, worlds)
    problems += _self_test_dataset(manifest, train, val, pairs, scenario, worlds)
    return problems


def _self_test_dataset(manifest, train, val, pairs, scenario, worlds) -> list[str]:
    """Each corruption must be rejected, so no check passes vacuously."""
    missed = []
    flipped = replace(val, samples=[copy.deepcopy(val.samples[0]), *val.samples[1:]])
    flipped.samples[0].label.status ^= 1
    if not any("disagrees with window" in p
               for p in dataset_problems(manifest, train, flipped, pairs)):
        missed.append("a flipped label")

    sample = copy.deepcopy(oracle_sample(val, pairs)[0])
    seq = sample.sequence
    world = worlds[seq.t_end]
    bs = next(b for b in world.basestations if b.bs_id == camera_to_bs(seq.camera_id))
    powers = _beam_powers(world, bs, world.object_by_id(seq.user_id), scenario,
                           Codebook.build(bs.ula, scenario.beams))
    seq.beams[-1] = int(np.argmin(powers)) + 1
    if not oracle_problems([sample], scenario, worlds):
        missed.append("a changed serving beam")

    if pairs:
        leaked = [replace(pairs[0], sample_bs1=train.samples[0]), *pairs[1:]]
        found = dataset_problems(manifest, train, val, leaked)
        if not any("train key" in p for p in found):
            missed.append("a train key among the pairs")
    return [f"self-test: the checks accept {what}" for what in missed]


# ---------------------------------------------------------------------------
# train: histories and checkpoints
# ---------------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _number(text: str) -> float | None:
    return None if text == "undefined" else float(text)


def predictions(ckpt_path, samples) -> tuple[np.ndarray, dict]:
    """Predictions of a checkpoint read back through ``load_checkpoint``."""
    params, meta = load_checkpoint(ckpt_path)
    model = GruPredictor(input_dim=meta["input_dim"], hidden=meta["hidden"],
                         layers=meta["layers"], classes=meta["classes"],
                         dropout=0.0, params=params)
    table = BeamEmbeddingTable(meta["n_beams"], meta["embed_dim"], meta["table_seed"])
    x, _ = encode_dataset(samples, table, meta["mode"])
    return model.predict(x), meta


def history_problems(rows: list[dict], where: str) -> list[str]:
    problems = []
    for row in rows:
        for key in ("train_loss", "val_loss"):
            if not math.isfinite(float(row[key])):
                problems.append(f"{where}: {key} at epoch {row['epoch']} is not finite")
    if not float(rows[-1]["train_loss"]) < float(rows[0]["train_loss"]):
        problems.append(f"{where}: last training loss {rows[-1]['train_loss']} is not "
                        f"below the first {rows[0]['train_loss']}")
    return problems


def checkpoint_problems(preds, labels, meta: dict, where: str) -> list[str]:
    rescored = float(np.mean(preds == labels))
    if abs(rescored - meta["best_val_top1"]) > 1e-12:
        return [f"{where}: rescored val top-1 {rescored} differs from the recorded "
                f"{meta['best_val_top1']}"]
    return []


def check_training(dataset_dir, runs: dict) -> list[str]:
    """``runs`` maps a mode to its (checkpoint, history CSV) paths."""
    val = read_split(dataset_dir, "val")
    labels = np.array([s.label.status for s in val.samples])
    problems, missed = [], []
    for mode, (ckpt, history) in runs.items():
        rows = read_csv(history)
        problems += history_problems(rows, f"{mode} history")
        preds, meta = predictions(ckpt, val.samples)
        problems += checkpoint_problems(preds, labels, meta, f"{mode} checkpoint")
        diverged = copy.deepcopy(rows)
        diverged[-1]["val_loss"] = "nan"
        if not history_problems(diverged, mode):
            missed.append(f"a non-finite {mode} loss")
        stalled = copy.deepcopy(rows)
        stalled[-1]["train_loss"] = stalled[0]["train_loss"]
        if not history_problems(stalled, mode):
            missed.append(f"a {mode} training loss that did not fall")
        altered = dict(meta, best_val_top1=meta["best_val_top1"] + 1.0 / len(labels))
        if not checkpoint_problems(preds, labels, altered, mode):
            missed.append(f"an altered {mode} best val top-1")
    return problems + [f"self-test: the checks accept {what}" for what in missed]


# ---------------------------------------------------------------------------
# replay: metric and handoff tables
# ---------------------------------------------------------------------------

def _mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def _differs(reported: str, expected) -> bool:
    value = _number(reported)
    if value is None or expected is None:
        return value is not expected
    return abs(value - float(expected)) > 1e-6


def eval_problems(tables: dict, preds, samples, future: int, where: str) -> list[str]:
    """``tables`` holds the parsed summary, confusion and per-instance CSVs."""
    labels = np.array([s.label.status for s in samples])
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    tn = int(np.sum((preds == 0) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    expected = {
        "n_samples": len(samples),
        "top1": float(np.mean(preds == labels)),
        "precision": tp / (tp + fp) if tp + fp else None,
        "recall": tp / (tp + fn) if tp + fn else None,
    }
    summary = {row["metric"]: row["value"] for row in tables["summary"]}
    problems = [f"{where}: {key} {summary.get(key)} != {value}"
                for key, value in expected.items()
                if key not in summary or _differs(summary[key], value)]
    confusion = tables["confusion"][0]
    for key, value in (("tp", tp), ("fp", fp), ("tn", tn), ("fn", fn)):
        if int(confusion[key]) != value:
            problems.append(f"{where}: confusion {key} {confusion[key]} != {value}")
    instances = np.array([s.label.blockage_instance or 0 for s in samples])
    rows = {int(r["blockage_instance"]): r for r in tables["per_instance"]}
    for i in range(1, future + 1):
        idx = instances == i
        row = rows.get(i)
        if row is None or int(row["count"]) != int(idx.sum()) \
                or _differs(row["accuracy"], _mean(preds[idx] == 1)):
            problems.append(f"{where}: blockage instance {i} row {row} disagrees")
    return problems


def handoff_expected(pairs, p1, p2) -> dict:
    """Per-category accuracy under the paper's rule: hand off exactly when the
    serving link is predicted blocked and the other predicted clear; a decision
    succeeds when it equals the decision the true statuses give."""
    def hand_off(serving, other):
        return serving == 1 and other == 0

    outcomes = {1: [], 2: []}
    joint = []
    for pair, a, b in zip(pairs, p1, p2):
        s1, s2 = pair.sample_bs1.label.status, pair.sample_bs2.label.status
        if pair.category == 1:
            ok = hand_off(a, b) == hand_off(s1, s2)
        else:
            ok = hand_off(b, a) == hand_off(s2, s1)
        outcomes[pair.category].append(ok)
        joint.append(a == s1 and b == s2)
    return {
        "handoff_acc_1to2": _mean(outcomes[1]), "count_1to2": len(outcomes[1]),
        "handoff_acc_2to1": _mean(outcomes[2]), "count_2to1": len(outcomes[2]),
        "overall_acc": _mean(outcomes[1] + outcomes[2]),
        "joint_correct": _mean(joint),
    }


def handoff_problems(row: dict, expected: dict, where: str) -> list[str]:
    problems = [f"{where}: {key} {row.get(key)} != {value}"
                for key, value in expected.items()
                if key not in row or _differs(row[key], value)]
    overall, joint = _number(row["overall_acc"]), _number(row["joint_correct"])
    if overall is not None and joint is not None and overall < joint:
        problems.append(f"{where}: overall accuracy {overall} is below the "
                        f"joint-correct fraction {joint}")
    return problems


def eval_tables(summary_csv) -> dict:
    stem = Path(summary_csv).with_suffix("")
    return {"summary": read_csv(summary_csv),
            "confusion": read_csv(f"{stem}_confusion.csv"),
            "per_instance": read_csv(f"{stem}_per_instance.csv")}


def check_replay(dataset_dir, outputs: dict) -> list[str]:
    """``outputs`` maps a mode to (checkpoint, eval summary CSV, handoff CSV)."""
    dataset_dir = Path(dataset_dir)
    future = read_manifest(dataset_dir)["future"]
    val = read_split(dataset_dir, "val")
    pairs = read_pairs(dataset_dir / "pairs.ndrec")
    problems, missed = [], []
    for mode, (ckpt, eval_csv, handoff_csv) in outputs.items():
        preds, _ = predictions(ckpt, val.samples)
        problems += eval_problems(eval_tables(eval_csv), preds, val.samples, future,
                                  f"{mode} eval")
        row = read_csv(handoff_csv)[0]
        if pairs:
            p1, _ = predictions(ckpt, [p.sample_bs1 for p in pairs])
            p2, _ = predictions(ckpt, [p.sample_bs2 for p in pairs])
            expected = handoff_expected(pairs, p1, p2)
        else:
            expected = handoff_expected([], [], [])
        problems += handoff_problems(row, expected, f"{mode} handoff")
        key = "handoff_acc_1to2" if expected["count_1to2"] else "handoff_acc_2to1"
        if expected[key] is not None:
            altered = dict(row, **{key: f"{expected[key] + 0.01:.6f}"})
            if not handoff_problems(altered, expected, mode):
                missed.append(f"an altered {mode} handoff accuracy")
        tables = eval_tables(eval_csv)
        tables["confusion"][0]["tp"] = str(int(tables["confusion"][0]["tp"]) + 1)
        if not eval_problems(tables, preds, val.samples, future, mode):
            missed.append(f"an altered {mode} confusion count")
    return problems + [f"self-test: the checks accept {what}" for what in missed]
