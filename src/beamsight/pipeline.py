"""From simulated frames to balanced observed-sequence datasets.

Stages: a seed pass with one row (beam, link status) per basestation, owned
user and frame; sliding windows over each stream's run of rows, labelled by
their future link statuses; per-camera balanced sampling with a stratified
train/validation split; and conjugate pairs for the handoff evaluation.

Dataset files are newline-delimited JSON records with a fixed field order,
so identical inputs produce byte-identical files.  ``frames.ndrec`` holds
each camera frame's detections once; window records look them up there.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, scenario_from_json
from .errors import DataError
from .phy import Codebook, path_arrays, path_beams, segments_blocked
from .scene import (
    CLASS_CODES,
    CLASSES,
    USER_CLASS,
    Detection,
    DetectorNoiseModel,
    ObjectRows,
    SceneObject,
    VehicleClass,
    World,
    _detections,
    _frame_mates,
    check_object_records,
    object_rows,
    object_to_record,
    project_boxes,
    rows_from_records,
    world_from_objects,
)

log = logging.getLogger(__name__)

DETECT_STREAM = 101   # rng domain separator for per-frame detector draws
BLOCK_FRAMES = 16     # frames per seed-pass block
LINK_CHUNK = 24       # owned users per link-kernel call, which bounds their memory


def camera_to_bs(camera_id: int) -> int:
    """Cameras 1-3 belong to basestation 1, cameras 4-6 to basestation 2."""
    return 1 if camera_id <= 3 else 2


@dataclass
class Seed:
    """The seed pass's rows, one per (basestation, owned user, frame), sorted
    by (bs, camera, user, frame), so that each stream is a run of rows."""

    bs: np.ndarray
    camera: np.ndarray                 # the camera that owns the user
    user: np.ndarray
    frame: np.ndarray
    beam: np.ndarray                   # 1-based codebook index
    status: np.ndarray                 # 0 = LOS, 1 = NLOS
    detections: dict                   # (camera, frame) -> detections, owners only

    def __len__(self) -> int:
        return len(self.frame)

    def stream_ids(self) -> np.ndarray:
        """The stream of every row, counted from 0: a stream continues while
        (bs, camera, user) stays the same and the frame goes up by one."""
        # frame minus row index holds still exactly while frames go up by one
        keys = np.stack([self.bs, self.camera, self.user, self.frame - np.arange(len(self))])
        return np.cumsum(np.any(np.diff(keys, axis=1, prepend=keys[:, :1]), axis=0))


@dataclass
class ObservedSequence:
    camera_id: int
    user_id: int
    t_end: int                    # frame index of the last observed element
    beams: list[int]
    detections: list[list[Detection]]

    def __post_init__(self):
        if len(self.beams) != len(self.detections):
            raise ValueError("beams and detections must have equal length")


@dataclass
class FutureLabel:
    status: int                          # 1 when any future instance is NLOS
    window: tuple[int, ...]              # the future link statuses
    blockage_instance: int | None        # first 1-based NLOS index, if any

    def __post_init__(self):
        if self.status != (1 if any(self.window) else 0):
            raise ValueError("label inconsistent with its future window")
        first = next((i for i, nlos in enumerate(self.window, 1) if nlos), None)
        if self.blockage_instance != first:
            raise ValueError(f"instance {self.blockage_instance!r} is not the first "
                             f"NLOS index {first} of window {self.window}")


@dataclass
class LabeledSample:
    sequence: ObservedSequence
    label: FutureLabel

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.sequence.camera_id, self.sequence.user_id, self.sequence.t_end)


@dataclass
class LabeledDataset:
    samples: list[LabeledSample]
    split: str


@dataclass
class ConjugateSample:
    """Same user and time at both basestations with opposite future statuses."""

    user_id: int
    t_end: int
    sample_bs1: LabeledSample
    sample_bs2: LabeledSample
    category: int   # 1: serving bs1 needs handoff to bs2; 2: the opposite

    def __post_init__(self):
        if self.category not in (1, 2):
            raise ValueError("category must be 1 or 2")


# ---------------------------------------------------------------------------
# Seed pass and windows
# ---------------------------------------------------------------------------

def build_seed(worlds: list[World], cfg: ScenarioConfig) -> Seed:
    """seed_pass over a sequence of world states, in the first one's geometry."""
    return seed_pass(object_rows([w.objects for w in worlds]), worlds[0], cfg)


def seed_pass(rows: ObjectRows, world: World, cfg: ScenarioConfig) -> Seed:
    """The seed rows of object rows, in the geometry of ``world``.  At every
    frame, each user is owned by the basestation camera that sees it closest
    to its optical axis; the owning camera's detection list stands in for the
    frame.  Each kernel takes a block of BLOCK_FRAMES frames (with users)."""
    noise = DetectorNoiseModel(p_miss=cfg.p_miss, jitter_sigma=cfg.jitter_sigma,
                               p_false_positive=cfg.p_false_positive)
    codebooks = {bs.bs_id: Codebook.build(bs.ula, cfg.beams) for bs in world.basestations}
    rows = rows[(np.bincount(rows.frame, rows.classes == USER_CLASS) > 0)[rows.frame]]
    edges = np.flatnonzero(np.diff(rows.frame // BLOCK_FRAMES, prepend=-1, append=-1))
    blocks, owned_detections = [], {}   # blocks of (bs, camera, user, frame, beam, status)
    for lo, hi in itertools.pairwise(edges.tolist()):
        block = rows[lo:hi]
        users = np.flatnonzero(block.classes == USER_CLASS)
        bounds = np.stack([block.centers - block.dims / 2.0, block.centers + block.dims / 2.0])
        for bs in world.basestations:
            # one projection per camera feeds its detections and the ownership test:
            # the visible camera whose optical axis points closest at the user (ranking
            # by projected area starves the central camera: perspective inflates the sides)
            owner, best_align, views = np.full(len(users), -1), np.full(len(users), -2.0), []
            for cam in bs.cameras:
                views.append((cam, *project_boxes(cam, block.centers, block.dims)))
                to_user = block.centers[users] - cam.position
                align = np.vecdot(to_user, cam.rotation[2]) / np.sqrt(np.vecdot(to_user, to_user))
                better = views[-1][2][users] & (align > best_align)
                owner[better], best_align[better] = cam.camera_id, align[better]
            for cam, boxes, shown in views:
                mine = sorted(set(block.frame[users[owner == cam.camera_id]].tolist()))
                found = _detections(cam, block, boxes, shown, mine, [np.random.default_rng(
                    [cfg.seed, DETECT_STREAM, f, cam.camera_id]) for f in mine],
                    noise, cfg.min_visible_fraction)
                owned_detections.update(zip([(cam.camera_id, f) for f in mine], found))
            owned = users[owner >= 0]   # link status and beam of each, LINK_CHUNK at a time
            near = _frame_mates(block.frame)[owned]   # the object rows of each user's frame
            antennas = block.centers[owned] + block.dims[owned] * [0.0, 0.0, 0.5]
            status = segments_blocked(bs.position, antennas, *bounds[:, near],
                                      (near < 0) | (near == owned[:, None]))
            paths = path_arrays(bs, antennas, status, world, cfg.reflection_loss_db)
            try:
                beams = [path_beams(*(a[i:i + LINK_CHUNK] for a in paths), bs.ula,
                                    codebooks[bs.bs_id], cfg.cyclic_prefix, cfg.sample_time,
                                    cfg.subcarriers) for i in range(0, len(owned), LINK_CHUNK)]
            except ValueError as exc:    # a path outlasts the cyclic prefix
                raise DataError(f"{exc}: cyclic_prefix = {cfg.cyclic_prefix} is too short") from exc
            blocks.append(np.stack(np.broadcast_arrays(
                bs.bs_id, owner[owner >= 0], block.ids[owned], block.frame[owned],
                np.concatenate([np.zeros(0, dtype=int), *beams]), status)))

    table = np.concatenate([np.zeros((6, 0), dtype=int), *blocks], axis=1)
    return Seed(*table[:, np.lexsort(table[3::-1])], detections=owned_detections)


def collect_windows(seed: Seed, observed: int = 8,
                    future: int = 5) -> dict[int, list[LabeledSample]]:
    """Stride-1 windows of observed+future rows of one stream, per basestation.

    The first ``observed`` rows form the observation; the link statuses of
    the last ``future`` rows form the label: NLOS anywhere in the window
    makes the sample pivotal.  Streams shorter than the window yield none.
    """
    span = observed + future
    stream = seed.stream_ids()
    starts = np.flatnonzero(stream[:max(len(seed) - span + 1, 0)] == stream[span - 1:])
    bs, camera, user, frame, beam, status = np.stack(
        [seed.bs, seed.camera, seed.user, seed.frame, seed.beam, seed.status]).tolist()
    windows: dict[int, list[LabeledSample]] = {1: [], 2: []}
    for start in starts.tolist():
        mid = start + observed
        statuses = tuple(status[mid:start + span])
        label = 1 if any(statuses) else 0
        sequence = ObservedSequence(
            camera_id=camera[start], user_id=user[start], t_end=frame[mid - 1],
            beams=beam[start:mid],
            detections=[seed.detections[camera[start], t] for t in frame[start:mid]])
        windows.setdefault(bs[start], []).append(LabeledSample(
            sequence, FutureLabel(label, statuses, statuses.index(1) + 1 if label else None)))
    return windows


def balance_and_split(
    samples: list[LabeledSample],
    quota: int,
    split_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Per-camera balanced sampling followed by a stratified split.

    Up to ``quota`` pivotal and ``quota`` non-pivotal sequences are drawn
    per camera without replacement; stratification keeps the split
    fraction within every (camera, label) group.
    """
    if not samples:
        raise DataError("no sequences to balance")
    if quota < 0:
        raise DataError("quota must be >= 0")
    groups: dict[tuple[int, int], list[LabeledSample]] = {}
    for sample in samples:
        groups.setdefault((sample.sequence.camera_id, sample.label.status), []).append(sample)

    rng = np.random.default_rng([seed, 1])
    train: list[LabeledSample] = []
    val: list[LabeledSample] = []
    for key in sorted(groups):
        group = groups[key]
        take = min(quota, len(group))
        if take < quota:
            log.warning("camera %d label %d: only %d of %d requested sequences",
                        key[0], key[1], len(group), quota)
        if take == 0:
            continue
        chosen = rng.choice(len(group), size=take, replace=False)
        picked = [group[i] for i in chosen]
        n_train = int(round(take * split_fraction))
        train.extend(picked[:n_train])
        val.extend(picked[n_train:])
    return LabeledDataset(train, "train"), LabeledDataset(val, "val")


def conjugate_pairs(
    windows_bs1: list[LabeledSample],
    windows_bs2: list[LabeledSample],
    overlap_cameras: tuple[int, int] = (3, 4),
    exclude_keys: frozenset | set = frozenset(),
) -> list[ConjugateSample]:
    """Join same-user, same-time windows with opposite future statuses.

    Only windows from the overlap cameras participate; keys listed in
    ``exclude_keys`` (train-split membership) are dropped before joining.
    """
    cam1, cam2 = overlap_cameras

    def index(windows, camera):
        table = {}
        for sample in windows:
            if sample.sequence.camera_id != camera or sample.key in exclude_keys:
                continue
            table[(sample.sequence.user_id, sample.sequence.t_end)] = sample
        return table

    index1 = index(windows_bs1, cam1)
    index2 = index(windows_bs2, cam2)
    pairs: list[ConjugateSample] = []
    for key in sorted(index1.keys() & index2.keys()):
        s1, s2 = index1[key], index2[key]
        if s1.label.status == s2.label.status:
            continue
        category = 1 if s1.label.status == 1 else 2
        pairs.append(ConjugateSample(
            user_id=key[0], t_end=key[1],
            sample_bs1=s1, sample_bs2=s2, category=category,
        ))
    return pairs


# ---------------------------------------------------------------------------
# Record (de)serialization
# ---------------------------------------------------------------------------

def sample_to_record(sample: LabeledSample) -> dict:
    seq, lab = sample.sequence, sample.label
    return {
        "camera": seq.camera_id,
        "user": seq.user_id,
        "t_end": seq.t_end,
        "beams": seq.beams,
        "label": lab.status,
        "window": list(lab.window),
        "instance": lab.blockage_instance,
    }


def record_to_sample(record: dict, frames: dict) -> LabeledSample:
    integers = (record["camera"], record["user"], record["t_end"], record["label"],
                *record["beams"], *record["window"])
    if not all(type(v) is int for v in integers):
        raise TypeError("camera, user, t_end, label, beams and window must be integers")
    first = record["t_end"] - len(record["beams"]) + 1
    sequence = ObservedSequence(
        camera_id=record["camera"],
        user_id=record["user"],
        t_end=record["t_end"],
        beams=list(record["beams"]),
        detections=[frames[record["camera"], t] for t in range(first, record["t_end"] + 1)],
    )
    label = FutureLabel(record["label"], tuple(record["window"]), record["instance"])
    return LabeledSample(sequence, label)


def pair_to_record(pair: ConjugateSample) -> dict:
    return {
        "user": pair.user_id,
        "t_end": pair.t_end,
        "category": pair.category,
        "bs1": sample_to_record(pair.sample_bs1),
        "bs2": sample_to_record(pair.sample_bs2),
    }


def record_to_pair(record: dict, frames: dict) -> ConjugateSample:
    """The pair a record holds; its category must name its one NLOS side."""
    pair = ConjugateSample(
        user_id=record["user"],
        t_end=record["t_end"],
        sample_bs1=record_to_sample(record["bs1"], frames),
        sample_bs2=record_to_sample(record["bs2"], frames),
        category=record["category"],
    )
    s1, s2 = pair.sample_bs1.label.status, pair.sample_bs2.label.status
    if s1 == s2 or pair.category != (1 if s1 == 1 else 2):
        raise ValueError(f"category {pair.category} does not fit statuses bs1 {s1}, bs2 {s2}")
    cameras = [s.sequence.camera_id for s in (pair.sample_bs1, pair.sample_bs2)]
    if [camera_to_bs(c) for c in cameras] != [1, 2]:
        raise ValueError(f"cameras {cameras} of its bs1, bs2 sides are not of basestations 1, 2")
    sides = {(s.user_id, s.t_end) for s in (pair.sample_bs1.sequence, pair.sample_bs2.sequence)}
    if sides != {(pair.user_id, pair.t_end)}:
        raise ValueError(f"user, t_end {pair.user_id, pair.t_end} are not its sides' {sides}")
    return pair


def _read_frames(dataset_dir: Path) -> dict:
    def parse(record):
        if type(record["camera"]) is not int or type(record["frame"]) is not int:
            raise TypeError("camera and frame must be integers")
        # Detection checks the ranges, which true and false pass as 1 and 0
        if bool in set(map(type, itertools.chain.from_iterable(record["detections"]))):
            raise TypeError("a detection holds true or false")
        return (record["camera"], record["frame"]), [
            Detection(CLASSES[CLASS_CODES[c]], (x1, y1, x2, y2), confidence)
            for c, x1, y1, x2, y2, confidence in record["detections"]]

    return dict(_read_ndjson(dataset_dir / "frames.ndrec", parse, key=lambda item: item[0]))


def _write_ndjson(path: Path, records) -> None:
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")


def _read_ndjson(path: Path, parse, key=None, seen=None) -> list:
    """``parse`` of each record; a bad line, or one whose ``key`` is already in
    ``seen`` (key -> line, shared across files), raises DataError naming it."""
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    parsed, seen = [], {} if seen is None else seen
    with path.open() as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                parsed.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {number} is not JSON: {exc}") from exc
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: line {number} is not a valid record: "
                                f"{exc!r}") from exc
            if key is not None:
                if (k := key(parsed[-1])) in seen:
                    raise DataError(f"{path}: line {number} repeats key {k} of {seen[k]}")
                seen[k] = f"{path}: line {number}"
    return parsed


def write_dataset(out_dir, train: LabeledDataset, val: LabeledDataset,
                  pairs: list[ConjugateSample], manifest: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    windows = [*train.samples, *val.samples,
               *(s for p in pairs for s in (p.sample_bs1, p.sample_bs2))]
    frames: dict[tuple[int, int], list[Detection]] = {}
    for seq in (w.sequence for w in windows):
        for t, detections in enumerate(seq.detections, seq.t_end - len(seq.beams) + 1):
            frames.setdefault((seq.camera_id, t), detections)
    _write_ndjson(out / "frames.ndrec", (
        {"camera": camera, "frame": frame,
         "detections": [[d.object_class.value, *d.bbox, d.confidence] for d in detections]}
        for (camera, frame), detections in sorted(frames.items())))
    _write_ndjson(out / "train.ndrec", (sample_to_record(s) for s in train.samples))
    _write_ndjson(out / "val.ndrec", (sample_to_record(s) for s in val.samples))
    _write_ndjson(out / "pairs.ndrec", (pair_to_record(p) for p in pairs))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_splits(dataset_dir, *splits: str) -> list[LabeledDataset]:
    """The named splits; ``frames.ndrec`` is parsed once and its detection
    lists are shared by every window that observes the frame."""
    frames, seen = _read_frames(Path(dataset_dir)), {}
    return [LabeledDataset(_read_ndjson(Path(dataset_dir) / f"{split}.ndrec",
                                        lambda r: record_to_sample(r, frames),
                                        key=lambda s: s.key, seen=seen), split)
            for split in splits]


def read_split(dataset_dir, split: str) -> LabeledDataset:
    return read_splits(dataset_dir, split)[0]


def read_pairs(path) -> list[ConjugateSample]:
    frames = _read_frames(Path(path).parent)
    return _read_ndjson(Path(path), lambda r: record_to_pair(r, frames),
                        key=lambda p: (p.user_id, p.t_end))


def read_manifest(dataset_dir) -> dict:
    """The dataset manifest; the codebook size and the observed and future
    window lengths are checked, since training and evaluation size by them."""
    path = Path(dataset_dir) / "manifest.json"
    if not path.is_file():
        raise DataError(f"missing manifest: {path}")
    try:
        manifest = json.loads(path.read_text())
        sizes = (manifest["codebook"]["beams"], manifest["observed"], manifest["future"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a dataset manifest: {exc!r}") from exc
    if not all(type(v) is int and v > 0 for v in sizes):
        raise DataError(f"{path}: codebook.beams, observed and future must be "
                        f"positive integers, got {sizes}")
    return manifest


# ---------------------------------------------------------------------------
# Trace (simulate stage output)
# ---------------------------------------------------------------------------

def write_trace(trace_dir, cfg: ScenarioConfig, runs: list[tuple]) -> None:
    """The trace of ``runs``, (objects, centres (frames, objects, 3)) pairs in frame
    order; each line is formatted directly, since a finite float's JSON is its repr."""
    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format": 1, "frames": sum(len(centers) for _, centers in runs),
                "scenario": dataclasses.asdict(cfg)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    frame = itertools.count()
    with (out / "frames.ndjson").open("w") as fh:
        for objects, centers in runs:
            line = '{"frame":%d,"objects":[' + ",".join(
                '[%d,"%s",%%r,%%r,%%r,%r,%r,%r,%r,%r,%r,%d]' % (r[0], r[1], *r[5:])
                for r in map(object_to_record, objects)) + "]}\n"
            fh.writelines(line % (next(frame), *row)
                          for row in centers.reshape(len(centers), -1).tolist())


def _read_trace(trace_dir) -> tuple[ScenarioConfig, World, list[list]]:
    """A trace's config, geometry (a world without objects) and checked records."""
    manifest_path = Path(trace_dir) / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"not a trace directory: {trace_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        scenario, frames = manifest["scenario"], manifest["frames"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{manifest_path}: not a trace manifest: {exc!r}") from exc
    cfg = scenario_from_json(manifest_path, scenario)
    lines = itertools.count()

    def objects(record):
        if (i := next(lines)) != record["frame"] or type(record["frame"]) is not int:
            raise ValueError(f"frame {record['frame']!r} where frame {i} belongs")
        check_object_records(record["objects"])
        return record["objects"]

    path = Path(trace_dir) / "frames.ndjson"
    records = _read_ndjson(path, objects)
    if not records or len(records) != frames:
        raise DataError(f"{path}: {len(records)} frame lines, {manifest_path} says {frames}")
    return cfg, world_from_objects(cfg, []), records


def read_trace_rows(trace_dir) -> tuple[ScenarioConfig, World, ObjectRows]:
    """A trace's config, geometry and objects as rows sorted by (frame, id)."""
    cfg, world, records = _read_trace(trace_dir)
    return cfg, world, rows_from_records(records)


def read_trace(trace_dir) -> tuple[ScenarioConfig, list[World]]:
    """A trace's config and world states, which share one geometry, as step_world's do."""
    cfg, world, records = _read_trace(trace_dir)
    return cfg, [dataclasses.replace(world, objects=[SceneObject(
        r[0], VehicleClass(r[1]), r[2:5], r[5:8], r[8:11], r[11]) for r in frame])
        for frame in records]
