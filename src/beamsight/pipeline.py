"""From simulated frames to balanced observed-sequence datasets.

Stages: a seed pass with one row (beam, link status) per basestation, owned
user and frame; sliding windows over each stream's run of rows, labelled by
their future link statuses; per-camera balanced sampling with a stratified
train/validation split; and conjugate pairs for the handoff evaluation.
The basestations share nothing in the seed pass, so where the CPUs allow,
basestation 2's half runs in one forked child at the same time as basestation
1's; the Seed, and so every file, is the same at any process count.

A window is one record from the seed pass to the files: a row of the one
``WindowTable`` of a build, whose frame rows index the seed's ``FrameTable``
(``scene``); detections stay columns from the detector to the files, which
identical inputs make byte-identical.  Every array file is ``.npy`` columns,
one ``np.save`` array after another: ``frames.cols`` the observed frames'
``FrameTable``, box corners as float32; ``train.ndrec`` and ``val.ndrec`` a
window group each (key, beams and future statuses); ``pairs.ndrec`` the bs1
group, then the bs2 group; a trace's ``trace.cols`` its objects once and
every frame's centres.  One reader, ``_read``, checks each column's
header and views its rows in place; every check runs on whole columns, and
an error names the file, the check and the first row at fault.  The object
types (``LabeledSample``, ``ConjugateSample`` and their parts) are a read
view of the tables, kept for the benchmark checks and tests.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import logging
import math
import os
import pickle
import signal
import tokenize
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import config
from .config import MAX_BEAMS, MAX_FRAMES, ScenarioConfig, scenario_from_json
from .errors import DataError
from .phy import Codebook, path_arrays, path_beams, segments_blocked
from .scene import (
    CLASS_CODES,
    CLASSES,
    USER_CLASS,
    Detection,
    DetectorNoiseModel,
    FrameTable,
    ObjectRows,
    SceneObject,
    World,
    _detections,
    _frame_mates,
    object_rows,
    project_boxes,
    world_from_objects,
)

log = logging.getLogger(__name__)

DETECT_STREAM = 101   # rng domain separator for per-frame detector draws
BLOCK_FRAMES = 16     # frames per seed-pass block
LINK_CHUNK = 24       # owned users per link-kernel call, which bounds their memory
# the files of a dataset directory, beside its manifest.json (the .ndrec names
# are those of an earlier text layout; the files hold .npy columns)
FRAMES_FILE, PAIRS_FILE = "frames.cols", "pairs.ndrec"
SPLIT_FILES = {"train": "train.ndrec", "val": "val.ndrec"}
DATASET_FILES = (FRAMES_FILE, *SPLIT_FILES.values(), PAIRS_FILE)
TRACE_FILE, TRACE_FORMAT = "trace.cols", 3   # beside a trace's manifest.json, which names the format
# The .npy columns of each file in order: name, dtype and the shape of a row
# (None: any length, the same in every row).
_FRAME_COLUMNS = (("camera", "<i8", ()), ("frame", "<i8", ()), ("count", "<i8", ()),
                  ("classes", "|i1", ()), ("boxes", "<f4", (4,)), ("confidence", "<f8", ()))
# beams hold 1-based codebook indices, hence config.MAX_BEAMS
_WINDOW_COLUMNS = (("camera", "<i8", ()), ("user", "<i8", ()), ("t_end", "<i8", ()),
                   ("beams", "<i2", (None,)), ("future", "|i1", (None,)))
_PAIR_COLUMNS = tuple((f"{side} {name}", dtype, row) for side in ("bs1", "bs2")
                      for name, dtype, row in _WINDOW_COLUMNS)
# the objects once, in ascending id order; then every frame's centres, in that order
_TRACE_COLUMNS = (("ids", "<i8", ()), ("classes", "|i1", ()), ("dims", "<f8", (3,)),
                  ("velocities", "<f8", (3,)), ("lanes", "<i8", ()), ("centers", "<f8", (3,)))


def camera_to_bs(camera_id):
    """Cameras 1-3 belong to basestation 1, cameras 4-6 to basestation 2 (of
    an int, or elementwise of an array)."""
    return 1 + (camera_id > 3)


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
    frames: FrameTable                 # the owning cameras' frames, by (camera, frame)
    processes: int = 1                 # how many computed it (a log figure, never written)

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


@dataclass
class WindowTable:
    """Windows as columns, one row per window: camera, user and t_end (n,), the
    observed beams (n, r) and the future link statuses (n, f).  Once
    ``observe`` has looked up their frames, ``frame_rows`` (n, r) index ``frames``."""

    camera: np.ndarray
    user: np.ndarray
    t_end: np.ndarray
    beams: np.ndarray
    future: np.ndarray
    frames: FrameTable | None = None
    frame_rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.camera)

    @property
    def label(self) -> np.ndarray:
        """1 where any future status is NLOS."""
        return np.any(self.future != 0, axis=1).astype(np.int64)

    @property
    def instance(self) -> np.ndarray:
        """The 1-based index of the first NLOS status, 0 where there is none."""
        nlos = np.concatenate([self.future != 0, np.ones((len(self), 1), dtype=bool)], axis=1)
        first = nlos.argmax(axis=1) + 1
        return np.where(first < nlos.shape[1], first, 0)

    def keys(self) -> list[tuple[int, int, int]]:
        return list(zip(self.camera.tolist(), self.user.tolist(), self.t_end.tolist()))

    def take(self, rows) -> "WindowTable":
        """The windows ``rows`` (an index array, mask or slice), in that order,
        observing the same frame table."""
        return WindowTable(self.camera[rows], self.user[rows], self.t_end[rows], self.beams[rows],
                           self.future[rows], self.frames,
                           None if self.frame_rows is None else self.frame_rows[rows])

    @classmethod
    def of(cls, windows) -> "WindowTable":
        """``windows``, or LabeledSamples as a table whose frame rows index a
        FrameTable of their distinct detection lists (by identity), in order
        of first appearance."""
        if isinstance(windows, cls):
            return windows
        sequences = [s.sequence for s in windows]
        keys = [(q.camera_id, q.user_id, q.t_end) for q in sequences]
        lists: dict[int, tuple] = {}
        for q in sequences:
            for t, detections in enumerate(q.detections, q.t_end - len(q.detections) + 1):
                lists.setdefault(id(detections), (q.camera_id, t, detections))
        row = dict(zip(lists, itertools.count()))
        beams = _rectangle([q.beams for q in sequences], keys.__getitem__, _BEAMS_DIFFER)
        return cls(*np.array(keys, dtype=np.int64).reshape(-1, 3).T, beams,
                   _rectangle([s.label.window for s in windows], keys.__getitem__,
                              _FUTURE_DIFFERS),
                   FrameTable.of(list(lists.values())),
                   np.array([[row[id(d)] for d in q.detections] for q in sequences],
                            dtype=np.int64).reshape(beams.shape))


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
    frame.  Each kernel takes a block of BLOCK_FRAMES frames (with users).

    The basestations share nothing here, so where ``os.fork`` exists and
    ``config.cpu_workers()`` gives 2, the first one's blocks run in this
    process and the others' in one forked child at the same time; the results
    are put back in block order, so the Seed is the same at any process count.
    ``Seed.processes`` says which ran."""
    noise = DetectorNoiseModel(p_miss=cfg.p_miss, jitter_sigma=cfg.jitter_sigma,
                               p_false_positive=cfg.p_false_positive)
    codebooks = {bs.bs_id: Codebook.build(bs.ula, cfg.beams) for bs in world.basestations}
    rows = rows[(np.bincount(rows.frame, rows.classes == USER_CLASS) > 0)[rows.frame]]
    edges = np.flatnonzero(np.diff(rows.frame // BLOCK_FRAMES, prepend=-1, append=-1))
    blocks = [rows[lo:hi] for lo, hi in itertools.pairwise(edges.tolist())]

    def side(basestations):   # per block, each basestation's (rows, camera frames)
        return [[_seed_block(block, bs, codebooks[bs.bs_id], world, cfg, noise)
                 for bs in basestations] for block in blocks]

    first, *others = world.basestations
    if blocks and others and hasattr(os, "fork") and config.cpu_workers() > 1:
        mine, theirs = _forked(lambda: side(others), lambda: side([first]))
        per_block, processes = [a + b for a, b in zip(mine, theirs)], 2
    else:
        per_block, processes = side(world.basestations), 1
    parts = [part for block in per_block for part in block]   # block first, basestation second
    table = np.concatenate([np.zeros((6, 0), dtype=int), *(p[0] for p in parts)], axis=1)
    # one table per block and camera: stably sorted by camera, the frames go up within each
    frames = concat(sorted((t for p in parts for t in p[1]), key=lambda t: t.camera[:1].tolist())
                    or [FrameTable.of([])])
    return Seed(*table[:, np.lexsort(table[3::-1])], frames=frames, processes=processes)


def _seed_block(block: ObjectRows, bs, codebook: Codebook, world: World, cfg: ScenarioConfig,
                noise: DetectorNoiseModel) -> tuple[np.ndarray, list[FrameTable]]:
    """One basestation's seed rows (bs, camera, user, frame, beam, status) of
    one block, and one FrameTable per camera of the frames it owns a user in."""
    users = np.flatnonzero(block.classes == USER_CLASS)
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
    frames = []
    for cam, boxes, shown in views:
        mine = sorted(set(block.frame[users[owner == cam.camera_id]].tolist()))
        frames.append(_detections(cam, block, boxes, shown, mine, [np.random.default_rng(
            [cfg.seed, DETECT_STREAM, f, cam.camera_id]) for f in mine],
            noise, cfg.min_visible_fraction))
    owned = users[owner >= 0]   # link status and beam of each, LINK_CHUNK at a time
    near = _frame_mates(block.frame)[owned]   # the object rows of each user's frame
    antennas = block.centers[owned] + block.dims[owned] * [0.0, 0.0, 0.5]
    bounds = np.stack([block.centers - block.dims / 2.0, block.centers + block.dims / 2.0])
    status = segments_blocked(bs.position, antennas, *bounds[:, near],
                              (near < 0) | (near == owned[:, None]))
    paths = path_arrays(bs, antennas, status, world, cfg.reflection_loss_db)
    try:
        beams = [path_beams(*(a[i:i + LINK_CHUNK] for a in paths), bs.ula, codebook,
                            cfg.cyclic_prefix, cfg.sample_time, cfg.subcarriers)
                 for i in range(0, len(owned), LINK_CHUNK)]
    except ValueError as exc:    # a path outlasts the cyclic prefix
        raise DataError(f"{exc}: cyclic_prefix = {cfg.cyclic_prefix} is too short") from exc
    return np.stack(np.broadcast_arrays(
        bs.bs_id, owner[owner >= 0], block.ids[owned], block.frame[owned],
        np.concatenate([np.zeros(0, dtype=int), *beams]), status)), frames


def _forked(child, parent):
    """``(parent(), child())``, with ``child()`` run at the same time in a forked
    child that sends its result, or its exception, back pickled over a pipe and
    ends with ``os._exit`` (no atexit handlers, no stdio flush).  An exception
    is raised here as its own type and message; a child that dies without a
    result is an error naming its exit status.  No child outlives the call.
    The only threads here are OpenBLAS's, and it stops them around a fork: the
    package starts no Python thread."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                result = child()
            except BaseException as exc:   # the parent raises it
                result = exc
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            mine, sent = parent(), pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not sent:
        raise ChildProcessError(f"seed pass: the child process ended with exit status "
                                f"{code} and no result")
    theirs = pickle.loads(sent)
    if isinstance(theirs, BaseException):
        raise theirs
    return mine, theirs


def collect_windows(seed: Seed, observed: int = 8, future: int = 5) -> WindowTable:
    """Stride-1 windows of observed+future rows of one stream, in seed row
    order, observed in ``seed.frames``.

    The first ``observed`` rows form the observation; the link statuses of
    the last ``future`` rows form the label: NLOS anywhere in the window
    makes the sample pivotal.  Streams shorter than the window yield none.
    """
    span = observed + future
    stream = seed.stream_ids()
    starts = np.flatnonzero(stream[:max(len(seed) - span + 1, 0)] == stream[span - 1:])
    seen, ahead = np.split(starts[:, None] + np.arange(span), [observed], axis=1)
    frame_rows = _frame_rows(seed.frames, seed.camera[starts, None], seed.frame[seen])
    return WindowTable(seed.camera[starts], seed.user[starts], seed.frame[seen[:, -1]],
                       seed.beam[seen], seed.status[ahead], seed.frames, frame_rows)


def _frame_rows(frames: FrameTable, camera, frame) -> np.ndarray:
    """The row of ``frames``, whose (camera, frame) keys strictly ascend, of each
    (camera, frame) key, or -1 where it has none: one int per key, in key order,
    looked up by ``np.searchsorted``.  Cameras are 1..6 and frames below 2**32."""
    stride = int(frames.frame.max(initial=0)) + 1
    keys = np.append(frames.camera * stride + frames.frame, np.iinfo(np.int64).max)
    wanted = camera * stride + frame
    wanted[(frame < 0) | (frame >= stride)] = -1
    rows = np.searchsorted(keys, wanted)
    rows[keys[rows] != wanted] = -1
    return rows


def balance_and_split(
    windows: WindowTable,
    quota: int,
    split_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[WindowTable, WindowTable]:
    """Per-camera balanced sampling followed by a stratified split.

    Up to ``quota`` pivotal and ``quota`` non-pivotal sequences are drawn
    per camera without replacement; stratification keeps the split
    fraction within every (camera, label) group.
    """
    if not len(windows):
        raise DataError("no sequences to balance")
    if quota < 0:
        raise DataError("quota must be >= 0")
    label = windows.label
    rng = np.random.default_rng([seed, 1])
    train, val = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for camera, status in sorted(set(zip(windows.camera.tolist(), label.tolist()))):
        group = np.flatnonzero((windows.camera == camera) & (label == status))
        take = min(quota, len(group))
        if take < quota:
            log.warning("camera %d label %d: only %d of %d requested sequences",
                        camera, status, len(group), quota)
        if take == 0:
            continue
        picked = group[rng.choice(len(group), size=take, replace=False)]
        n_train = int(round(take * split_fraction))
        train.append(picked[:n_train])
        val.append(picked[n_train:])
    return windows.take(np.concatenate(train)), windows.take(np.concatenate(val))


def conjugate_pairs(
    windows: WindowTable,
    overlap_cameras: tuple[int, int] = (3, 4),
    exclude_keys: frozenset | set = frozenset(),
) -> tuple[WindowTable, WindowTable, np.ndarray]:
    """Join same-user, same-time windows of the two overlap cameras (one of
    each basestation) with opposite future statuses into the bs1 and bs2
    windows and the categories of the pairs (as ``read_pair_table`` gives
    them), in (user, t_end) order.

    Keys listed in ``exclude_keys`` (train-split membership) are dropped
    before joining.  A category is 1 where serving bs1 needs a handoff to
    bs2, else 2.
    """
    def index(camera):
        rows = np.flatnonzero(windows.camera == camera).tolist()
        return {(u, t): r for r, u, t in zip(rows, windows.user[rows].tolist(),
                                             windows.t_end[rows].tolist())
                if (camera, u, t) not in exclude_keys}

    index1, index2 = map(index, overlap_cameras)
    common = sorted(index1.keys() & index2.keys())
    rows1, rows2 = (np.array([i[key] for key in common], dtype=np.int64) for i in (index1, index2))
    label1 = windows.label[rows1]
    differ = label1 != windows.label[rows2]
    return windows.take(rows1[differ]), windows.take(rows2[differ]), 2 - label1[differ]


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

_BEAMS_DIFFER = "window {} has {} beams, window {} has {}: one beam index per observed frame"
_FUTURE_DIFFERS = "window {} labels {} future frames, window {} labels {} future frames"


def _require(ok, message: str) -> None:
    """A ValueError of ``message`` unless all of ``ok``; where ``ok`` holds a
    value (or a row of values) per row of a column, it names the first row that fails."""
    if not np.all(ok):
        if np.ndim(ok):
            message += f", first at row {int(np.argwhere(np.logical_not(ok))[0, 0])}"
        raise ValueError(message)


def _rectangle(rows: list, key, differ: str) -> np.ndarray:
    """Equal-length int ``rows`` as an (n, m) array; a row whose length is not
    the first row's raises a ValueError, ``differ`` naming both windows."""
    lengths = list(map(len, rows))
    if lengths.count(m := lengths[0] if rows else 0) != len(rows):
        i = next(i for i, n in enumerate(lengths) if n != m)
        raise ValueError(differ.format(key(i), lengths[i], key(0), m))
    return np.array(rows, dtype=np.int64).reshape(len(rows), m)


def concat(parts: list):
    """One table of ``parts``, tables of consecutive rows; a field that is one
    object in every part (no frame table, or one shared) stays as it is."""
    first = parts[0]
    if all(p is first for p in parts):
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return type(first)(*(concat([getattr(p, f.name) for p in parts])
                         for f in dataclasses.fields(first)))


def _save(path: Path, columns, *tables) -> None:
    """The ``columns`` of each of ``tables`` in turn as ``path``, one ``np.save`` after another."""
    with path.open("wb") as fh:
        for table in tables:
            for name, dtype, _ in columns:
                np.save(fh, np.asarray(getattr(table, name), dtype))


def _read(path: Path, table, columns):
    """``table`` of the ``columns`` of ``path``, read by ``_column``; a defect of
    the file, or one that ``table`` finds, is a DataError naming the file and the check."""
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    fh = io.BytesIO(data := path.read_bytes())
    try:
        found = [_column(fh, data, *column) for column in columns]
        _require(fh.tell() == len(data), f"{len(data) - fh.tell()} bytes follow the last column")
        return table(*found)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _column(fh: io.BytesIO, data: bytes, name: str, dtype: str, row: tuple) -> np.ndarray:
    """The ``np.save`` array (.npy 1.0) at ``fh``'s place in ``data``, which ``fh``
    then moves past: ``dtype``, C order, rows of shape ``row`` (None: any length),
    and whole in ``data``, which it views without a copy."""
    try:
        if (version := np.lib.format.read_magic(fh)) != (1, 0):
            raise ValueError(f"version {version}")
        with warnings.catch_warnings():   # a garbled header can be Python text that warns
            warnings.simplefilter("ignore")
            shape, fortran, found = np.lib.format.read_array_header_1_0(fh)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:   # garbled
        raise ValueError(f"{name} column: not a .npy header: {exc}") from exc
    if (found.str != dtype or fortran or len(shape) != 1 + len(row) or min(shape) < 0
            or any(n not in (None, m) for n, m in zip(row, shape[1:]))):
        raise ValueError(f"{name} column: {found.str} of shape {shape}, not {dtype} of shape "
                         f"{('n', *row)}")
    if (width := math.prod(shape[1:]) * found.itemsize) > len(data):
        raise ValueError(f"{name} column: a row of shape {shape[1:]} is longer than the file")
    if width == 0 < shape[0]:   # no writer makes them; numpy cannot view 2**62 of them
        raise ValueError(f"{name} column: {shape[0]} rows of shape {shape[1:]} hold no values")
    if shape[0] * width > len(data) - fh.tell():
        raise ValueError(f"{name} column: {shape[0]} rows do not fit in the file")
    column = np.frombuffer(data, dtype, math.prod(shape), fh.tell()).reshape(shape)
    fh.seek(column.nbytes, io.SEEK_CUR)
    return column


def write_dataset(out_dir, train: WindowTable, val: WindowTable, pairs: tuple,
                  manifest: dict) -> None:
    """The dataset files of train and val windows and the (bs1, bs2, category)
    pairs of ``conjugate_pairs``, all observed in one frame table in (camera,
    frame) order, as ``collect_windows`` makes it (a category, 2 - its bs1
    label, is not written).  Each file is columns, each through ``np.save``:
    ``frames.cols`` the frames the windows observe, a box corner as its nearest
    float32, the model's precision, moved one float32 step outward where a
    box's corners would meet; a split file its windows; ``pairs.ndrec`` the bs1
    windows, then the bs2 windows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bs1, bs2, _ = pairs
    used = np.zeros(len(train.frames), dtype=bool)
    for windows in (train, val, bs1, bs2):
        if windows.frames is not train.frames:
            raise ValueError("the windows to write observe different frame tables")
        used[windows.frame_rows] = True
    frames = train.frames.take(np.flatnonzero(used))
    frames.boxes = frames.boxes.astype(np.float32)
    low, high = frames.boxes[:, :2], frames.boxes[:, 2:]   # views: (x1, y1) and (x2, y2)
    down, up = (low == high) & (low > 0), (low == high) & (low == 0)
    low[down], high[up] = np.nextafter(low[down], -1), np.nextafter(high[up], 1)
    _save(out / FRAMES_FILE, _FRAME_COLUMNS, frames)
    for split, windows in (("train", train), ("val", val)):
        _save(out / SPLIT_FILES[split], _WINDOW_COLUMNS, windows)
    _save(out / PAIRS_FILE, _WINDOW_COLUMNS, bs1, bs2)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_frames(dataset_dir) -> FrameTable:
    """The ``frames.cols`` of a dataset directory, its boxes as float64, every
    check made in bulk; a defect is a DataError naming the file and the check."""
    return _read(Path(dataset_dir) / FRAMES_FILE, _frames, _FRAME_COLUMNS)


def _frames(camera, frame, count, classes, boxes, confidence) -> FrameTable:
    """The frame table of the columns of ``frames.cols``, every check made in bulk."""
    n = len(classes)
    _require(len(camera) == len(frame) == len(count) and len(boxes) == len(confidence) == n,
             "the columns of frames, or of detections, differ in length")
    _require((1 <= camera) & (camera <= 6), "a camera outside 1..6")
    _require((0 <= frame) & (frame < 2**32), "a frame number outside 0..2**32 - 1")
    _require((0 <= count) & (count <= n), "a count below 0 or above the detection rows")
    _require(count.sum() == n, f"the counts sum to {count.sum()}, not the {n} detection rows")
    _require((0 <= classes) & (classes < len(CLASSES)), "an unknown class code")
    x1, y1, x2, y2 = boxes.T
    _require((0 <= x1) & (x1 < x2) & (x2 <= 1) & (0 <= y1) & (y1 < y2) & (y2 <= 1),
             "a box not within 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1")   # NaN fails too
    _require((0 <= confidence) & (confidence <= 1), "a confidence outside [0, 1]")
    up = (camera[1:] > camera[:-1]) | (camera[1:] == camera[:-1]) & (frame[1:] > frame[:-1])
    if not up.all():
        i = int(up.argmin()) + 1
        raise ValueError(f"the (camera, frame) key {(int(camera[i]), int(frame[i]))} of frame {i} "
                         f"repeats or is below the one before: the keys must ascend")
    return FrameTable(camera, frame, count, classes.astype(np.int64),
                      boxes.astype(np.float64), confidence)


def _windows(camera, user, t_end, beams, future) -> WindowTable:
    """The table of the columns of a window group, its beams and statuses as
    int64, every check made in bulk."""
    _require(len(camera) == len(user) == len(t_end) == len(beams) == len(future),
             "the columns of windows differ in length")
    _require((1 <= camera) & (camera <= 6), "a camera outside 1..6")
    _require((future == 0) | (future == 1),
             "a future link status other than 0 (LOS) or 1 (NLOS)")
    return WindowTable(camera, user, t_end, beams.astype(np.int64), future.astype(np.int64))


def _pairs(*columns) -> tuple[WindowTable, WindowTable, np.ndarray]:
    """The bs1 and bs2 windows of the two window groups of a pair file and the
    categories of the pairs, 2 - the bs1 side's label, every check made in bulk."""
    bs1, bs2 = _windows(*columns[:5]), _windows(*columns[5:])
    _require(len(bs1) == len(bs2), f"{len(bs1)} bs1 and {len(bs2)} bs2 windows: a pair has one of each")
    _require(bs1.label != bs2.label, "the statuses of its bs1, bs2 sides are equal: no category")
    _require((camera_to_bs(bs1.camera) == 1) & (camera_to_bs(bs2.camera) == 2),
             "the cameras of its bs1, bs2 sides are not of basestations 1, 2")
    _require((bs1.user == bs2.user) & (bs1.t_end == bs2.t_end),
             "user, t_end differ between its sides")
    return bs1, bs2, 2 - bs1.label


def _repeats(path: Path, table, keys, seen: list):
    """``table``, read from ``path``, unless a key of it (a row of the int columns
    ``keys(table)``) is that of an earlier row, of ``path`` or of a file of
    ``seen``, (path, key columns) pairs that ``path`` then joins: a DataError
    naming both rows.  One stable sort finds a repeat."""
    seen.append((path, np.stack(keys(table))))
    every = np.concatenate([k for _, k in seen], axis=1)
    order = np.lexsort(every[::-1])   # stable: a key's first row leads its run
    again = order[1:][np.all(np.diff(every[:, order]) == 0, axis=0)]
    if len(again):   # the first row to repeat a key (of path), and that key's first row
        key = every[:, again.min()]
        i, j = int(again.min()) - every.shape[1] + seen[-1][1].shape[1], int(
            np.all(every == key[:, None], axis=0).argmax())
        for other, k in seen:   # the file of row j
            if j < k.shape[1]:
                break
            j -= k.shape[1]
        raise DataError(f"{path}: row {i} repeats key {tuple(key.tolist())} of {other}: row {j}")
    return table


def read_windows(dataset_dir, *splits: str) -> list[WindowTable]:
    """The windows of the named splits; no (camera, user, t_end) key repeats
    within or across them."""
    seen: list = []
    return [_repeats(path, _read(path, _windows, _WINDOW_COLUMNS),
                     lambda w: (w.camera, w.user, w.t_end), seen)
            for path in (Path(dataset_dir) / SPLIT_FILES[split] for split in splits)]


def read_pair_table(path) -> tuple[WindowTable, WindowTable, np.ndarray]:
    """The bs1 and bs2 windows and the categories of a ``pairs.ndrec``'s pairs."""
    path = Path(path)
    return _repeats(path, _read(path, _pairs, _PAIR_COLUMNS),
                    lambda pairs: (pairs[0].user, pairs[0].t_end), [])


def observe(path, windows: WindowTable, frames: FrameTable) -> WindowTable:
    """``windows``, read from ``path``, with the rows of ``frames`` they observe
    (frames t_end - r + 1 to t_end of their camera); a frame that ``frames``
    lacks is a DataError naming the window's row."""
    t = windows.t_end[:, None] + np.arange(1 - windows.beams.shape[1], 1)
    rows = _frame_rows(frames, windows.camera[:, None], t)
    if (rows < 0).any():
        i, j = np.argwhere(rows < 0)[0].tolist()
        raise DataError(f"{path}: row {i}: window {windows.keys()[i]} observes frame {t[i, j]} "
                        f"of its camera, which {FRAMES_FILE} lacks")
    return dataclasses.replace(windows, frames=frames, frame_rows=rows)


def _samples(windows: WindowTable, detections: list) -> list[LabeledSample]:
    """Observed windows as LabeledSamples; those that observe one frame share
    its list of ``detections``."""
    return [LabeledSample(ObservedSequence(c, u, t, b, [detections[i] for i in rows]),
                          FutureLabel(label, tuple(future), instance or None))
            for c, u, t, b, rows, label, future, instance in zip(
                windows.camera.tolist(), windows.user.tolist(), windows.t_end.tolist(),
                windows.beams.tolist(), windows.frame_rows.tolist(), windows.label.tolist(),
                windows.future.tolist(), windows.instance.tolist())]


def read_splits(dataset_dir, *splits: str) -> list[LabeledDataset]:
    """The named splits as LabeledSamples, through ``read_frames`` and
    ``read_windows``; windows that observe one frame share its detection list."""
    frames = read_frames(dataset_dir)
    detections = frames.detections()
    return [LabeledDataset(_samples(observe(Path(dataset_dir) / SPLIT_FILES[split], windows,
                                            frames), detections), split)
            for split, windows in zip(splits, read_windows(dataset_dir, *splits))]


def read_split(dataset_dir, split: str) -> LabeledDataset:
    return read_splits(dataset_dir, split)[0]


def read_pairs(path) -> list[ConjugateSample]:
    """The pairs of a ``pairs.ndrec`` as ConjugateSamples, through the
    ``read_frames`` of its directory and ``read_pair_table``."""
    frames = read_frames(Path(path).parent)
    *sides, category = read_pair_table(path)
    detections = frames.detections()
    bs1, bs2 = (_samples(observe(path, side, frames), detections) for side in sides)
    return [ConjugateSample(s1.sequence.user_id, s1.sequence.t_end, s1, s2, c)
            for s1, s2, c in zip(bs1, bs2, category.tolist())]


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
    if not all(type(v) is int and v > 0 for v in sizes) or sizes[0] > MAX_BEAMS:
        raise DataError(f"{path}: codebook.beams (at most {MAX_BEAMS}), observed and future "
                        f"must be positive integers, got {sizes}")
    return manifest


# ---------------------------------------------------------------------------
# Trace (simulate stage output)
# ---------------------------------------------------------------------------

def write_trace(trace_dir, cfg: ScenarioConfig, objects: list[SceneObject],
                centers: np.ndarray) -> None:
    """The trace of ``objects``, ids ascending, and their ``centers`` (frames, objects, 3):
    its manifest and ``trace.cols``, the objects once, then every frame's centres."""
    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format": TRACE_FORMAT, "frames": len(centers),
                "scenario": dataclasses.asdict(cfg)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _save(out / TRACE_FILE, _TRACE_COLUMNS, SimpleNamespace(
        ids=[o.object_id for o in objects],
        classes=[CLASS_CODES[o.object_class.value] for o in objects],
        dims=np.reshape([o.dims for o in objects], (-1, 3)),
        velocities=np.reshape([o.velocity for o in objects], (-1, 3)),
        lanes=[o.lane for o in objects], centers=np.reshape(centers, (-1, 3))))


def _trace(ids, classes, dims, velocities, lanes, centers) -> tuple:
    """The columns of ``trace.cols``, every check made in bulk."""
    _require(len(ids) == len(classes) == len(dims) == len(velocities) == len(lanes),
             "the object columns differ in length")
    _require(np.append(True, ids[1:] > ids[:-1]),
             "an object id not above the one before: the ids must ascend")
    _require((0 <= classes) & (classes < len(CLASSES)), "an unknown class code")
    _require(np.isfinite(centers).all(axis=1), "a centre that is not finite")
    _require(np.isfinite(velocities).all(axis=1), "a velocity that is not finite")
    _require((dims > 0).all(axis=1) & np.isfinite(dims).all(axis=1),
             "object dimensions must be positive and finite")
    return ids, classes, dims, velocities, lanes, centers


def _read_trace(trace_dir) -> tuple:
    """A trace's config, geometry (a world without objects), frame count and columns:
    the objects' ids, classes, dims, velocities and lanes, then every frame's centres."""
    manifest_path, path = Path(trace_dir) / "manifest.json", Path(trace_dir) / TRACE_FILE
    if not manifest_path.is_file():
        raise DataError(f"not a trace directory: {trace_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        scenario, frames, form = manifest["scenario"], manifest["frames"], manifest["format"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{manifest_path}: not a trace manifest: {exc!r}") from exc
    if form != TRACE_FORMAT:
        raise DataError(f"{manifest_path}: trace format {form!r}, not {TRACE_FORMAT} (columns "
                        f"in {path}): run simulate again")
    if type(frames) is not int or not 1 <= frames <= MAX_FRAMES:
        raise DataError(f"{manifest_path}: frames = {frames!r}, not an integer in 1..{MAX_FRAMES}")
    cfg = scenario_from_json(manifest_path, scenario)
    ids, *_, centers = columns = _read(path, _trace, _TRACE_COLUMNS)
    if len(centers) != frames * len(ids):
        raise DataError(f"{path}: {len(centers)} centre rows, not the {frames} frames x "
                        f"{len(ids)} objects that {manifest_path} says")
    return cfg, world_from_objects(cfg, []), frames, columns


def read_trace_rows(trace_dir) -> tuple[ScenarioConfig, World, ObjectRows]:
    """A trace's config, geometry and objects as rows sorted by (frame, id):
    every frame's rows are the one object list, its ids ascending."""
    cfg, world, frames, (ids, classes, dims, _, _, centers) = _read_trace(trace_dir)
    frame = np.arange(len(centers)) // max(len(ids), 1)   # no objects: no rows, at any frames
    return cfg, world, ObjectRows(frame, np.tile(classes.astype(np.int64), frames),
                                  np.tile(ids, frames), centers, np.tile(dims, (frames, 1)))


def read_trace(trace_dir) -> tuple[ScenarioConfig, list[World]]:
    """A trace's config and world states, which share one geometry, as step_world's
    do; each state's objects in ascending id order."""
    cfg, world, frames, (ids, classes, dims, velocities, lanes, centers) = _read_trace(trace_dir)
    ids, dims, velocities, lanes = (a.tolist() for a in (ids, dims, velocities, lanes))
    classes = [CLASSES[c] for c in classes.tolist()]
    return cfg, [dataclasses.replace(world, objects=list(map(
        SceneObject, ids, classes, frame, dims, velocities, lanes)))
        for frame in centers.reshape(frames, len(ids), 3).tolist()]
