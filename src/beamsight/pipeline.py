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
(``scene``); detections stay columns from the detector to the files.
Dataset files are newline-delimited JSON records with a fixed field order,
formatted from those columns, so identical inputs produce byte-identical
files.  ``frames.ndrec`` holds each camera frame's detections once; window
records look them up there.  Files are read a chunk of lines at a time into
tables checked in bulk, and a defect's line is looked for only once a check has
failed.  A window or pair file's chunk in the writer's own form is scanned into
int columns; any other chunk, and all of ``frames.ndrec`` and ``frames.ndjson``,
goes to the JSON parser, the reference.  The object types (``LabeledSample``,
``ConjugateSample`` and their parts) are a read view of the tables, kept
for the benchmark checks and the tests.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import logging
import os
import pickle
import re
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .config import ScenarioConfig, scenario_from_json
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
    object_to_record,
    project_boxes,
    world_from_objects,
)

log = logging.getLogger(__name__)

DETECT_STREAM = 101   # rng domain separator for per-frame detector draws
BLOCK_FRAMES = 16     # frames per seed-pass block
LINK_CHUNK = 24       # owned users per link-kernel call, which bounds their memory
CHUNK_BYTES = 1 << 14  # file text read and parsed at a time, which bounds its objects alive at once
WRITE_ROWS = 256      # windows formatted at a time, which bounds their objects alive at once
WRITE_FRAMES = 32     # frames formatted at a time (about ten boxes each), likewise


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
    The only threads here are OpenBLAS's, and it stops them around a fork: no
    Python thread is alive, since scoring joins its thread before it returns."""
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
    stride = int(seed.frame.max(initial=0)) + 1   # one int per (camera, frame) key, in key order
    frame_rows = np.searchsorted(seed.frames.camera * stride + seed.frames.frame,
                                 seed.camera[seen] * stride + seed.frame[seen])
    return WindowTable(seed.camera[starts], seed.user[starts], seed.frame[seen[:, -1]],
                       seed.beam[seen], seed.status[ahead], seed.frames, frame_rows)


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
# Record (de)serialization
# ---------------------------------------------------------------------------

_BEAMS_DIFFER = "window {} has {} beams, window {} has {}: one beam index per observed frame"
_FUTURE_DIFFERS = "window {} labels {} future frames, window {} labels {} future frames"
_PAIR_LINE = '{"user":%d,"t_end":%d,"category":%d,"bs1":%s,"bs2":%s}\n'
_INT, _INSTANCE = r"(?:0|[1-9][0-9]{0,17})", r"(?:[1-9][0-9]{0,17}|null)"   # within int64
_WIDTHS = re.compile(rb'(?:.*?"beams":\[([0-9,]*)\],"label":[0-9]+,"window":\[([0-9,]*)\])?')


def _require(ok, message: str) -> None:
    if not np.all(ok):
        raise ValueError(message)


def _int64s(values) -> bool:
    """Whether every value is an int (not a bool) within 64 bits."""
    return (not set(map(type, values)) - {int} and -2**63 <= min(values, default=0)
            and max(values, default=0) < 2**63)


def _rectangle(rows: list, key, differ: str) -> np.ndarray:
    """Equal-length int ``rows`` as an (n, m) array; a row whose length is not
    the first row's raises a ValueError, ``differ`` naming both windows."""
    lengths = list(map(len, rows))
    if lengths.count(m := lengths[0] if rows else 0) != len(rows):
        i = next(i for i, n in enumerate(lengths) if n != m)
        raise ValueError(differ.format(key(i), lengths[i], key(0), m))
    return np.array(rows, dtype=np.int64).reshape(len(rows), m)


def _window_table(records: list) -> WindowTable:
    """The table of window records, every check made in bulk."""
    head = [(r["camera"], r["user"], r["t_end"], r["label"]) for r in records]
    beams, future = [r["beams"] for r in records], [r["window"] for r in records]
    instance = [r["instance"] for r in records]
    values = list(itertools.chain(itertools.chain(*head), *beams, *future))
    _require(_int64s(values) and not set(map(type, instance)) - {int, type(None)},
             "camera, user, t_end, label, each beam index and window must be 64-bit "
             "integers, instance one or null")
    head = np.array(head, dtype=np.int64).reshape(-1, 4)

    def key(i):
        return tuple(head[i, :3].tolist())

    return _windows(head, _rectangle(beams, key, _BEAMS_DIFFER),
                    _rectangle(future, key, _FUTURE_DIFFERS),
                    np.array([0 if i is None else i if 0 < i < 2**63 else -1 for i in instance],
                             dtype=np.int64))


def _windows(head, beams, future, instance) -> WindowTable:
    """The table of windows of int64 (camera, user, t_end, label) rows, beams,
    future statuses and instances (0 for null), every check made in bulk."""
    table = WindowTable(*head[:, :3].T.copy(), beams, future)
    _require((1 <= table.camera) & (table.camera <= 6), "a camera outside 1..6")
    _require((table.future == 0) | (table.future == 1),
             "a future link status other than 0 (LOS) or 1 (NLOS)")
    _require(head[:, 3] == table.label, "label inconsistent with its future window")
    _require(instance == table.instance, "instance is not the first NLOS index of its window")
    return table


def _frame_table(records: list) -> FrameTable:
    """The table of frame records, every check made in bulk."""
    keys = [(r["camera"], r["frame"]) for r in records]
    detections = [r["detections"] for r in records]
    flat = list(itertools.chain.from_iterable(detections))
    values = list(itertools.chain.from_iterable(flat))
    _require(not set(map(len, flat)) - {6} and _int64s(list(itertools.chain(*keys)))
             and not set(map(type, itertools.compress(values, itertools.cycle([0, 1, 1, 1, 1, 1]))))
             - {int, float}, "camera and frame must be 64-bit integers, and a detection [class, "
             "x1, y1, x2, y2, confidence] with numbers that are not true or false")
    x1, y1, x2, y2, confidence = numbers = np.array([values[i::6] for i in range(1, 6)], dtype=float)
    _require((0 <= x1) & (x1 < x2) & (x2 <= 1) & (0 <= y1) & (y1 < y2) & (y2 <= 1),
             "a box not within 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1")   # NaN fails too
    _require((0 <= confidence) & (confidence <= 1), "a confidence outside [0, 1]")
    return FrameTable(*np.array(keys, dtype=np.int64).reshape(-1, 2).T.copy(),
                      np.array(list(map(len, detections)), dtype=np.int64),
                      np.array([CLASS_CODES[c] for c in values[::6]], dtype=np.int64),
                      numbers[:4].T.copy(), confidence.copy())


def _pair_table(records: list) -> tuple[WindowTable, WindowTable, np.ndarray]:
    """The bs1 and bs2 windows and the categories of pair records, every check
    made in bulk."""
    head = [(r["user"], r["t_end"], r["category"]) for r in records]
    bs1, bs2 = (_window_table([r[side] for r in records]) for side in ("bs1", "bs2"))
    _require(_int64s(list(itertools.chain(*head))),
             "user, t_end and category must be 64-bit integers")
    return _pairs(np.array(head, dtype=np.int64).reshape(-1, 3), bs1, bs2)


def _pairs(head: np.ndarray, bs1: WindowTable, bs2: WindowTable) -> tuple:
    """``_pair_table`` of int64 (user, t_end, category) rows and the sides."""
    user, t_end, category = head.T.copy()
    _require((bs1.label != bs2.label) & (category == 2 - bs1.label),
             "category does not fit the statuses of its bs1, bs2 sides")
    _require((camera_to_bs(bs1.camera) == 1) & (camera_to_bs(bs2.camera) == 2),
             "the cameras of its bs1, bs2 sides are not of basestations 1, 2")
    _require((bs1.user == user) & (bs2.user == user) & (bs1.t_end == t_end)
             & (bs2.t_end == t_end), "user, t_end are not its sides'")
    return bs1, bs2, category


@functools.lru_cache(maxsize=16)
def _line_form(beams: int, future: int, pairs: bool) -> re.Pattern:
    """One or more of the writer's window (or pair) lines of these widths."""
    window = re.escape(_window_format(beams, future)).replace("%d", _INT).replace("%s", _INSTANCE)
    line = re.escape(_PAIR_LINE).replace("%d", _INT) % (window, window) if pairs else window + "\n"
    return re.compile(f"(?:{line})+".encode())


def _scan(chunk: bytes, pairs: bool = False):
    """The table of a chunk of window (or pair) lines if all are the writer's, of the
    first line's widths with ints of at most 18 digits, else None (for the JSON
    parser).  Numpy reads each run of digits in place, a null instance as 0."""
    beams, future = (g.count(b",") + 1 if g else 0 for g in _WIDTHS.match(chunk).groups())
    if not _line_form(beams, future, pairs).fullmatch(chunk):
        return None
    digit = np.frombuffer(chunk.replace(b"null", b"0"), np.uint8) - np.uint8(ord("0"))
    edges = np.flatnonzero(np.diff(digit < 10))   # the chunk starts and ends with no digit
    start, length = edges[0::2] + 1, edges[1::2] - edges[0::2]
    value = digit[start].astype(np.int64)
    for place in range(1, int(length.max())):
        value = np.where(length > place, 10 * value + digit.take(start + place, mode="clip"), value)
    values = value.reshape(chunk.count(b"\n"), -1)

    def windows(v):   # camera, user, t_end, the beams, label, the statuses, instance
        return _windows(v[:, [0, 1, 2, 3 + beams]], v[:, 3:3 + beams].copy(),
                        v[:, 4 + beams:-1].copy(), v[:, -1])

    if not pairs:
        return windows(values)
    w = (values.shape[1] - 5) // 2   # user, t_end, category, the 1 of "bs1", a window, 2, a window
    return _pairs(values[:, :3], windows(values[:, 4:4 + w]), windows(values[:, 5 + w:]))


def _read_ndjson(path: Path, table) -> None:
    """A DataError naming the first line of ``path`` that is not UTF-8 JSON,
    or whose record ``table`` rejects on its own or beside the first record
    (whose lengths are every record's)."""
    first = None
    with path.open("rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode())
                first = record if first is None else first
                table([first, record])
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataError(f"{path}: line {number} is not JSON: {exc}") from exc
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}: line {number} is not a valid record: "
                                f"{exc!r}") from exc


def _line_numbers(path: Path) -> list[int]:
    """The number of each non-blank line of ``path``: record i is on line numbers[i]."""
    return [n for n, line in enumerate(path.read_bytes().split(b"\n"), 1) if line.strip()]


def concat(parts: list):
    """One table of ``parts``, tables of consecutive rows; a field that is one
    object in every part (no frame table, or one shared) stays as it is."""
    first = parts[0]
    if all(p is first for p in parts):
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, tuple):
        return tuple(concat(list(column)) for column in zip(*parts))
    return type(first)(*(concat([getattr(p, f.name) for p in parts])
                         for f in dataclasses.fields(first)))


def _read_table(path: Path, table, keys, seen=None, scan=None):
    """``table`` of the records of ``path``, one JSON object a line, where no
    ``keys`` of it (one per record) repeats or is in ``seen`` (key -> (path,
    record), shared across files).  About CHUNK_BYTES of lines are read and
    parsed at a time, into a table each: by ``scan`` of their bytes, if it gives
    one, else by the JSON parser and ``table``.  Only once a check fails is its
    line looked for: the first line that is not UTF-8 JSON, whose record fails
    on its own or beside the first record, or that repeats a key."""
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    try:
        parts = []
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.readlines(CHUNK_BYTES), []):
                if (part := scan and scan(b"".join(chunk))) is None:
                    lines = [line for line in chunk if line.strip()]
                    records = json.loads("[%s]" % b",".join(lines).decode())
                    if len(records) != len(lines):   # one JSON value a line
                        raise ValueError("a line holds other than one JSON value")
                    part = table(records)
                parts.append(part)
        found = concat(parts) if parts else table([])
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        _read_ndjson(path, table)
        raise DataError(f"{path}: not a valid record file: {exc!r}") from exc
    seen = {} if seen is None else seen
    for i, key in enumerate(keys(found)):
        if key in seen:
            other, j = seen[key]
            raise DataError(f"{path}: line {_line_numbers(path)[i]} repeats key {key} of "
                            f"{other}: line {_line_numbers(other)[j]}")
        seen[key] = (path, i)
    return found


def write_dataset(out_dir, train: WindowTable, val: WindowTable, pairs: tuple,
                  manifest: dict) -> None:
    """The dataset files of train and val windows and the (bs1, bs2, category)
    pairs of ``conjugate_pairs``, all observed in one frame table in (camera,
    frame) order, as ``collect_windows`` makes it.  ``frames.ndrec`` holds the
    frames they observe.  Lines are formatted directly from the columns, a
    block at a time (WRITE_FRAMES frames, WRITE_ROWS windows), since a finite
    float's JSON is its repr; a box corner is the shortest text of its nearest
    float32, the model's precision, moved one float32 step outward where a
    box's corners would meet."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bs1, bs2, category = pairs
    frames = train.frames
    used = np.zeros(len(frames), dtype=bool)
    for windows in (train, val, bs1, bs2):
        if windows.frames is not frames:
            raise ValueError("the windows to write observe different frame tables")
        used[windows.frame_rows] = True
    boxes = frames.boxes.astype(np.float32)
    low, high = boxes[:, :2], boxes[:, 2:]   # views: (x1, y1) and (x2, y2)
    down, up = (low == high) & (low > 0), (low == high) & (low == 0)
    low[down], high[up] = np.nextafter(low[down], -1), np.nextafter(high[up], 1)
    frames, rows = dataclasses.replace(frames, boxes=boxes), np.flatnonzero(used)
    heads = np.array(['["%s",' % c.value for c in CLASSES])
    with (out / "frames.ndrec").open("w") as fh:
        for lo in range(0, len(rows), WRITE_FRAMES):
            part = frames.take(rows[lo:lo + WRITE_FRAMES])
            found = [f"{head}{x1},{y1},{x2},{y2},{p!r}]" for head, x1, y1, x2, y2, p in zip(
                heads[part.classes].tolist(), *float32_text(part.boxes).T.tolist(),
                part.confidence.tolist())]
            fh.write("".join('{"camera":%d,"frame":%d,"detections":[%s]}\n' % (
                c, f, ",".join(found[end - n:end])) for c, f, n, end in zip(
                    part.camera.tolist(), part.frame.tolist(), part.count.tolist(),
                    np.cumsum(part.count).tolist())))
    for split, windows in (("train", train), ("val", val)):
        with (out / f"{split}.ndrec").open("w") as fh:
            fh.writelines(line + "\n" for line in _window_lines(windows))
    with (out / "pairs.ndrec").open("w") as fh:
        fh.writelines(_PAIR_LINE % line for line in zip(
            bs1.user.tolist(), bs1.t_end.tolist(), category.tolist(), _window_lines(bs1),
            _window_lines(bs2)))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _window_format(beams: int, future: int) -> str:
    """The format of a window record of these widths, its instance a %s."""
    return ('{"camera":%%d,"user":%%d,"t_end":%%d,"beams":[%s],"label":%%d,"window":[%s],'
            '"instance":%%s}' % (",".join(["%d"] * beams), ",".join(["%d"] * future)))


def _window_lines(windows: WindowTable):
    """Each window's record as JSON text, WRITE_ROWS windows at a time, through
    one format string of the table's beam and future widths."""
    line = _window_format(windows.beams.shape[1], windows.future.shape[1])
    for lo in range(0, len(windows), WRITE_ROWS):
        part = windows.take(slice(lo, lo + WRITE_ROWS))
        columns = np.column_stack([part.camera, part.user, part.t_end, part.beams, part.label,
                                   part.future])
        for values, instance in zip(columns.tolist(), part.instance.tolist()):
            yield line % (*values, instance or "null")


_POW5, _POW10 = 5 ** np.arange(14), 10 ** np.arange(14)


def float32_text(x: np.ndarray) -> np.ndarray:
    """``x.astype(str)`` of a float32 array, as Python strings.  In [1e-4, 1)
    numpy writes "0." and the fewest decimals that read back as x, the closest
    of them to x, a tie to the even digit (Steele & White's shortest digits),
    searched for here on the whole array in exact int64 arithmetic."""
    inside = (x >= np.float64(1e-4)) & (x < 1)   # by exact value: float32(1e-4) is below
    m = x[inside].view(np.uint32).astype(np.int64)
    m, e = m & 0x7FFFFF | 0x800000, 150 - (m >> 23)   # x = m / 2**e, 24 <= e <= 37
    # x reads back from (2m - 1, 2m + 1) / 2**(e + 1), or from (4m - 1) / 2**(e + 2)
    # at a power of two (the float32 below is closer); an even m owns both ends
    odd, power = m & 1, m == 1 << 23
    low, shift = np.where(power, 4 * m - 1, 2 * m - 1), e + 1 + power

    def candidates(k):   # the first and last integer in 10**k times that interval
        return ((low * _POW5[k] + (1 << shift - k) - 1 + odd) >> shift - k,
                ((2 * m + 1) * _POW5[k] - odd) >> e + 1 - k)

    k, last = np.ones_like(m), np.full_like(m, 13)   # bisect for the fewest decimals
    for _ in range(4):
        fits = np.less_equal(*candidates(mid := (k + last) // 2))
        k, last = np.where(fits, k, mid + 1), np.where(fits, mid, last)
    p, s = m * _POW5[k], e - k   # x 10**k = p / 2**s: rounded, a tie to even, into range
    d = np.clip(p + (1 << s - 1) - 1 + (p >> s & 1) >> s, *candidates(k)) * _POW10[13 - k]
    text = np.empty((len(d), 15), dtype=np.uint32)   # "0.", the k decimals, then NULs
    text[:, :2] = ord("0"), ord(".")
    for place in range(13, 0, -1):
        d, digit = np.divmod(d, 10)
        text[:, place + 1] = np.where(place <= k, digit + ord("0"), 0)
    found = np.empty(x.shape, dtype=object)
    found[inside], found[~inside] = text.view("<U15")[:, 0], x[~inside].astype(str)
    return found


def read_frames(dataset_dir) -> FrameTable:
    """The ``frames.ndrec`` of a dataset directory."""
    return _read_table(Path(dataset_dir) / "frames.ndrec", _frame_table,
                       lambda f: zip(f.camera.tolist(), f.frame.tolist()))


def read_windows(dataset_dir, *splits: str) -> list[WindowTable]:
    """The windows of the named splits; no (camera, user, t_end) key repeats
    within or across them."""
    seen: dict = {}
    return [_read_table(Path(dataset_dir) / f"{split}.ndrec", _window_table, WindowTable.keys,
                        seen, _scan) for split in splits]


def read_pair_table(path) -> tuple[WindowTable, WindowTable, np.ndarray]:
    """The bs1 and bs2 windows and the categories of a ``pairs.ndrec``'s pairs."""
    return _read_table(Path(path), _pair_table,
                       lambda pairs: zip(pairs[0].user.tolist(), pairs[0].t_end.tolist()), None,
                       functools.partial(_scan, pairs=True))


def observe(path, windows: WindowTable, frames: FrameTable) -> WindowTable:
    """``windows``, read from ``path``, with the rows of ``frames`` they observe
    (frames t_end - r + 1 to t_end of their camera); a frame that ``frames``
    lacks is a DataError naming the window's line."""
    t = windows.t_end[:, None] + np.arange(1 - windows.beams.shape[1], 1)
    camera = np.concatenate([frames.camera, np.repeat(windows.camera, t.shape[1])])
    frame = np.concatenate([frames.frame, t.ravel()])
    order = np.lexsort((frame, camera))   # stable, so a frame's row leads the run of its key
    c, f = camera[order], frame[order]
    new = np.r_[True, (c[1:] != c[:-1]) | (f[1:] != f[:-1])][:len(order)]
    lead = order[new][np.cumsum(new) - 1]
    rows = np.empty_like(order)
    rows[order] = np.where(lead < len(frames), lead, -1)
    rows = rows[len(frames):].reshape(t.shape)
    if (rows < 0).any():
        i, j = np.argwhere(rows < 0)[0].tolist()
        raise DataError(f"{path}: line {_line_numbers(Path(path))[i]} is not a valid record: "
                        f"window {windows.keys()[i]} observes frame {t[i, j]} of its camera, "
                        f"which frames.ndrec lacks")
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
    return [LabeledDataset(_samples(observe(Path(dataset_dir) / f"{split}.ndrec", windows,
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


def _object_table(records: list) -> tuple[ObjectRows, np.ndarray, np.ndarray, np.ndarray]:
    """Trace records ({"frame": n, "objects": [object_to_record lists]}) as their
    objects' rows, velocities and lanes in record order, and each record's frame
    number, every check made in bulk."""
    frames, objects = [r["frame"] for r in records], [r["objects"] for r in records]
    _require(_int64s(frames), "frame numbers must be integers within 64 bits")
    _require(not set(map(type, objects)) - {list}, "objects must be a list of object records")
    flat = list(itertools.chain.from_iterable(objects))
    _require(not set(map(type, flat)) - {list} and not set(map(len, flat)) - {12},
             "an object record does not hold 12 entries")
    ids, classes, *fields, lanes = list(zip(*flat)) or [()] * 12
    numbers = (ids, *fields, lanes)
    if bad := set(map(type, itertools.chain(*numbers))) - {int, float}:
        raise ValueError(f"{next(v for v in itertools.chain(*numbers) if type(v) in bad)!r} "
                         "where an object record holds a number")
    numbers = np.array(numbers, dtype=float).reshape(11, -1)   # id, centre, dims, velocity, lane
    _require(np.isfinite(numbers), "an object holds a number that is not finite")
    _require(_int64s(ids + lanes), "object ids and lanes must be integers within 64 bits")
    if unknown := set(classes) - CLASS_CODES.keys():
        raise ValueError(f"unknown object class {unknown.pop()!r}")
    _require(numbers[4:7] > 0, "object dimensions must be positive")
    record = np.repeat(np.arange(len(records)), list(map(len, objects)))
    ids = np.array(ids, dtype=np.int64)
    order = np.lexsort((ids, record))
    _require((np.diff(ids[order]) != 0) | (np.diff(record[order]) != 0),
             "an object id repeats within the frame")
    frames = np.array(frames, dtype=np.int64)
    rows = ObjectRows(frames[record], np.array([CLASS_CODES[c] for c in classes], dtype=np.int64),
                      ids, numbers[1:4].T.copy(), numbers[4:7].T.copy())
    return rows, numbers[7:10].T.copy(), np.array(lanes, dtype=np.int64), frames


def _read_trace(trace_dir, table) -> tuple[ScenarioConfig, World, tuple]:
    """A trace's config, geometry (a world without objects) and ``table`` of its
    frame records, a tuple that ends in each record's frame number, checked
    to be its line's."""
    manifest_path = Path(trace_dir) / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"not a trace directory: {trace_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        scenario, frames = manifest["scenario"], manifest["frames"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{manifest_path}: not a trace manifest: {exc!r}") from exc
    cfg = scenario_from_json(manifest_path, scenario)
    path = Path(trace_dir) / "frames.ndjson"
    found = _read_table(path, table, lambda _: ())
    numbers = found[-1]
    if wrong := np.flatnonzero(numbers != np.arange(len(numbers))).tolist():
        raise DataError(f"{path}: line {_line_numbers(path)[wrong[0]]} is not a valid record: "
                        f"frame {numbers[wrong[0]]} where frame {wrong[0]} belongs")
    if not len(numbers) or len(numbers) != frames:
        raise DataError(f"{path}: {len(numbers)} frame lines, {manifest_path} says {frames}")
    return cfg, world_from_objects(cfg, []), found


def read_trace_rows(trace_dir) -> tuple[ScenarioConfig, World, ObjectRows]:
    """A trace's config, geometry and objects as rows sorted by (frame, id)."""
    cfg, world, (rows, _) = _read_trace(trace_dir, lambda records: _object_table(records)[::3])
    return cfg, world, rows[np.lexsort((rows.ids, rows.frame))]


def read_trace(trace_dir) -> tuple[ScenarioConfig, list[World]]:
    """A trace's config and world states, which share one geometry, as step_world's
    do; each state's objects in the order of its record."""
    cfg, world, (rows, velocities, lanes, frames) = _read_trace(trace_dir, _object_table)
    objects = list(map(SceneObject, rows.ids.tolist(), [CLASSES[c] for c in rows.classes.tolist()],
                       *(a.tolist() for a in (rows.centers, rows.dims, velocities, lanes))))
    ends = np.searchsorted(rows.frame, frames, side="right").tolist()
    return cfg, [dataclasses.replace(world, objects=objects[start:end])
                 for start, end in zip([0, *ends], ends)]
