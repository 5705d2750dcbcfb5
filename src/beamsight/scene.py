"""Dynamic street world: vehicles, basestations, cameras, synthetic detections.

The world is a straight multi-lane street along the x axis (z up).  Vehicles
are axis-aligned boxes moving parallel to the street; two basestations sit on
opposite sides, each carrying a uniform linear array and three cameras.  In
place of rendered frames, cameras produce occlusion-aware bounding-box
detections through an ideal pinhole model plus a configurable noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .config import ScenarioConfig
from .errors import DataError

OCCLUSION_GRID = 64      # raster of the occlusion test: one 64-bit word per raster row
NEAR_PLANE = 1e-3        # metres in front of the camera


class VehicleClass(str, Enum):
    CAR = "car"
    BUS = "bus"
    TRUCK = "truck"


# length, width, height in metres; buses and trucks are taller than cars so
# large vehicles can shadow small ones.
VEHICLE_DIMS = {
    VehicleClass.CAR: (4.6, 1.8, 1.5),
    VehicleClass.BUS: (12.0, 2.55, 3.2),
    VehicleClass.TRUCK: (9.5, 2.5, 3.6),
}
CLASSES = list(VehicleClass)            # ObjectRows.classes indexes this list
CLASS_CODES = {c.value: i for i, c in enumerate(CLASSES)}
USER_CLASS = CLASSES.index(VehicleClass.CAR)


@dataclass
class SceneObject:
    """A moving box-shaped vehicle."""

    object_id: int
    object_class: VehicleClass
    center: np.ndarray
    dims: np.ndarray
    velocity: np.ndarray
    lane: int

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.dims = np.asarray(self.dims, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if np.any(self.dims <= 0):
            raise ValueError("object dimensions must be positive")

    @property
    def is_user(self) -> bool:
        # cars are the served users; buses and trucks only act as blockers
        return self.object_class is VehicleClass.CAR

    @property
    def antenna_point(self) -> np.ndarray:
        """Roof-centre point used as the user antenna location."""
        return self.center + np.array([0.0, 0.0, self.dims[2] / 2.0])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.dims / 2.0
        return self.center - half, self.center + half


@dataclass
class UlaGeometry:
    """Uniform linear array along a horizontal axis."""

    elements: int
    spacing: float          # metres
    wavelength: float       # metres
    axis_azimuth: float = 0.0

    @property
    def axis_vector(self) -> np.ndarray:
        return np.array([math.cos(self.axis_azimuth), math.sin(self.axis_azimuth), 0.0])


@dataclass
class Camera:
    camera_id: int
    position: np.ndarray
    yaw: float              # rad, azimuth of the optical axis
    pitch: float            # rad, elevation of the optical axis
    hfov: float
    vfov: float
    image_width: int
    image_height: int

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)

    @cached_property
    def rotation(self) -> np.ndarray:
        """Rows are the camera's right / down / forward axes in world frame."""
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        forward = np.array([cp * cy, cp * sy, sp])
        right = np.array([sy, -cy, 0.0])
        down = np.cross(forward, right)
        return np.stack([right, down, forward])

    @cached_property
    def focal(self) -> tuple[float, float]:
        fx = (self.image_width / 2.0) / math.tan(self.hfov / 2.0)
        fy = (self.image_height / 2.0) / math.tan(self.vfov / 2.0)
        return fx, fy


@dataclass
class Basestation:
    bs_id: int
    position: np.ndarray
    ula: UlaGeometry
    cameras: list[Camera]

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class World:
    objects: list[SceneObject]
    street_length: float
    lanes: int
    lane_width: float
    basestations: list[Basestation]
    wall_south: float
    wall_north: float

    def object_by_id(self, object_id: int) -> SceneObject:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise KeyError(object_id)

    @property
    def users(self) -> list[SceneObject]:
        return [o for o in self.objects if o.is_user]


@dataclass
class ObjectRows:
    """Objects as rows, sorted by (frame, id)."""

    frame: np.ndarray              # (n,) the row's frame
    classes: np.ndarray            # (n,) index into CLASSES
    ids: np.ndarray
    centers: np.ndarray            # (n, 3)
    dims: np.ndarray               # (n, 3)

    def __getitem__(self, index) -> ObjectRows:
        return ObjectRows(*(column[index] for column in vars(self).values()))


def object_rows(frames: list[list[SceneObject]]) -> ObjectRows:
    """The objects of world states, one list per frame, as rows sorted by (frame, id)."""
    flat = [o for objects in frames for o in objects]
    rows = ObjectRows(np.repeat(np.arange(len(frames)), list(map(len, frames))),
                      np.array([CLASS_CODES[o.object_class.value] for o in flat], dtype=np.int64),
                      np.array([o.object_id for o in flat], dtype=np.int64),
                      *(np.array([getattr(o, name) for o in flat], dtype=float).reshape(-1, 3)
                        for name in ("center", "dims")))
    return rows[np.lexsort((rows.ids, rows.frame))]


@dataclass
class Detection:
    object_class: VehicleClass
    bbox: tuple[float, float, float, float]   # (x1, y1, x2, y2), normalized
    confidence: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.bbox
        if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
            raise ValueError(f"invalid bbox {self.bbox}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")


@dataclass
class FrameTable:
    """Camera frames as flat arrays, the one form of a detection list from the
    detector to the files: frame i is frame[i] of camera[i], and its count[i]
    detections follow those of the frames before it in classes (codes into
    CLASSES), boxes (k, 4) of (x1, y1, x2, y2) and confidence."""

    camera: np.ndarray
    frame: np.ndarray
    count: np.ndarray
    classes: np.ndarray
    boxes: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.count)

    @classmethod
    def of(cls, frames: list[tuple[int, int, list[Detection]]]) -> "FrameTable":
        """The table of (camera, frame, detection list) triples."""
        flat = [d for *_, detections in frames for d in detections]
        return cls(*np.array([(c, f, len(d)) for c, f, d in frames], dtype=np.int64).reshape(-1, 3).T,
                   np.array([CLASS_CODES[d.object_class.value] for d in flat], dtype=np.int64),
                   np.array([d.bbox for d in flat], dtype=float).reshape(-1, 4),
                   np.array([d.confidence for d in flat], dtype=float))

    def take(self, rows: np.ndarray) -> "FrameTable":
        """The frames ``rows``, in that order."""
        count, start = self.count[rows], (np.cumsum(self.count) - self.count)[rows]
        boxes = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        return FrameTable(self.camera[rows], self.frame[rows], count, self.classes[boxes],
                          self.boxes[boxes], self.confidence[boxes])

    def detections(self) -> list[list[Detection]]:
        """Each frame's detections as a list of Detection objects."""
        found = [Detection(CLASSES[c], tuple(box), p) for c, box, p in zip(
            self.classes.tolist(), self.boxes.tolist(), self.confidence.tolist())]
        ends = np.cumsum(self.count).tolist()
        return [found[end - n:end] for end, n in zip(ends, self.count.tolist())]


@dataclass(frozen=True)
class DetectorNoiseModel:
    """Imperfection model standing in for a real detector."""

    p_miss: float = 0.0
    jitter_sigma: float = 0.0          # pixels
    p_false_positive: float = 0.0      # per frame
    rng_seed: int = 0

    def __post_init__(self):
        for p in (self.p_miss, self.p_false_positive):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")


# ---------------------------------------------------------------------------
# World construction and stepping
# ---------------------------------------------------------------------------

def build_geometry(cfg: ScenarioConfig) -> tuple[list[Basestation], float, float]:
    """Basestations (with arrays and cameras) and wall positions for a config."""
    width = cfg.lanes * cfg.lane_width
    dy = width + 2.0 * cfg.bs_setback
    # Euclidean separation between the two antennas is exactly bs_separation.
    dx = math.sqrt(cfg.bs_separation**2 - dy**2)
    x_mid = cfg.street_length / 2.0
    wavelength = 299_792_458.0 / cfg.carrier_hz
    spacing = cfg.spacing_wavelengths * wavelength

    def cameras_for(bs_id: int, position: np.ndarray, center_yaw: float) -> list[Camera]:
        side = math.radians(cfg.side_yaw_deg)
        pitch = math.radians(cfg.pitch_deg)
        hfov = math.radians(cfg.hfov_deg)
        vfov = math.radians(cfg.vfov_deg)
        if bs_id == 1:
            # camera 3 looks down-street toward basestation 2
            yaws = [center_yaw + side, center_yaw, center_yaw - side]
            ids = [1, 2, 3]
        else:
            # camera 4 looks back up-street toward basestation 1
            yaws = [center_yaw - side, center_yaw, center_yaw + side]
            ids = [4, 5, 6]
        return [
            Camera(camera_id=cid, position=position.copy(), yaw=yaw, pitch=pitch,
                   hfov=hfov, vfov=vfov,
                   image_width=cfg.image_width, image_height=cfg.image_height)
            for cid, yaw in zip(ids, yaws)
        ]

    pos1 = np.array([x_mid - dx / 2.0, -cfg.bs_setback, cfg.bs_height])
    pos2 = np.array([x_mid + dx / 2.0, width + cfg.bs_setback, cfg.bs_height])
    bs1 = Basestation(
        bs_id=1, position=pos1,
        ula=UlaGeometry(cfg.elements, spacing, wavelength, axis_azimuth=0.0),
        cameras=cameras_for(1, pos1, math.pi / 2.0),
    )
    bs2 = Basestation(
        bs_id=2, position=pos2,
        ula=UlaGeometry(cfg.elements, spacing, wavelength, axis_azimuth=0.0),
        cameras=cameras_for(2, pos2, -math.pi / 2.0),
    )
    wall_south = -cfg.wall_setback
    wall_north = width + cfg.wall_setback
    return [bs1, bs2], wall_south, wall_north


def build_world(cfg: ScenarioConfig) -> World:
    """Procedurally place vehicles and return the initial world state."""
    rng = np.random.default_rng([cfg.seed, 0])
    classes = ([VehicleClass.CAR] * cfg.cars + [VehicleClass.BUS] * cfg.buses
               + [VehicleClass.TRUCK] * cfg.trucks)
    if not classes:
        raise DataError("vehicle mix is empty")
    order = rng.permutation(len(classes))
    classes = [classes[i] for i in order]

    lane_speed = rng.uniform(cfg.min_speed, cfg.max_speed, size=cfg.lanes)
    per_lane: list[list[int]] = [[] for _ in range(cfg.lanes)]
    for idx in range(len(classes)):
        per_lane[idx % cfg.lanes].append(idx)

    objects: list[SceneObject] = []
    for lane, members in enumerate(per_lane):
        if not members:
            continue
        spacing = cfg.street_length / len(members)
        longest = max(VEHICLE_DIMS[classes[i]][0] for i in members)
        if spacing < longest + 2.0:
            raise DataError(
                f"lane {lane} too dense: {len(members)} vehicles on "
                f"{cfg.street_length:.0f} m"
            )
        phase = rng.uniform(0.0, spacing)
        direction = 1.0 if lane < cfg.lanes // 2 else -1.0
        y = (lane + 0.5) * cfg.lane_width
        for slot, idx in enumerate(members):
            cls = classes[idx]
            dims = np.array(VEHICLE_DIMS[cls])
            x = (phase + slot * spacing) % cfg.street_length
            # distinct speeds per vehicle, small enough that same-lane
            # vehicles never overlap within a desk-scale trace
            speed = lane_speed[lane] * (1.0 + rng.uniform(-0.005, 0.005))
            objects.append(SceneObject(idx, cls, np.array([x, y, dims[2] / 2.0]), dims,
                                       np.array([direction * speed, 0.0, 0.0]), lane))
    objects.sort(key=lambda o: o.object_id)

    return world_from_objects(cfg, objects)


def roll_centers(world: World, dt: float, frames: int) -> np.ndarray:
    """Object centres (frames, objects, 3): the world's, then + velocity*dt a frame, x wrapped."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    centers = np.empty((frames, len(world.objects), 3))
    centers[0] = np.reshape([o.center for o in world.objects], (-1, 3))
    step = np.reshape([o.velocity for o in world.objects], (-1, 3)) * dt
    for f in range(1, frames):
        np.add(centers[f - 1], step, out=centers[f])
        np.mod(centers[f, :, 0], world.street_length, out=centers[f, :, 0])
    return centers


def step_world(world: World, dt: float) -> World:
    """Advance every object by velocity*dt, wrapping at the street ends."""
    return replace(world, objects=[replace(o, center=c) for o, c in
                                   zip(world.objects, roll_centers(world, dt, 2)[1])])


# ---------------------------------------------------------------------------
# Pinhole projection
# ---------------------------------------------------------------------------

# corner k has sign bits (x, y, z) = (k >> 2, k >> 1, k) & 1; each edge
# joins two corners that differ in one bit
_BOX_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                       for sz in (-1, 1)], dtype=float)
_EDGE_START, _EDGE_END = np.array([
    (0, 1), (0, 2), (1, 3), (2, 3),
    (4, 5), (4, 6), (5, 7), (6, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
]).T


def project_object(cam: Camera, obj: SceneObject):
    """project_objects for a single box."""
    return project_objects(cam, [obj])[0]


def project_objects(cam: Camera, objects: list[SceneObject]) -> list:
    """``project_boxes`` of the objects, in their order: a normalized bbox
    (x1, y1, x2, y2) or None each."""
    boxes, visible = project_boxes(cam, np.array([o.center for o in objects]).reshape(-1, 3),
                                   np.array([o.dims for o in objects]).reshape(-1, 3))
    return [tuple(box) if ok else None for box, ok in zip(boxes.tolist(), visible.tolist())]


def project_boxes(cam: Camera, centers: np.ndarray,
                  dims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bboxes (n, 4) of boxes with (n, 3) centres and dims, and
    whether each is visible.  A bbox is the axis-aligned hull (x1, y1, x2,
    y2) of the box's corners in front of the near plane, and for a box the
    plane cuts the points where its edges cross it, clipped to the image.
    A box behind the camera or outside the view is not visible.
    """
    half = dims / 2.0
    corners = centers[:, None, :] + _BOX_SIGNS[None, :, :] * half[:, None, :]
    cam_pts = (corners - cam.position) @ cam.rotation.T         # (n, 8, 3)
    front = cam_pts[:, :, 2] > NEAR_PLANE
    lo, hi = _pixel_hull(cam, cam_pts, front)
    cut = np.flatnonzero(front.any(axis=1) & ~front.all(axis=1))
    start, end = cam_pts[cut][:, _EDGE_START], cam_pts[cut][:, _EDGE_END]  # (cut, 12, 3)
    crosses = front[cut][:, _EDGE_START] != front[cut][:, _EDGE_END]
    t = (NEAR_PLANE - start[:, :, 2]) / np.where(crosses, end[:, :, 2] - start[:, :, 2], 1.0)
    cut_lo, cut_hi = _pixel_hull(cam, start + t[:, :, None] * (end - start), crosses)
    lo[:, cut], hi[:, cut] = np.minimum(lo[:, cut], cut_lo), np.maximum(hi[:, cut], cut_hi)
    size = np.array([[cam.image_width], [cam.image_height]], dtype=float)
    lo, hi = np.maximum(lo, 0.0), np.minimum(hi, size)
    return np.concatenate([lo / size, hi / size]).T, np.all(lo < hi, axis=0)


def _pixel_hull(cam: Camera, points: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per box, the least and greatest (u, v) of its kept points; inf, -inf if none."""
    depth = np.where(keep, points[..., 2], 1.0)
    fx, fy = cam.focal
    uv = np.stack([fx * points[..., 0] / depth + cam.image_width / 2.0,
                   fy * points[..., 1] / depth + cam.image_height / 2.0])
    return np.where(keep, uv, np.inf).min(axis=2), np.where(keep, uv, -np.inf).max(axis=2)


def _frame_mates(frame: np.ndarray) -> np.ndarray:
    """(rows, widest frame) indices of the rows of each row's frame, padded
    with -1; ``frame`` must not decrease."""
    first, last = (np.searchsorted(frame, frame, side) for side in ("left", "right"))
    mates = first[:, None] + np.arange((last - first).max(initial=0))
    return np.where(mates < last[:, None], mates, -1)


def _visible_fractions(boxes: np.ndarray, depths: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Fraction of each bbox's raster cells (OCCLUSION_GRID^2 cell centres)
    not covered by a strictly nearer bbox of its frame; ``frame`` must not
    decrease.  Cell centres rise with the column index, so the columns an
    occluder covers in a raster row form one run, packed into a 64-bit word;
    a row's cover is the OR of the words of the target's occluders that span
    the row.  A target without occluders gets 1.0."""
    x1, y1, x2, y2 = boxes.T
    mates = _frame_mates(frame)
    occludes = ((mates >= 0) & (depths[mates] < depths[:, None]) & (x2[mates] > x1[:, None])
                & (x1[mates] < x2[:, None]) & (y2[mates] > y1[:, None])
                & (y1[mates] < y2[:, None]))                      # (targets, mates)
    fractions = np.ones(len(boxes))
    target, slot = np.nonzero(occludes)                          # pairs, grouped by target
    if not target.size:
        return fractions
    occ = mates[target, slot]
    ticks = (np.arange(OCCLUSION_GRID) + 0.5) / OCCLUSION_GRID
    cx = x1[target, None] + ticks * (x2 - x1)[target, None]      # (pairs, grid)
    cy = y1[target, None] + ticks * (y2 - y1)[target, None]
    words = np.packbits((cx >= x1[occ, None]) & (cx <= x2[occ, None]), axis=1).view(">u8")
    spans = np.where((cy >= y1[occ, None]) & (cy <= y2[occ, None]), words, np.uint64(0))
    first = np.flatnonzero(np.diff(target, prepend=-1))
    cover = np.bitwise_or.reduceat(spans, first, axis=0)          # (hit targets, grid)
    fractions[target[first]] = 1.0 - np.bitwise_count(cover).sum(axis=1) / OCCLUSION_GRID**2
    return fractions


def detect(cam: Camera, world: World, noise: DetectorNoiseModel | None = None,
           rng: np.random.Generator | None = None,
           min_visible_fraction: float = 0.3) -> list[Detection]:
    """Occlusion-aware synthetic detections for one camera view.

    Objects are processed in id order so the output is independent of how
    the world's object list happens to be ordered.  Confidence equals the
    unoccluded fraction of the projected box.
    """
    rows = object_rows([world.objects])
    noise = noise or DetectorNoiseModel()
    return _detections(cam, rows, *project_boxes(cam, rows.centers, rows.dims), [0],
                       [rng or np.random.default_rng(noise.rng_seed)], noise,
                       min_visible_fraction).detections()[0]


def _detections(cam: Camera, rows: ObjectRows, boxes, shown, frames, rngs,
                noise: DetectorNoiseModel, min_visible_fraction: float) -> FrameTable:
    """detect's output for ``frames`` (increasing frames of ``rows``) as one FrameTable,
    given every row's ``project_boxes`` output for ``cam`` and one generator per frame.  Only
    the noise draws run per frame, in id order; jitter, clip, swap and reject run on all boxes
    at once.  A frame's false positive follows its objects' detections."""
    rows_in = np.flatnonzero(shown & (rows.frame[:, None] == frames).any(axis=1))
    fractions = _visible_fractions(boxes[rows_in], (rows.centers[rows_in] - cam.position)
                                   @ cam.rotation[2], rows.frame[rows_in])
    enough = fractions >= min_visible_fraction
    rows_in, fractions = rows_in[enough], fractions[enough]
    ends = np.searchsorted(rows.frame[rows_in], frames, side="right").tolist()
    kept, jitter = np.ones(len(rows_in), dtype=bool), np.zeros((len(rows_in), 4))
    false = []    # each false positive's [frame slot, class, x1, y1, x2, y2, confidence]
    for at, (rng, start, end) in enumerate(zip(rngs, [0, *ends[:-1]], ends)):
        for j in range(start, end):
            if noise.p_miss > 0.0 and rng.random() < noise.p_miss:
                kept[j] = False
            elif noise.jitter_sigma > 0.0:
                jitter[j] = rng.normal(0.0, noise.jitter_sigma, size=4)
        if noise.p_false_positive > 0.0 and rng.random() < noise.p_false_positive:
            cls = int(rng.integers(0, len(CLASSES)))
            (cx, cy), (w, h) = rng.uniform(0.1, 0.9, size=2), rng.uniform(0.02, 0.2, size=2)
            x1, x2 = max(cx - w / 2, 0.0), min(cx + w / 2, 1.0)
            y1, y2 = max(cy - h / 2, 0.0), min(cy + h / 2, 1.0)
            if x1 < x2 and y1 < y2:
                false.append([at, cls, x1, y1, x2, y2, float(rng.uniform(0.3, 1.0))])

    coords = boxes[rows_in]
    if noise.jitter_sigma > 0.0:
        scale = np.array([cam.image_width, cam.image_height] * 2, dtype=float)
        coords = np.clip(coords + jitter / scale, 0.0, 1.0)
        coords = np.concatenate([np.minimum(coords[:, :2], coords[:, 2:]),
                                 np.maximum(coords[:, :2], coords[:, 2:])], axis=1)
        kept &= np.all(coords[:, :2] < coords[:, 2:], axis=1)  # jitter can collapse a box
    before = np.cumsum(np.r_[0, kept])[[0, *ends]]    # kept detections before each frame end
    false = np.reshape(false, (-1, 7))
    slot = false[:, 0].astype(np.int64)
    at = before[1:][slot]   # a false positive follows its frame's kept detections
    return FrameTable(np.full(len(ends), cam.camera_id), np.array(frames, dtype=np.int64),
                      np.diff(before) + np.bincount(slot, minlength=len(ends)),
                      np.insert(rows.classes[rows_in][kept], at, false[:, 1]),
                      np.insert(coords[kept], at, false[:, 2:6], axis=0),
                      np.insert(fractions[kept], at, false[:, 6]))


# ---------------------------------------------------------------------------
# Trace (de)serialization
# ---------------------------------------------------------------------------

def world_from_objects(cfg: ScenarioConfig, objects: list[SceneObject]) -> World:
    basestations, wall_south, wall_north = build_geometry(cfg)
    return World(objects, cfg.street_length, cfg.lanes, cfg.lane_width, basestations,
                 wall_south, wall_north)
