"""Reference implementations used as test oracles.

Most deliberately avoid the library's code paths: scalar loops instead of
vectorized sums, point sampling plus a separating-axis test instead of slab
clipping, per-beam power scans instead of a batched argmax, a per-box
raster loop instead of OR-ed row masks, one object at a time through the
detector noise instead of array steps, and the near-plane crossing points
of every box instead of only the boxes the plane cuts.  ``per_frame_seed`` is
the exception: it is the seed pass one frame at a time, through ``detect``,
the slab test and, per owned user, the per-subcarrier beam scan
(``select_beam`` of ``channel_vector``), and pins the block-wise
``build_seed`` to it.  ``embed_bboxes`` embeds one frame with Python sorts
instead of the encoder's one array pass over all frames.  ``batch_major_run``
is the GRU forward pass on batch-major arrays: whole (3, batch, T, H) input
projections and a fresh array for every gate of every step.
``segment_sum_rows`` adds rows to their segments one at a time.
``simulate_trace`` is the simulate stage one world at a time: each frame
stepped object by object, and ``write_trace_columns`` writes the worlds'
objects and centres as plain ``np.save`` arrays of Python lists.
``read_records``, ``record_to_sample``, ``record_to_pair`` and
``_read_frames`` are the object reader of a dataset directory: every file
through plain ``np.load`` calls, then one record at a time, one
``Detection`` per box, each window's detection lists looked up in a dict.
``collect_windows``, ``balance_and_split``, ``conjugate_pairs``,
``write_dataset`` and ``build_dataset`` are its writer: one
``LabeledSample`` per window, one ``ConjugateSample`` per pair, and every
file ``np.save`` arrays built from those objects and from ``Detection``
objects; ``float32_corners`` rounds one box at a time, corner by corner.
``load_columns`` and ``save_columns`` read and write any column file, for
the tests that damage one.  ``evaluate_handoff`` scores a handoff one
``ConjugateSample`` at a time, each side through a per-sample predictor.

``window_tables`` is not an oracle: it is how tests build window tables
from hand-made samples, and ``samples_of``, ``pairs_of`` and
``detections_by_key`` view tables as objects again.
"""

import cmath
import dataclasses
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from beamsight.phy import (
    Codebook,
    channel_vector,
    segments_blocked,
    select_beam,
    synthesize_paths,
)
from beamsight.config import BBOX_FEATURE_SIZE
from beamsight.handoff import score_handoff
from beamsight.pipeline import (
    DETECT_STREAM,
    ConjugateSample,
    FrameTable,
    FutureLabel,
    LabeledDataset,
    LabeledSample,
    ObservedSequence,
    WindowTable,
    _samples,
    camera_to_bs,
)
from beamsight.scene import (
    _BOX_SIGNS,
    CLASS_CODES,
    CLASSES,
    _EDGE_END,
    _EDGE_START,
    NEAR_PLANE,
    OCCLUSION_GRID,
    Detection,
    DetectorNoiseModel,
    VehicleClass,
    build_world,
    detect,
    project_objects,
)


def scalar_channel(paths, ula, subcarriers, cyclic_prefix, sample_time):
    """Naive triple-loop scalar evaluation of the geometric channel sum."""
    h = np.zeros((subcarriers, ula.elements), dtype=complex)
    for k in range(subcarriers):
        for d in range(cyclic_prefix):
            for p in paths:
                x = (d * sample_time - p.delay) / sample_time
                pulse = 1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x)
                phase = cmath.exp(-1j * 2 * math.pi * k * d / subcarriers)
                direction = np.array([
                    math.cos(p.elevation) * math.cos(p.azimuth),
                    math.cos(p.elevation) * math.sin(p.azimuth),
                    math.sin(p.elevation),
                ])
                proj = float(direction @ ula.axis_vector)
                for m in range(ula.elements):
                    a_m = cmath.exp(
                        1j * 2 * math.pi / ula.wavelength * ula.spacing * m * proj)
                    h[k, m] += p.gain * phase * pulse * a_m
    return h


def exhaustive_beam_scan(channel, codebook):
    """Per-beam scalar power scan with first-max tie-break."""
    best, best_power = None, -1.0
    for q in range(codebook.n_beams):
        f = codebook.vectors[q]
        power = 0.0
        for k in range(channel.shape[0]):
            power += abs(np.dot(channel[k], f)) ** 2
        if power > best_power:
            best, best_power = q + 1, power
    return best


def unoccluded_fraction(bbox, depth: float, others) -> float:
    """Fraction of a bbox's raster cells not covered by any nearer bbox.

    ``others`` holds (bbox, depth) pairs for every other object; strictly
    smaller depth occludes.  The test raster is OCCLUSION_GRID^2 cell
    centres spread across the bbox, which keeps the check deterministic
    and independent of object ordering.
    """
    x1, y1, x2, y2 = bbox
    n = OCCLUSION_GRID
    cx = x1 + (np.arange(n) + 0.5) / n * (x2 - x1)
    cy = y1 + (np.arange(n) + 0.5) / n * (y2 - y1)
    gx, gy = np.meshgrid(cx, cy)
    covered = np.zeros((n, n), dtype=bool)
    for (ox1, oy1, ox2, oy2), odepth in others:
        if odepth >= depth:
            continue
        if ox2 <= x1 or ox1 >= x2 or oy2 <= y1 or oy1 >= y2:
            continue
        covered |= (gx >= ox1) & (gx <= ox2) & (gy >= oy1) & (gy <= oy2)
    return 1.0 - float(covered.mean())


def scalar_detections(cam, world, noise, rng, min_visible_fraction):
    """detect one object at a time, in id order: the box from
    ``project_objects``, the confidence from ``unoccluded_fraction``, then a
    miss draw and, for a box not missed, four jitter draws in pixels; the
    jittered box is clipped to the image, its edges put in order, and it is
    dropped when they meet.  Last, the frame's false-positive draws."""
    ordered = sorted(world.objects, key=lambda o: o.object_id)
    depths = (np.stack([o.center for o in ordered]) - cam.position) @ cam.rotation[2]
    shown = [(o, b, float(d)) for o, b, d in zip(ordered, project_objects(cam, ordered), depths)
             if b is not None]
    detections = []
    for obj, bbox, depth in shown:
        fraction = unoccluded_fraction(bbox, depth, [(b, d) for o, b, d in shown if o is not obj])
        if fraction < min_visible_fraction:
            continue
        if noise.p_miss > 0.0 and rng.random() < noise.p_miss:
            continue
        if noise.jitter_sigma > 0.0:
            size = (cam.image_width, cam.image_height) * 2
            moved = [min(max(c + float(n) / s, 0.0), 1.0) for c, n, s in
                     zip(bbox, rng.normal(0.0, noise.jitter_sigma, size=4), size)]
            x1, x2 = sorted(moved[0::2])
            y1, y2 = sorted(moved[1::2])
            if x1 == x2 or y1 == y2:
                continue
            bbox = (x1, y1, x2, y2)
        detections.append(Detection(obj.object_class, bbox, fraction))
    if noise.p_false_positive > 0.0 and rng.random() < noise.p_false_positive:
        cls = list(VehicleClass)[int(rng.integers(0, len(VehicleClass)))]
        cx, cy = rng.uniform(0.1, 0.9, size=2)
        w, h = rng.uniform(0.02, 0.2, size=2)
        x1, x2 = max(cx - w / 2, 0.0), min(cx + w / 2, 1.0)
        y1, y2 = max(cy - h / 2, 0.0), min(cy + h / 2, 1.0)
        if x1 < x2 and y1 < y2:
            detections.append(Detection(cls, (x1, y1, x2, y2), float(rng.uniform(0.3, 1.0))))
    return detections


def sat_segment_box(p0, p1, lo, hi) -> bool:
    """Separating-axis test for a segment against an axis-aligned box.

    Exact and algorithmically unrelated to parametric slab clipping; a
    touching contact counts as intersecting, matching closed-box
    semantics.
    """
    center = (np.asarray(lo) + np.asarray(hi)) / 2.0
    half = (np.asarray(hi) - np.asarray(lo)) / 2.0
    mid = (np.asarray(p0) + np.asarray(p1)) / 2.0 - center
    d = (np.asarray(p1) - np.asarray(p0)) / 2.0
    ad = np.abs(d)
    # box face normals
    for axis in range(3):
        if abs(mid[axis]) > half[axis] + ad[axis]:
            return False
    # cross products of the segment direction with the box axes
    if abs(mid[1] * d[2] - mid[2] * d[1]) > half[1] * ad[2] + half[2] * ad[1]:
        return False
    if abs(mid[2] * d[0] - mid[0] * d[2]) > half[2] * ad[0] + half[0] * ad[2]:
        return False
    if abs(mid[0] * d[1] - mid[1] * d[0]) > half[0] * ad[1] + half[1] * ad[0]:
        return False
    return True


def sampled_segment_oracle(p0, p1, boxes, spacing: float = 0.003) -> int:
    """Dense point-sampling segment-vs-box blockage oracle.

    Sampling is sound in both directions up to its resolution: a sample
    inside a box certifies a hit, and no sample inside the
    spacing-dilated box certifies a miss (a segment point inside the box
    implies nearby samples inside the dilated box).  Grazing chords
    inside the uncertainty band are decided by the exact separating-axis
    test.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    seg = p1 - p0
    length = float(np.linalg.norm(seg))
    if length == 0.0:
        return int(any(np.all(p0 >= lo) and np.all(p0 <= hi) for lo, hi in boxes))

    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        # sampling restricted to where the box can possibly be: points
        # farther than the half-diagonal (plus band) from the box centre
        # along the segment cannot touch the dilated box
        center = (lo + hi) / 2.0
        half_diag = float(np.linalg.norm(hi - lo)) / 2.0
        t_foot = float(np.clip((center - p0) @ seg / length**2, 0.0, 1.0))
        window = (half_diag + 3.0 * spacing) / length
        t_lo = max(0.0, t_foot - window)
        t_hi = min(1.0, t_foot + window)
        count = max(int(math.ceil((t_hi - t_lo) * length / spacing)) + 1, 2)
        fine_t = np.linspace(t_lo, t_hi, count)
        fine = p0[None, :] + fine_t[:, None] * seg[None, :]
        if np.any(np.all((fine >= lo) & (fine <= hi), axis=1)):
            return 1
        near = np.any(np.all((fine >= lo - spacing) & (fine <= hi + spacing), axis=1))
        if near and sat_segment_box(p0, p1, lo, hi):
            return 1
    return 0


def dense_projection_hull(cam, obj, per_edge=25):
    """Project a dense grid of box-surface points one at a time."""
    lo, hi = obj.bounds()
    ticks = [np.linspace(lo[i], hi[i], per_edge) for i in range(3)]
    faces = []
    for axis in range(3):
        for bound in (lo[axis], hi[axis]):
            a, b = [i for i in range(3) if i != axis]
            ga, gb = np.meshgrid(ticks[a], ticks[b])
            pts = np.zeros((ga.size, 3))
            pts[:, a] = ga.ravel()
            pts[:, b] = gb.ravel()
            pts[:, axis] = bound
            faces.append(pts)
    pts = np.concatenate(faces)

    cp, sp = math.cos(cam.pitch), math.sin(cam.pitch)
    cy, sy = math.cos(cam.yaw), math.sin(cam.yaw)
    fwd = np.array([cp * cy, cp * sy, sp])
    rgt = np.array([sy, -cy, 0.0])
    dwn = np.cross(fwd, rgt)
    rel = pts - cam.position
    z = rel @ fwd
    keep = z > 1e-3
    if not np.any(keep):
        return None, None
    rel, z = rel[keep], z[keep]
    fx = (cam.image_width / 2.0) / math.tan(cam.hfov / 2.0)
    fy = (cam.image_height / 2.0) / math.tan(cam.vfov / 2.0)
    u = fx * (rel @ rgt) / z + cam.image_width / 2.0
    v = fy * (rel @ dwn) / z + cam.image_height / 2.0
    return u, v


def all_points_project_boxes(cam, centers, dims):
    """``project_boxes`` over all 20 points of every box: its 8 corners and
    the points where its 12 edges cross the near plane, the points that do
    not exist masked out, so that no box takes a path of its own."""
    half = dims / 2.0
    corners = centers[:, None, :] + _BOX_SIGNS[None, :, :] * half[:, None, :]
    cam_pts = (corners - cam.position) @ cam.rotation.T         # (n, 8, 3)
    front = cam_pts[:, :, 2] > NEAR_PLANE
    start, end = cam_pts[:, _EDGE_START], cam_pts[:, _EDGE_END]  # (n, 12, 3)
    cut = front[:, _EDGE_START] != front[:, _EDGE_END]
    z0, z1 = start[:, :, 2], end[:, :, 2]
    t = (NEAR_PLANE - z0) / np.where(cut, z1 - z0, 1.0)
    points = np.concatenate([cam_pts, start + t[:, :, None] * (end - start)], axis=1)
    keep = np.concatenate([front, cut], axis=1)                  # (n, 20)
    depth = np.where(keep, points[:, :, 2], 1.0)

    fx, fy = cam.focal
    u = fx * points[:, :, 0] / depth + cam.image_width / 2.0
    v = fy * points[:, :, 1] / depth + cam.image_height / 2.0
    x1 = np.maximum(np.where(keep, u, np.inf).min(axis=1), 0.0)
    x2 = np.minimum(np.where(keep, u, -np.inf).max(axis=1), float(cam.image_width))
    y1 = np.maximum(np.where(keep, v, np.inf).min(axis=1), 0.0)
    y2 = np.minimum(np.where(keep, v, -np.inf).max(axis=1), float(cam.image_height))
    boxes = np.stack([x1 / cam.image_width, y1 / cam.image_height,
                      x2 / cam.image_width, y2 / cam.image_height], axis=1)
    return boxes, (x1 < x2) & (y1 < y2)


def per_frame_seed(worlds, cfg):
    """The seed pass one frame and basestation at a time: ``detect`` per
    (frame, camera), ownership from each camera's ``project_objects``, the
    slab test over the frame's owned users and each one's beam from the
    scan of its per-subcarrier channel.  Returns the sorted
    (bs, camera, user, frame, beam, status) rows and the owning cameras'
    detections, keyed by (camera, frame)."""
    noise = DetectorNoiseModel(p_miss=cfg.p_miss, jitter_sigma=cfg.jitter_sigma,
                               p_false_positive=cfg.p_false_positive)
    rows, detections = [], {}
    for frame, world in enumerate(worlds):
        users = sorted(world.users, key=lambda o: o.object_id)
        if not users:
            continue
        ids = np.array([o.object_id for o in world.objects])
        half = np.stack([o.dims for o in world.objects]) / 2.0
        mins = np.stack([o.center for o in world.objects]) - half
        maxs = np.stack([o.center for o in world.objects]) + half
        user_ids = np.array([u.object_id for u in users])
        centers = np.stack([u.center for u in users])
        antennas = np.stack([u.antenna_point for u in users])
        for bs in world.basestations:
            owner, best_align = np.full(len(users), -1), np.full(len(users), -2.0)
            for cam in bs.cameras:
                visible = np.array([b is not None for b in project_objects(cam, users)])
                to_user = centers - cam.position
                align = np.vecdot(to_user, cam.rotation[2]) / np.sqrt(
                    np.vecdot(to_user, to_user))
                better = visible & (align > best_align)
                owner[better], best_align[better] = cam.camera_id, align[better]
            owned = np.flatnonzero(owner >= 0)
            for camera in set(owner[owned].tolist()):
                cam = next(c for c in bs.cameras if c.camera_id == camera)
                rng = np.random.default_rng([cfg.seed, DETECT_STREAM, frame, camera])
                detections[camera, frame] = detect(cam, world, noise, rng,
                                                   cfg.min_visible_fraction)
            status = segments_blocked(bs.position, antennas[owned], mins, maxs,
                                      user_ids[owned, None] == ids[None, :])
            codebook = Codebook.build(bs.ula, cfg.beams)
            beams = [select_beam(channel_vector(
                synthesize_paths(bs, users[i], world, cfg.reflection_loss_db, los=los),
                bs.ula, cfg.subcarriers, cfg.cyclic_prefix, cfg.sample_time), codebook)
                for i, los in zip(owned, status.tolist())]
            rows += zip([bs.bs_id] * len(owned), owner[owned].tolist(),
                        user_ids[owned].tolist(), [frame] * len(owned), beams,
                        status.tolist())
    return sorted(rows), detections


def batch_major_run(model, x, train, rng, caches=None):
    """``GruPredictor._run`` on batch-major arrays: layer 0's projection of
    the distinct rows gathered to (3, batch, T, H), each deeper layer's one
    product per gate over all (batch * T) rows, hidden states (batch, T+1, H)
    and new arrays for every step's gates, its h U^T a product per gate.
    Appends to ``caches`` what the backward pass of ``logits_and_grads``
    reads: the gates stacked to (3, T, batch, H) and u_c to (T, batch, H)."""
    def sigmoid(v):
        return 0.5 * (1.0 + np.tanh(0.5 * v))

    def cell(a, h_prev, U):
        u = h_prev @ U
        z, r = sigmoid(a[0] + u[0]), sigmoid(a[1] + u[1])
        c = np.tanh(a[2] + r * u[2])
        return (1.0 - z) * h_prev + z * c, (z, r, c, u[2])

    batch, steps = x.index.shape
    hidden = model.hidden
    masks = {}
    uniq, inv = np.unique(x.index, return_inverse=True)
    layer_input = (x.rows[uniq], inv.reshape(batch, steps))
    for layer in range(model.layers):
        W, U, b = (model.params[f"l{layer}.{n}"].reshape(3, hidden, -1).transpose(0, 2, 1)
                   for n in "WUb")   # (3, in, H), (3, H, H), (3, 1, H)
        if layer == 0:
            distinct, positions = layer_input
            a = (distinct @ W + b)[:, positions]
        else:
            a = layer_input.reshape(batch * steps, hidden) @ W + b
            a = a.reshape(3, batch, steps, hidden)
        hs = np.zeros((batch, steps + 1, hidden), dtype=x.rows.dtype)
        gates = []
        for t in range(steps):
            hs[:, t + 1], step_gates = cell(a[:, :, t], hs[:, t], U)
            gates.append(step_gates)
        if caches is not None:
            caches.append((layer_input, hs, np.stack([np.stack(g[:3]) for g in gates], axis=1),
                           np.stack([g[3] for g in gates])))
        outputs = hs[:, 1:]
        if layer < model.layers - 1 and train and model.dropout > 0.0:
            keep = 1.0 - model.dropout
            masks[layer] = (rng.random(outputs.shape) < keep).astype(hs.dtype) / keep
            outputs = outputs * masks[layer]
        layer_input = outputs
    logits = layer_input[:, -1, :] @ model.params["out.W"].T + model.params["out.b"]
    return logits, layer_input[:, -1, :], masks


def embed_bboxes(detections, dim):
    """One frame's zero-padded float64 box-feature row: keep the ``dim // 6``
    most confident detections (ties by position), sort them by descending
    area, then x centre, then box, and write [x_cent, y_cent, x1, y1, x2, y2]
    for each."""
    capacity = dim // BBOX_FEATURE_SIZE
    kept = detections
    if len(detections) > capacity:
        order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
        kept = [detections[i] for i in sorted(order[:capacity])]

    def area(d):
        x1, y1, x2, y2 = d.bbox
        return (x2 - x1) * (y2 - y1)

    kept = sorted(kept, key=lambda d: (-area(d), (d.bbox[0] + d.bbox[2]) / 2.0, d.bbox))
    out = np.zeros(dim)
    for i, d in enumerate(kept):
        x1, y1, x2, y2 = d.bbox
        out[i * BBOX_FEATURE_SIZE:(i + 1) * BBOX_FEATURE_SIZE] = \
            [(x1 + x2) / 2.0, (y1 + y2) / 2.0, x1, y1, x2, y2]
    return out


def segment_sum_rows(values, segments, count):
    """Rows of ``values`` summed by ``segments`` into (count, k): each row
    added to its segment's float64 sum in row order, then cast back."""
    sums = np.zeros((count, values.shape[1]))
    for row, segment in zip(values, segments):
        sums[segment] += row
    return sums.astype(values.dtype)


def step_objects(world, dt):
    """``step_world`` one object at a time: velocity*dt added to each centre,
    its x wrapped into [0, street_length)."""
    stepped = []
    for obj in world.objects:
        center = obj.center + obj.velocity * dt
        center[0] = np.mod(center[0], world.street_length)
        stepped.append(dataclasses.replace(obj, center=center))
    return dataclasses.replace(world, objects=stepped)


TRACE_COLUMNS = ("ids", "classes", "dims", "velocities", "lanes", "centers")
WINDOW_COLUMNS = ("camera", "user", "t_end", "beams", "future")


def load_columns(path) -> list:
    """Every ``np.save`` array of a column file, each through ``np.load``."""
    with Path(path).open("rb") as fh:
        size, columns = Path(path).stat().st_size, []
        while fh.tell() < size:
            columns.append(np.load(fh))
        return columns


def save_columns(path, columns) -> None:
    """``columns`` as a column file, each through ``np.save``."""
    with Path(path).open("wb") as fh:
        for column in columns:
            np.save(fh, column)


def write_trace_columns(trace_dir, cfg, worlds):
    """The trace of ``worlds``, whose frames hold the same objects in ascending
    id order: the objects taken from the first world, every centre from its
    world, object by object."""
    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format": 3, "frames": len(worlds), "scenario": dataclasses.asdict(cfg)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    objects = worlds[0].objects
    save_columns(out / "trace.cols", [
        np.array([o.object_id for o in objects], dtype="<i8"),
        np.array([CLASS_CODES[o.object_class.value] for o in objects], dtype="|i1"),
        np.array([o.dims.tolist() for o in objects], dtype="<f8").reshape(-1, 3),
        np.array([o.velocity.tolist() for o in objects], dtype="<f8").reshape(-1, 3),
        np.array([o.lane for o in objects], dtype="<i8"),
        np.array([o.center.tolist() for world in worlds for o in world.objects],
                 dtype="<f8").reshape(-1, 3)])


def simulate_trace(cfg, frames, trace_dir):
    """The simulate stage's trace of ``frames`` frames from ``build_world(cfg)``,
    stepped with ``step_objects``."""
    worlds = [build_world(cfg)]
    for _ in range(frames - 1):
        worlds.append(step_objects(worlds[-1], cfg.dt))
    write_trace_columns(trace_dir, cfg, worlds)


def record_to_sample(record, frames):
    """A window record as a LabeledSample, labelled by its window; ``frames``
    maps (camera, frame) to that frame's detection list, which the windows that
    observe it share."""
    integers = (record["camera"], record["user"], record["t_end"],
                *record["beams"], *record["window"])
    if not all(type(v) is int for v in integers):
        raise TypeError("camera, user, t_end, beams and window must be integers")
    first = record["t_end"] - len(record["beams"]) + 1
    sequence = ObservedSequence(
        camera_id=record["camera"],
        user_id=record["user"],
        t_end=record["t_end"],
        beams=list(record["beams"]),
        detections=[frames[record["camera"], t] for t in range(first, record["t_end"] + 1)],
    )
    nlos = [i for i, status in enumerate(record["window"], 1) if status]
    label = FutureLabel(1 if nlos else 0, tuple(record["window"]), nlos[0] if nlos else None)
    return LabeledSample(sequence, label)


def record_to_pair(record, frames):
    """A pair record as a ConjugateSample of the user and time of its sides,
    its category 1 where its bs1 side is the NLOS one, else 2."""
    s1, s2 = (record_to_sample(record[side], frames) for side in ("bs1", "bs2"))
    if s1.label.status == s2.label.status:
        raise ValueError(f"statuses bs1 {s1.label.status}, bs2 {s2.label.status} are equal")
    cameras = [s.sequence.camera_id for s in (s1, s2)]
    if [camera_to_bs(c) for c in cameras] != [1, 2]:
        raise ValueError(f"cameras {cameras} of its bs1, bs2 sides are not of basestations 1, 2")
    if s1.key[1:] != s2.key[1:]:
        raise ValueError(f"user, t_end {s1.key[1:]} and {s2.key[1:]} of its sides differ")
    return ConjugateSample(s1.sequence.user_id, s1.sequence.t_end, s1, s2,
                           1 if s1.label.status == 1 else 2)


FRAME_COLUMNS = ("camera", "frame", "count", "classes", "boxes", "confidence")


def frame_columns(path) -> dict:
    """The six columns of a ``frames.cols`` by name, each through ``np.load``."""
    return dict(zip(FRAME_COLUMNS, load_columns(path)))


def save_frame_columns(path, columns: dict) -> None:
    """``columns`` (by name) as a ``frames.cols``, each through ``np.save``."""
    save_columns(path, [columns[name] for name in FRAME_COLUMNS])


FRAME_DEFECTS = ["unknown class", "x1 = x2", "past the image", "nan corner", "inf corner",
                 "confidence below 0", "nan confidence", "inf confidence", "count one more",
                 "count negative", "key repeated", "keys swapped", "a camera short",
                 "classes as <i8", "boxes as (n, 2)", "trailing bytes", "camera 7",
                 "frame negative", "frame 2**32"]


def break_frame_columns(path, defect: str) -> None:
    """``defect``, one of FRAME_DEFECTS, made in a ``frames.cols`` at its first rows."""
    if defect == "trailing bytes":
        Path(path).write_bytes(Path(path).read_bytes() + bytes(8))
        return
    c = frame_columns(path)
    if defect == "unknown class":
        c["classes"][0] = len(CLASSES)
    elif defect == "x1 = x2":
        c["boxes"][0, 2] = c["boxes"][0, 0]
    elif defect == "past the image":
        c["boxes"][0, 2] = 1.5
    elif defect.endswith(" corner"):
        c["boxes"][0, 1] = float(defect.split()[0])
    elif defect == "confidence below 0":
        c["confidence"][0] = -0.1
    elif defect.endswith(" confidence"):
        c["confidence"][0] = float(defect.split()[0])
    elif defect.startswith("count "):
        c["count"][0] = c["count"][0] + 1 if defect == "count one more" else -1
    elif defect.startswith("key"):   # the second frame's key is the first's, or they swap
        for k in ("camera", "frame"):
            c[k][:2] = c[k][[0, 0] if defect == "key repeated" else [1, 0]]
    elif defect == "camera 7":
        c["camera"][-1] = 7
    elif defect.startswith("frame "):
        c["frame"][0] = -1 if defect == "frame negative" else 2**32
    elif defect == "a camera short":
        c["camera"] = c["camera"][:-1]
    elif defect == "classes as <i8":
        c["classes"] = c["classes"].astype("<i8")
    else:
        c["boxes"] = c["boxes"].reshape(-1, 2)
    save_frame_columns(path, c)


def _read_frames(dataset_dir):
    """``frames.cols`` as a dict (camera, frame) -> list of Detections, in file order."""
    camera, frame, count, classes, boxes, confidence = frame_columns(
        Path(dataset_dir) / "frames.cols").values()
    detections = iter([Detection(CLASSES[c], tuple(box), p) for c, box, p in zip(
        classes.tolist(), boxes.tolist(), confidence.tolist())])
    return {(c, f): list(itertools.islice(detections, n))
            for c, f, n in zip(camera.tolist(), frame.tolist(), count.tolist())}


def window_groups(path) -> list[dict]:
    """The window groups of a split file (one) or a pair file (bs1, then bs2),
    each a dict of its columns by WINDOW_COLUMNS name."""
    columns = load_columns(path)
    return [dict(zip(WINDOW_COLUMNS, columns[i:i + 5])) for i in range(0, len(columns), 5)]


def save_window_groups(path, groups) -> None:
    save_columns(path, [group[name] for group in groups for name in WINDOW_COLUMNS])


def read_records(path):
    """A split file's windows as {"camera", "user", "t_end", "beams", "window"}
    records, or a pair file's pairs as {"bs1", "bs2"} records of two windows."""
    sides = [[{"camera": c, "user": u, "t_end": t, "beams": b, "window": w}
              for c, u, t, b, w in zip(*(group[name].tolist() for name in WINDOW_COLUMNS))]
             for group in window_groups(path)]
    return sides[0] if len(sides) == 1 else [{"bs1": a, "bs2": b} for a, b in zip(*sides)]


def collect_windows(seed, observed=8, future=5):
    """Per basestation, one LabeledSample per stride-1 window of
    observed + future rows of one stream, row by row."""
    span = observed + future
    stream = seed.stream_ids()
    detections = detections_by_key(seed.frames)
    bs, camera, user, frame, beam, status = np.stack(
        [seed.bs, seed.camera, seed.user, seed.frame, seed.beam, seed.status]).tolist()
    windows = {1: [], 2: []}
    for start in range(len(seed) - span + 1):
        if stream[start] != stream[start + span - 1]:
            continue
        mid = start + observed
        statuses = tuple(status[mid:start + span])
        label = 1 if any(statuses) else 0
        sequence = ObservedSequence(
            camera_id=camera[start], user_id=user[start], t_end=frame[mid - 1],
            beams=beam[start:mid],
            detections=[detections[camera[start], t] for t in frame[start:mid]])
        windows[bs[start]].append(LabeledSample(
            sequence, FutureLabel(label, statuses, statuses.index(1) + 1 if label else None)))
    return windows


def balance_and_split(samples, quota, split_fraction=0.5, seed=0):
    """Samples grouped by (camera, label) in a dict; ``quota`` drawn per group."""
    groups = {}
    for sample in samples:
        groups.setdefault((sample.sequence.camera_id, sample.label.status), []).append(sample)
    rng = np.random.default_rng([seed, 1])
    train, val = [], []
    for key in sorted(groups):
        group = groups[key]
        take = min(quota, len(group))
        if take == 0:
            continue
        picked = [group[i] for i in rng.choice(len(group), size=take, replace=False)]
        n_train = int(round(take * split_fraction))
        train.extend(picked[:n_train])
        val.extend(picked[n_train:])
    return LabeledDataset(train, "train"), LabeledDataset(val, "val")


def conjugate_pairs(windows_bs1, windows_bs2, overlap_cameras=(3, 4), exclude_keys=frozenset()):
    """A hash join of the overlap cameras' windows on (user, t_end)."""
    def index(windows, camera):
        return {(s.sequence.user_id, s.sequence.t_end): s for s in windows
                if s.sequence.camera_id == camera and s.key not in exclude_keys}

    index1, index2 = (index(w, c) for w, c in zip((windows_bs1, windows_bs2), overlap_cameras))
    return [ConjugateSample(key[0], key[1], index1[key], index2[key],
                            1 if index1[key].label.status == 1 else 2)
            for key in sorted(index1.keys() & index2.keys())
            if index1[key].label.status != index2[key].label.status]


def sample_columns(samples, observed, future) -> dict:
    """The window columns of LabeledSamples, by WINDOW_COLUMNS name."""
    return {"camera": np.array([s.sequence.camera_id for s in samples], dtype="<i8"),
            "user": np.array([s.sequence.user_id for s in samples], dtype="<i8"),
            "t_end": np.array([s.sequence.t_end for s in samples], dtype="<i8"),
            "beams": np.array([s.sequence.beams for s in samples], dtype="<i2").reshape(-1, observed),
            "future": np.array([s.label.window for s in samples], dtype="|i1").reshape(-1, future)}


def float32_corners(bbox):
    """A box's corners as their nearest float32s, as floats; where two corners
    of an axis round to one float32, the low one moves a float32 step down,
    or the high one a step up when the low one is 0."""
    corners = [np.float32(v) for v in bbox]
    for lo, hi in ((0, 2), (1, 3)):
        if corners[lo] == corners[hi] and corners[lo] > 0:
            corners[lo] = np.nextafter(corners[lo], np.float32(-1))
        elif corners[lo] == corners[hi]:
            corners[hi] = np.nextafter(corners[hi], np.float32(1))
    return [float(c) for c in corners]


def write_dataset(out_dir, train, val, pairs, manifest, observed, future):
    """Each file's columns through ``np.save``: a split's windows, the pairs'
    bs1 windows then their bs2 windows, and in frames.cols the first detection
    list seen for each observed (camera, frame), in key order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    windows = [*train.samples, *val.samples,
               *(s for p in pairs for s in (p.sample_bs1, p.sample_bs2))]
    frames = {}
    for seq in (w.sequence for w in windows):
        for t, detections in enumerate(seq.detections, seq.t_end - len(seq.beams) + 1):
            frames.setdefault((seq.camera_id, t), detections)
    keys = sorted(frames)
    flat = [d for key in keys for d in frames[key]]
    save_frame_columns(out / "frames.cols", {
        "camera": np.array([c for c, _ in keys], dtype="<i8"),
        "frame": np.array([f for _, f in keys], dtype="<i8"),
        "count": np.array([len(frames[key]) for key in keys], dtype="<i8"),
        "classes": np.array([CLASS_CODES[d.object_class.value] for d in flat], dtype="|i1"),
        "boxes": np.array([float32_corners(d.bbox) for d in flat], dtype="<f4").reshape(-1, 4),
        "confidence": np.array([d.confidence for d in flat], dtype="<f8")})
    for name, groups in (("train.ndrec", [train.samples]), ("val.ndrec", [val.samples]),
                         ("pairs.ndrec", [[p.sample_bs1 for p in pairs],
                                          [p.sample_bs2 for p in pairs]])):
        save_window_groups(out / name, [sample_columns(g, observed, future) for g in groups])
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def build_dataset(seed, ds_cfg, out_dir, manifest):
    """The dataset of a Seed through the object writer, with ``manifest``'s
    counts computed from the objects."""
    windows = collect_windows(seed, ds_cfg.observed, ds_cfg.future)
    everything = windows[1] + windows[2]
    train, val = balance_and_split(everything, ds_cfg.quota, ds_cfg.split_fraction, ds_cfg.seed)
    pairs = conjugate_pairs(windows[1], windows[2], ds_cfg.overlap_cameras,
                            frozenset(s.key for s in train.samples))

    def histogram(samples):
        return dict(sorted(Counter(f"camera{s.sequence.camera_id}_label{s.label.status}"
                                   for s in samples).items()))

    write_dataset(out_dir, train, val, pairs, dict(manifest, counts={
        "windows": len(everything), "train": histogram(train.samples),
        "val": histogram(val.samples), "pairs": len(pairs),
        "pairs_category1": sum(p.category == 1 for p in pairs),
        "pairs_category2": sum(p.category == 2 for p in pairs),
        "shortfalls": {f"camera{c}_label{s}": ds_cfg.quota - n for (c, s), n in Counter(
            (w.sequence.camera_id, w.label.status) for w in everything).items()
            if n < ds_cfg.quota}}), ds_cfg.observed, ds_cfg.future)


def window_tables(*groups):
    """One WindowTable per group of LabeledSamples, all observed in one
    FrameTable that holds each (camera, frame) they observe once, in that
    order, with the first detection list seen for it."""
    samples = [s for group in groups for s in group]

    def columns(rows):
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)

    camera, user, t_end = columns([s.key for s in samples]).reshape(-1, 3).T
    beams = columns([s.sequence.beams for s in samples])
    frame = t_end[:, None] + np.arange(1 - beams.shape[1], 1)
    keys, first, rows = np.unique(np.stack([np.repeat(camera, beams.shape[1]), frame.ravel()], 1),
                                  axis=0, return_index=True, return_inverse=True)
    detections = [d for s in samples for d in s.sequence.detections]
    whole = WindowTable(camera, user, t_end, beams, columns([s.label.window for s in samples]),
                        FrameTable.of([(c, f, detections[i]) for (c, f), i in zip(
                            keys.tolist(), first.tolist())]), rows.reshape(frame.shape))
    bounds = itertools.accumulate(map(len, groups), initial=0)
    return [whole.take(slice(lo, hi)) for lo, hi in itertools.pairwise(bounds)]


def detections_by_key(frames):
    """A FrameTable as a dict (camera, frame) -> list of Detections, in table order."""
    return dict(zip(zip(frames.camera.tolist(), frames.frame.tolist()), frames.detections()))


def samples_of(windows):
    """An observed WindowTable as LabeledSamples."""
    return _samples(windows, windows.frames.detections())


def pairs_of(pairs):
    """The (bs1, bs2, category) pairs of ``conjugate_pairs`` as ConjugateSamples."""
    bs1, bs2, category = pairs
    return [ConjugateSample(s1.sequence.user_id, s1.sequence.t_end, s1, s2, c)
            for s1, s2, c in zip(samples_of(bs1), samples_of(bs2), category.tolist())]


def evaluate_handoff(predict_bs1, predict_bs2, pairs):
    """``score_handoff`` of ``ConjugateSample``s: ``predict_bs1`` and
    ``predict_bs2`` map a ``LabeledSample`` to a binary future-link-status
    prediction; the two are evaluated independently."""
    return score_handoff([int(predict_bs1(p.sample_bs1)) for p in pairs],
                         [int(predict_bs2(p.sample_bs2)) for p in pairs],
                         [p.sample_bs1.label.status for p in pairs],
                         [p.sample_bs2.label.status for p in pairs],
                         [p.category for p in pairs])
