"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: scalar loops instead of
vectorized sums, point sampling plus a separating-axis test instead of slab
clipping, per-beam power scans instead of a batched argmax, and a per-box
raster loop instead of a coverage-mask product.
"""

import cmath
import math

import numpy as np

from beamsight.scene import OCCLUSION_GRID


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
