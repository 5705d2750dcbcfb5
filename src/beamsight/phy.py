"""Beam-steering codebook, geometric OFDM channel, and link-status geometry.

The basestation applies a single-RF-chain analog codebook of Q steering
vectors over uniformly quantized azimuth angles.  Channels follow a
limited-scattering geometric model: per path a complex gain, delay, and
arrival angles, combined over cyclic-prefix taps with a sinc pulse shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import Basestation, SceneObject, UlaGeometry, World, object_rows

SPEED_OF_LIGHT = 299_792_458.0


@dataclass
class Codebook:
    """Beam-steering codebook over uniformly quantized azimuth angles."""

    elements: int
    angles: np.ndarray        # (Q,) quantized angles 2*pi*q/Q
    vectors: np.ndarray       # (Q, elements) unit-norm steering vectors

    @classmethod
    def build(cls, ula: UlaGeometry, n_beams: int) -> "Codebook":
        if n_beams < 1:
            raise ValueError("codebook needs at least one beam")
        q = np.arange(n_beams)
        angles = 2.0 * np.pi * q / n_beams
        # Duplicate beams must be bit-identical so the lowest-index
        # tie-break is well defined.  Two sources of duplication: the
        # cosine symmetry cos(2*pi*q/Q) = cos(2*pi*(Q-q)/Q), handled by
        # evaluating through the smaller index, and phase aliasing (at
        # half-wavelength spacing the slopes for cos = +1 and -1 differ
        # by exactly one cycle per element), handled by reducing the
        # per-element slope modulo one cycle.
        cosines = np.cos(2.0 * np.pi * np.minimum(q, n_beams - q) / n_beams)
        slopes = np.mod(ula.spacing / ula.wavelength * cosines, 1.0)
        m = np.arange(ula.elements)
        phases = 2.0 * np.pi * np.outer(slopes, m)
        vectors = np.exp(1j * phases) / math.sqrt(ula.elements)
        return cls(elements=ula.elements, angles=angles, vectors=vectors)

    @property
    def n_beams(self) -> int:
        return len(self.angles)

    def beam(self, index: int) -> np.ndarray:
        """Beam by 1-based index."""
        if not 1 <= index <= self.n_beams:
            raise IndexError(f"beam index {index} outside 1..{self.n_beams}")
        return self.vectors[index - 1]


@dataclass
class ChannelPath:
    gain: complex             # includes path loss
    delay: float              # seconds
    azimuth: float            # rad, arrival azimuth at the array
    elevation: float          # rad, arrival elevation

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("path delay must be >= 0")


def _responses(azimuths, elevations, ula: UlaGeometry) -> np.ndarray:
    """Array response a_l of each path, shape (..., L, elements)."""
    cos_el = np.cos(elevations)
    proj = np.stack([cos_el * np.cos(azimuths), cos_el * np.sin(azimuths),
                     np.sin(elevations)], axis=-1) @ ula.axis_vector
    m = np.arange(ula.elements)
    return np.exp(1j * 2.0 * np.pi / ula.wavelength * ula.spacing * (proj[..., None] * m))


def _pulse_weights(gains, delays, taps, cyclic_prefix: int, sample_time: float) -> np.ndarray:
    """gain_l * p(d*Ts - tau_l) at each tap d of ``taps``, 0 from d = D on; tau < D*Ts."""
    if np.any(delays >= cyclic_prefix * sample_time):
        raise ValueError(f"path delay {np.max(delays):.3e} s exceeds the cyclic prefix "
                         f"span {cyclic_prefix * sample_time:.3e} s")
    pulse = np.sinc(taps - delays[..., None] / sample_time)
    return np.where(taps < cyclic_prefix, pulse, 0.0) * gains[..., None]


def channel_vector(
    paths: list[ChannelPath],
    ula: UlaGeometry,
    subcarriers: int,
    cyclic_prefix: int,
    sample_time: float,
) -> np.ndarray:
    """Per-subcarrier channel, shape (subcarriers, elements).

    h_k = sum_d sum_l gain_l * exp(-j*2*pi*k*d/K) * p(d*Ts - tau_l) * a_l
    with p the unit sinc pulse.  Every delay must satisfy tau < D*Ts.
    """
    if subcarriers < 1 or cyclic_prefix < 1 or sample_time <= 0:
        raise ValueError("subcarriers, cyclic_prefix, sample_time must be positive")
    if not paths:
        return np.zeros((subcarriers, ula.elements), dtype=complex)
    gains, delays, azimuths, elevations = (np.array([getattr(p, key) for p in paths])
                                           for key in ("gain", "delay", "azimuth", "elevation"))
    taps = np.arange(cyclic_prefix)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(subcarriers), taps) / subcarriers)  # (K, D)
    return phase @ (_pulse_weights(gains, delays, taps, cyclic_prefix, sample_time).T
                    @ _responses(azimuths, elevations, ula))                        # (D, M)


def received_power(channel: np.ndarray, beam: np.ndarray, power: float = 1.0) -> float:
    """Noiseless received-power proxy sum_k |h_k^T f|^2 * power."""
    channel = np.asarray(channel)
    beam = np.asarray(beam)
    if channel.ndim != 2 or channel.shape[1] != beam.shape[0]:
        raise ValueError(
            f"dimension mismatch: channel {channel.shape} vs beam {beam.shape}"
        )
    return float(np.sum(np.abs(channel @ beam) ** 2) * power)


def select_beam(channel: np.ndarray, codebook: Codebook) -> int:
    """1-based index of the codebook beam maximizing received power.

    Exhaustive noiseless scan; ties break toward the lowest index.
    """
    if codebook.n_beams < 1:
        raise ValueError("empty codebook")
    projections = channel @ codebook.vectors.T        # (K, Q)
    powers = np.sum(np.abs(projections) ** 2, axis=0)
    return int(np.argmax(powers)) + 1


def path_beams(gains, delays, azimuths, elevations, ula: UlaGeometry, codebook: Codebook,
               cyclic_prefix: int, sample_time: float, subcarriers: int) -> np.ndarray:
    """``select_beam`` of each user's channel, given by its paths along the last
    axis of the four (users, L) path arrays; 1-based, shape (users,).

    With the taps folded modulo K (tap d adds into row d mod K), Parseval gives
    sum_k |h_k . f|^2 = K * sum_r |T_r . f|^2, where T_r = sum_l w_lr a_l with
    path weights w_lr = sum_{d = r mod K} gain_l * p(d*Ts - tau_l).  So with
    c_lq = a_l . f_q and the Gram matrix G_lk = sum_r conj(w_lr) w_kr, beam q
    has power Re(c_q^H G c_q), and the scan never forms the channel or the
    taps.  Every delay must satisfy tau < D*Ts; ties break toward the lowest index.
    """
    rows = min(subcarriers, cyclic_prefix)
    folds = -(-cyclic_prefix // rows)                       # D taps, padded to whole folds
    weights = _pulse_weights(gains, delays, np.arange(folds * rows), cyclic_prefix, sample_time)
    weights = weights.reshape(*weights.shape[:-1], folds, rows).sum(axis=-2)  # (users, L, R)
    gram = np.conj(weights) @ np.swapaxes(weights, -1, -2)                  # (users, L, L)
    c = (_responses(azimuths, elevations, ula).reshape(-1, ula.elements)   # one GEMM
         @ codebook.vectors.T).reshape(*weights.shape[:-1], codebook.n_beams)  # (users, L, Q)
    powers = np.sum((np.conj(c) * (gram @ c)).real, axis=-2)
    return np.argmax(powers, axis=-1) + 1


# ---------------------------------------------------------------------------
# Link-status geometry
# ---------------------------------------------------------------------------

def segments_blocked(p0: np.ndarray, p1: np.ndarray, mins: np.ndarray,
                     maxs: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Slab test of the segments p0 -> p1[i] against closed boxes.

    ``p1`` is (pairs, 3), ``mins``/``maxs`` are (boxes, 3), or (pairs,
    boxes, 3) for boxes per segment, and ``skip`` (pairs, boxes) masks the
    boxes a segment is not tested against.
    Returns 1 for each segment that meets a box, else 0.
    """
    d = p1 - p0
    ok, t_enter, t_exit = ~skip, np.zeros(skip.shape), np.ones(skip.shape)
    for axis in range(3):
        # a segment parallel to the slab must start inside it
        flat = d[:, axis, None] == 0.0
        step = np.where(flat, 1.0, d[:, axis, None])
        t0 = (mins[..., axis] - p0[axis]) / step
        t1 = (maxs[..., axis] - p0[axis]) / step
        t_enter = np.where(flat, t_enter, np.maximum(t_enter, np.minimum(t0, t1)))
        t_exit = np.where(flat, t_exit, np.minimum(t_exit, np.maximum(t0, t1)))
        ok &= ~flat | ((p0[axis] >= mins[..., axis]) & (p0[axis] <= maxs[..., axis]))
    return np.any(ok & (t_enter <= t_exit), axis=1).astype(int)


def los_status(bs: Basestation, user: SceneObject, world: World) -> int:
    """0 when the antenna-to-antenna segment is clear, 1 when blocked."""
    rows = object_rows([world.objects])
    half = rows.dims / 2.0
    return int(segments_blocked(bs.position, user.antenna_point[None], rows.centers - half,
                                rows.centers + half, rows.ids[None] == user.object_id)[0])


def path_arrays(bs: Basestation, targets: np.ndarray, los: np.ndarray, world: World,
                reflection_loss_db: float = 10.0) -> tuple[np.ndarray, ...]:
    """Gain, delay, azimuth and elevation, each (targets, 3), of the direct
    path (where ``los`` is 0) and the south and north wall reflections.

    Reflections use the image-source construction off the two building
    faces; they carry a fixed loss on top of free-space attenuation and are
    not occlusion-checked.  A path that does not exist has gain 0.
    """
    wavelength = bs.ula.wavelength
    loss = 10.0 ** (-reflection_loss_db / 20.0)
    direct = targets - bs.position
    paths = [(direct, direct, los == 0)]           # (span, direction, used)
    for wall_y in (world.wall_south, world.wall_north):
        image = bs.position.copy()
        image[1] = 2.0 * wall_y - image[1]
        span = targets - image
        flat = span[:, 1] == 0.0
        t = (wall_y - image[1]) / np.where(flat, 1.0, span[:, 1])
        bounce = image + t[:, None] * span
        paths.append((span, bounce - bs.position,
                      ~flat & (0.0 < t) & (t < 1.0) & (0.0 <= bounce[:, 0])
                      & (bounce[:, 0] <= world.street_length) & (bounce[:, 2] >= 0.0)))
    span, direction, used = (np.stack(a, axis=1) for a in zip(*paths))
    length = np.sqrt(np.vecdot(span, span))
    gain = (wavelength / (4.0 * np.pi * length) * np.array([1.0, loss, loss])
            * np.exp(-2j * np.pi * length / wavelength))
    unit = direction / np.sqrt(np.vecdot(direction, direction))[..., None]
    azimuth = np.arctan2(unit[..., 1], unit[..., 0])
    elevation = np.arctan2(unit[..., 2], np.hypot(unit[..., 0], unit[..., 1]))
    return tuple(np.where(used, a, 0.0)
                 for a in (gain, length / SPEED_OF_LIGHT, azimuth, elevation))


def synthesize_paths(
    bs: Basestation,
    user: SceneObject,
    world: World,
    reflection_loss_db: float = 10.0,
    los: int | None = None,
) -> list[ChannelPath]:
    """Direct path (when unblocked) plus up to two wall-reflection paths,
    as ``path_arrays`` builds them.  ``los`` may carry a precomputed
    los_status value to avoid re-testing the segment.
    """
    if los is None:
        los = los_status(bs, user, world)
    arrays = path_arrays(bs, user.antenna_point[None], np.array([los]), world,
                         reflection_loss_db)
    return [ChannelPath(gain=complex(g), delay=float(d), azimuth=float(az),
                        elevation=float(el))
            for g, d, az, el in zip(*(a[0] for a in arrays)) if g != 0]
