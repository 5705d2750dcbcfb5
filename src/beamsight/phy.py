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

from .scene import Basestation, SceneObject, UlaGeometry, World

SPEED_OF_LIGHT = 299_792_458.0


def steering_vector(elements: int, wavelength: float, spacing: float, angle: float) -> np.ndarray:
    """Unit-norm ULA steering vector for an angle measured from the array axis.

    Element m carries phase (2*pi/wavelength)*spacing*m*cos(angle); every
    element has magnitude 1/sqrt(elements) and element 0 is exactly real.
    """
    if elements < 1:
        raise ValueError("elements must be >= 1")
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    m = np.arange(elements)
    phase = 2.0 * np.pi / wavelength * spacing * m * math.cos(angle)
    return np.exp(1j * phase) / math.sqrt(elements)


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


def array_response(ula: UlaGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """ULA response for a 3-D arrival direction projected onto the array axis."""
    direction = np.array([
        math.cos(elevation) * math.cos(azimuth),
        math.cos(elevation) * math.sin(azimuth),
        math.sin(elevation),
    ])
    proj = float(direction @ ula.axis_vector)
    m = np.arange(ula.elements)
    return np.exp(1j * 2.0 * np.pi / ula.wavelength * ula.spacing * m * proj)


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
    delays = np.array([p.delay for p in paths])
    if np.any(delays >= cyclic_prefix * sample_time):
        raise ValueError(
            f"path delay {delays.max():.3e} s exceeds the cyclic prefix span "
            f"{cyclic_prefix * sample_time:.3e} s"
        )
    gains = np.array([p.gain for p in paths], dtype=complex)
    azimuths = np.array([p.azimuth for p in paths])
    elevations = np.array([p.elevation for p in paths])
    directions = np.stack([
        np.cos(elevations) * np.cos(azimuths),
        np.cos(elevations) * np.sin(azimuths),
        np.sin(elevations),
    ], axis=1)
    proj = directions @ ula.axis_vector
    m = np.arange(ula.elements)
    responses = np.exp(
        1j * 2.0 * np.pi / ula.wavelength * ula.spacing * np.outer(proj, m))
    taps = np.arange(cyclic_prefix)
    pulse = np.sinc(taps[None, :] - delays[:, None] / sample_time)      # (L, D)
    k = np.arange(subcarriers)
    phase = np.exp(-2j * np.pi * np.outer(k, taps) / subcarriers)       # (K, D)
    # contract paths first: per-tap array amplitudes, then the DFT over taps
    tap_amps = (pulse * gains[:, None]).T @ responses                   # (D, M)
    return phase @ tap_amps


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


# ---------------------------------------------------------------------------
# Link-status geometry
# ---------------------------------------------------------------------------

def los_status(bs: Basestation, user: SceneObject, world: World) -> int:
    """0 when the antenna-to-antenna segment is clear, 1 when blocked."""
    p0 = bs.position
    p1 = user.antenna_point
    ids, all_mins, all_maxs = world.object_boxes()
    keep = ids != user.object_id
    if not np.any(keep):
        return 0
    mins, maxs = all_mins[keep], all_maxs[keep]
    d = p1 - p0
    ok = np.ones(len(mins), dtype=bool)
    t_enter = np.zeros(len(mins))
    t_exit = np.ones(len(mins))
    for axis in range(3):
        if d[axis] == 0.0:
            ok &= (p0[axis] >= mins[:, axis]) & (p0[axis] <= maxs[:, axis])
            continue
        t0 = (mins[:, axis] - p0[axis]) / d[axis]
        t1 = (maxs[:, axis] - p0[axis]) / d[axis]
        t_enter = np.maximum(t_enter, np.minimum(t0, t1))
        t_exit = np.minimum(t_exit, np.maximum(t0, t1))
    return 1 if bool(np.any(ok & (t_enter <= t_exit))) else 0


def _direction_angles(vec: np.ndarray) -> tuple[float, float]:
    azimuth = math.atan2(vec[1], vec[0])
    elevation = math.atan2(vec[2], math.hypot(vec[0], vec[1]))
    return azimuth, elevation


def synthesize_paths(
    bs: Basestation,
    user: SceneObject,
    world: World,
    reflection_loss_db: float = 10.0,
    los: int | None = None,
) -> list[ChannelPath]:
    """Direct path (when unblocked) plus up to two wall-reflection paths.

    Reflections use the image-source construction off the two building
    faces; they carry a fixed loss on top of free-space attenuation and
    are not occlusion-checked.  ``los`` may carry a precomputed
    los_status value to avoid re-testing the segment.
    """
    wavelength = bs.ula.wavelength
    target = user.antenna_point
    paths: list[ChannelPath] = []

    if los is None:
        los = los_status(bs, user, world)
    if los == 0:
        vec = target - bs.position
        dist = float(np.linalg.norm(vec))
        gain = wavelength / (4.0 * np.pi * dist) * np.exp(-2j * np.pi * dist / wavelength)
        az, el = _direction_angles(vec / dist)
        paths.append(ChannelPath(gain=gain, delay=dist / SPEED_OF_LIGHT,
                                 azimuth=az, elevation=el))

    loss = 10.0 ** (-reflection_loss_db / 20.0)
    for wall_y in (world.wall_south, world.wall_north):
        image = bs.position.copy()
        image[1] = 2.0 * wall_y - image[1]
        span = target - image
        if span[1] == 0.0:
            continue
        t = (wall_y - image[1]) / span[1]
        if not 0.0 < t < 1.0:
            continue
        bounce = image + t * span
        if not (0.0 <= bounce[0] <= world.street_length and bounce[2] >= 0.0):
            continue
        length = float(np.linalg.norm(span))
        gain = (wavelength / (4.0 * np.pi * length) * loss
                * np.exp(-2j * np.pi * length / wavelength))
        direction = (bounce - bs.position)
        az, el = _direction_angles(direction / np.linalg.norm(direction))
        paths.append(ChannelPath(gain=gain, delay=length / SPEED_OF_LIGHT,
                                 azimuth=az, elevation=el))
    return paths

