"""Fixed embeddings mapping beams and detection lists into a shared space.

Beam indices go through a frozen Gaussian lookup table (no training);
per-frame detection lists become zero-padded stacks of 6-number box
features.  Both land in the same N-dimensional space consumed by the
recurrent predictor.  ``encode_dataset``, the one encoder, embeds each
camera frame once and gives every window's steps as indices into those
rows and the beam table.
"""

from __future__ import annotations

import logging

import numpy as np

from .config import BBOX_FEATURE_SIZE
from .pipeline import LabeledSample
from .predictor import Sequences
from .scene import Detection

log = logging.getLogger(__name__)


class BeamEmbeddingTable:
    """Frozen lookup table of Gaussian embedding vectors, one per beam.

    Entries are i.i.d. N(0, 1) draws rounded to float32 at construction that
    never change; the backing array is read-only so training code cannot
    mutate it.  (seed, n_beams, dim) fully determine the table.
    """

    def __init__(self, n_beams: int, dim: int, seed: int):
        if n_beams < 1 or dim < 1:
            raise ValueError("n_beams and dim must be >= 1")
        self.n_beams = n_beams
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._entries = rng.standard_normal((n_beams, dim)).astype(np.float32)
        self._entries.flags.writeable = False

    @property
    def entries(self) -> np.ndarray:
        return self._entries


def embed_frames(frames: list[list[Detection]], dim: int) -> np.ndarray:
    """Each frame's detections as a zero-padded float64 row (F, dim) of
    [x_cent, y_cent, x1, y1, x2, y2] box features, all frames in one pass.

    Canonical order: descending box area, ties by ascending x centre, then
    by the box.  When more boxes arrive than fit, the lowest-confidence ones
    are dropped first (logged).
    """
    capacity = dim // BBOX_FEATURE_SIZE
    counts = np.array([len(detections) for detections in frames], dtype=int)
    for n in counts[counts > capacity]:
        log.info("truncating %d of %d detections to fit embedding dim %d", n - capacity, n, dim)
    frame = np.repeat(np.arange(len(frames)), counts)
    flat = [d for detections in frames for d in detections]
    boxes = np.array([d.bbox for d in flat], dtype=float).reshape(-1, 4)
    # rank within the frame by confidence; the stable sort breaks ties by position
    ranked = np.lexsort((-np.array([d.confidence for d in flat], dtype=float), frame))
    keep = np.empty(len(frame), dtype=bool)
    keep[ranked] = np.arange(len(frame)) - np.repeat(np.cumsum(counts) - counts, counts) < capacity
    frame, (x1, y1, x2, y2) = frame[keep], boxes[keep].T
    x_cent = (x1 + x2) / 2.0
    order = np.lexsort((y2, x2, y1, x1, x_cent, -((x2 - x1) * (y2 - y1)), frame))
    kept = np.minimum(counts, capacity)
    slot = np.arange(len(order)) - np.repeat(np.cumsum(kept) - kept, kept)
    out = np.zeros((len(frames), dim))
    out[frame[order, None], slot[:, None] * BBOX_FEATURE_SIZE + np.arange(BBOX_FEATURE_SIZE)] = \
        np.stack([x_cent, (y1 + y2) / 2.0, x1, y1, x2, y2], axis=1)[order]
    return out


def check_windows(samples: list[LabeledSample], n_beams: int) -> np.ndarray:
    """The windows' beams (n, r): as many for each as for the first, at least
    1, each in 1..n_beams; a ValueError names the first window that breaks this."""
    if not samples:
        raise ValueError("empty dataset: no windows to encode")
    lengths = np.array([len(s.sequence.beams) for s in samples])
    beams = np.array([b for s in samples for b in s.sequence.beams])
    bad = (lengths != lengths[0]) | (lengths[0] == 0)
    bad[np.repeat(np.arange(len(samples)), lengths)[(beams < 1) | (beams > n_beams)]] = True
    if bad.any():
        first, s = samples[0], samples[bad.argmax()]
        raise ValueError(f"window {s.key} has beams {s.sequence.beams}: expected as many as "
                         f"window {first.key} ({lengths[0]}, at least 1), each beam index "
                         f"in 1..{n_beams}")
    return beams.reshape(len(samples), -1)


def encode_dataset(samples: list[LabeledSample], table: BeamEmbeddingTable,
                   mode: str) -> tuple[Sequences, np.ndarray]:
    """Model inputs and labels for windows ``check_windows`` accepts: float32
    ``Sequences`` of distinct rows (R, N) and a row index (n, T), labels (n,).

    Beam-only rows are ``table.entries`` and a window's steps are its r
    beams (T = r).  Bimodal rows are the box embeddings of the distinct
    camera frames stacked on ``table.entries``, and a window's steps are
    its r frames, then its r beams (T = 2r).  Each distinct detection list
    is embedded once: windows that observe one camera frame share its list
    object, so the list's identity is the frame key.
    """
    if mode not in ("bimodal", "beam-only"):
        raise ValueError(f"unknown mode {mode!r} (expected 'bimodal' or 'beam-only')")
    index = check_windows(samples, table.n_beams) - 1
    rows = table.entries
    if mode == "bimodal":
        distinct = {id(d): d for s in samples for d in s.sequence.detections}
        row_of = {key: row for row, key in enumerate(distinct)}
        frames = np.array([[row_of[id(d)] for d in s.sequence.detections] for s in samples])
        boxes = embed_frames(list(distinct.values()), table.dim)
        rows = np.concatenate([boxes, table.entries], dtype=table.entries.dtype)
        index = np.concatenate([frames, len(distinct) + index], axis=1)
    labels = np.array([s.label.status for s in samples], dtype=np.int64)
    return Sequences(rows, index), labels
