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


def bbox_feature(det: Detection) -> np.ndarray:
    """[x_cent, y_cent, x1, y1, x2, y2] for one detection."""
    x1, y1, x2, y2 = det.bbox
    return np.array([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x1, y1, x2, y2])


def embed_bboxes(detections: list[Detection], dim: int) -> np.ndarray:
    """Serialize detections into a fixed-length zero-padded vector.

    Canonical order: descending box area, ties by ascending x centre.
    When more boxes arrive than fit, the lowest-confidence ones are
    dropped first (logged).
    """
    capacity = dim // BBOX_FEATURE_SIZE
    kept = detections
    if len(detections) > capacity:
        log.info("truncating %d of %d detections to fit embedding dim %d",
                 len(detections) - capacity, len(detections), dim)
        order = sorted(range(len(detections)),
                       key=lambda i: (-detections[i].confidence, i))
        kept = [detections[i] for i in sorted(order[:capacity])]

    def area(d: Detection) -> float:
        x1, y1, x2, y2 = d.bbox
        return (x2 - x1) * (y2 - y1)

    kept = sorted(kept, key=lambda d: (-area(d), (d.bbox[0] + d.bbox[2]) / 2.0,
                                       d.bbox))
    out = np.zeros(dim)
    for i, det in enumerate(kept):
        out[i * BBOX_FEATURE_SIZE:(i + 1) * BBOX_FEATURE_SIZE] = bbox_feature(det)
    return out


def check_windows(samples: list[LabeledSample], n_beams: int) -> int:
    """The beam count r of every window: as many as the first's, at least 1,
    each in 1..n_beams; a ValueError names the first window that breaks this."""
    if not samples:
        raise ValueError("empty dataset: no windows to encode")
    first = samples[0]
    r = len(first.sequence.beams)
    for s in samples:
        beams = s.sequence.beams
        if len(beams) != r or r == 0 or not all(1 <= b <= n_beams for b in beams):
            raise ValueError(f"window {s.key} has beams {beams}: expected as many as "
                             f"window {first.key} ({r}, at least 1), each beam index "
                             f"in 1..{n_beams}")
    return r


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
    check_windows(samples, table.n_beams)
    index = np.array([s.sequence.beams for s in samples]) - 1
    rows = table.entries
    if mode == "bimodal":
        distinct = {id(d): d for s in samples for d in s.sequence.detections}
        row_of = {key: row for row, key in enumerate(distinct)}
        frames = np.array([[row_of[id(d)] for d in s.sequence.detections] for s in samples])
        boxes = np.array([embed_bboxes(d, table.dim) for d in distinct.values()])
        rows = np.concatenate([boxes, table.entries], dtype=table.entries.dtype)
        index = np.concatenate([frames, len(distinct) + index], axis=1)
    labels = np.array([s.label.status for s in samples], dtype=np.int64)
    return Sequences(rows, index), labels
