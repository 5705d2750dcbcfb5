"""Fixed embeddings mapping beams and detection lists into a shared space.

Beam indices go through a frozen Gaussian lookup table (no training);
per-frame detection lists become zero-padded stacks of 6-number box
features.  Both land in the same N-dimensional space consumed by the
recurrent predictor.
"""

from __future__ import annotations

import logging

import numpy as np

from .config import BBOX_FEATURE_SIZE
from .pipeline import LabeledSample
from .scene import Detection

log = logging.getLogger(__name__)


class BeamEmbeddingTable:
    """Frozen lookup table of Gaussian embedding vectors, one per beam.

    Entries are drawn i.i.d. from N(0, 1) at construction and never
    change; the backing array is marked read-only so training code cannot
    mutate it.  (seed, n_beams, dim) fully determine the table.
    """

    def __init__(self, n_beams: int, dim: int, seed: int):
        if n_beams < 1 or dim < 1:
            raise ValueError("n_beams and dim must be >= 1")
        self.n_beams = n_beams
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._entries = rng.standard_normal((n_beams, dim))
        self._entries.flags.writeable = False

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def vector(self, beam: int) -> np.ndarray:
        """Embedding for a 1-based beam index."""
        if not 1 <= beam <= self.n_beams:
            raise IndexError(f"beam index {beam} outside 1..{self.n_beams}")
        return self._entries[beam - 1]


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


def sequence_inputs(sample: LabeledSample, table: BeamEmbeddingTable,
                    mode: str) -> np.ndarray:
    """Model input for one sample: (2r, N) bimodal or (r, N) beam-only.

    Bimodal order is the block form: all box embeddings first, then all
    beam embeddings.
    """
    seq = sample.sequence
    beam_rows = [table.vector(b) for b in seq.beams]
    if mode == "beam-only":
        return np.stack(beam_rows)
    if mode == "bimodal":
        box_rows = [embed_bboxes(frame, table.dim) for frame in seq.detections]
        return np.stack(box_rows + beam_rows)
    raise ValueError(f"unknown mode {mode!r} (expected 'bimodal' or 'beam-only')")


def encode_dataset(samples: list[LabeledSample], table: BeamEmbeddingTable,
                   mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack inputs and labels for a list of samples: (n, T, N), (n,)."""
    if not samples:
        raise ValueError("no samples to encode")
    inputs = np.stack([sequence_inputs(s, table, mode) for s in samples])
    labels = np.array([s.label.status for s in samples], dtype=np.int64)
    return inputs, labels
