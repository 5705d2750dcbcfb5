"""Fixed embeddings mapping beams and detection lists into a shared space.

Beam indices go through a frozen Gaussian lookup table (no training);
per-frame detection lists become zero-padded stacks of 6-number box
features.  Both land in the same N-dimensional space consumed by the
recurrent predictor.  ``encode_dataset``, the one encoder, takes window
and frame tables, embeds each camera frame once and gives every window's
steps as indices into those rows and the beam table.
"""

from __future__ import annotations

import logging

import numpy as np

from .config import BBOX_FEATURE_SIZE
from .pipeline import LabeledSample, WindowTable
from .predictor import Sequences
from .scene import FrameTable

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
        self.entries = rng.standard_normal((n_beams, dim)).astype(np.float32)
        self.entries.flags.writeable = False


def embed_frames(frames: FrameTable, dim: int) -> np.ndarray:
    """Each frame's detections as a zero-padded float64 row (F, dim) of
    [x_cent, y_cent, x1, y1, x2, y2] box features, all frames in one pass.

    Canonical order: descending box area, ties by ascending x centre, then
    by the box.  When more boxes arrive than fit, the lowest-confidence ones
    are dropped first (logged).
    """
    capacity = dim // BBOX_FEATURE_SIZE
    counts = frames.count
    for n in counts[counts > capacity]:
        log.info("truncating %d of %d detections to fit embedding dim %d", n - capacity, n, dim)
    frame = np.repeat(np.arange(len(frames)), counts)
    # rank within the frame by confidence; the stable sort breaks ties by position
    ranked = np.lexsort((-frames.confidence, frame))
    keep = np.empty(len(frame), dtype=bool)
    keep[ranked] = np.arange(len(frame)) - np.repeat(np.cumsum(counts) - counts, counts) < capacity
    frame, (x1, y1, x2, y2) = frame[keep], frames.boxes[keep].T
    x_cent = (x1 + x2) / 2.0
    order = np.lexsort((y2, x2, y1, x1, x_cent, -((x2 - x1) * (y2 - y1)), frame))
    kept = np.minimum(counts, capacity)
    slot = np.arange(len(order)) - np.repeat(np.cumsum(kept) - kept, kept)
    out = np.zeros((len(frames), dim))
    out[frame[order, None], slot[:, None] * BBOX_FEATURE_SIZE + np.arange(BBOX_FEATURE_SIZE)] = \
        np.stack([x_cent, (y1 + y2) / 2.0, x1, y1, x2, y2], axis=1)[order]
    return out


def check_beams(windows: WindowTable, n_beams: int) -> None:
    """Every window has at least one beam, each in 1..n_beams; a ValueError
    names the first window that breaks this."""
    if not len(windows):
        raise ValueError("empty dataset: no windows to encode")
    bad = np.any((windows.beams < 1) | (windows.beams > n_beams), axis=1)
    if bad.any() or windows.beams.shape[1] == 0:
        i = int(bad.argmax())
        raise ValueError(f"window {windows.keys()[i]} has beams {windows.beams[i].tolist()}: "
                         f"expected at least 1, each beam index in 1..{n_beams}")


def encode_dataset(windows: WindowTable | list[LabeledSample], table: BeamEmbeddingTable,
                   mode: str) -> tuple[Sequences, np.ndarray]:
    """Model inputs and labels for windows ``check_beams`` accepts: float32
    ``Sequences`` of distinct rows (R, N) and a row index (n, T), labels (n,).
    ``windows`` is a WindowTable, observed for bimodal inputs, or a list of
    LabeledSamples (the read view), which ``WindowTable.of`` turns into one.

    Beam-only rows are ``table.entries`` and a window's steps are its r
    beams (T = r).  Bimodal rows are the box embeddings of the distinct
    frames the windows observe, in order of first appearance, stacked on
    ``table.entries``, and a window's steps are its r frames, then its r
    beams (T = 2r).  Each distinct frame is embedded once.
    """
    if mode not in ("bimodal", "beam-only"):
        raise ValueError(f"unknown mode {mode!r} (expected 'bimodal' or 'beam-only')")
    windows = WindowTable.of(windows)
    check_beams(windows, table.n_beams)
    index, rows = windows.beams - 1, table.entries
    if mode == "bimodal":
        if windows.frames is None:
            raise ValueError("bimodal inputs need the windows' frames: observe them first")
        distinct, first, inverse = np.unique(windows.frame_rows, return_index=True,
                                             return_inverse=True)
        order = np.argsort(first)   # the distinct frames by first appearance
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        boxes = embed_frames(windows.frames.take(distinct[order]), table.dim)
        rows = np.concatenate([boxes, table.entries], dtype=table.entries.dtype)
        index = np.concatenate([rank[inverse].reshape(index.shape), len(order) + index], axis=1)
    return Sequences(rows, index), windows.label
