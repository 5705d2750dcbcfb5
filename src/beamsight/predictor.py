"""Recurrent future-link-status predictor with a from-scratch trainer.

Two stacked GRU layers separated by inverted dropout, a linear classifier
on the last hidden state, softmax over {LOS, NLOS}.  Gradients come from
manual backprop through time; optimization is Adam with bias correction.
It computes in the dtype of its input rows (float32 from ``encode_dataset``),
and training is reproducible bit-for-bit for a fixed seed.

Each layer k keeps one fused parameter set, ``l{k}.W`` (3H, in),
``l{k}.U`` (3H, H) and ``l{k}.b`` (3H,), whose row blocks are the z, r
and c gates in that order.  With a = x W^T + b and u = h U^T split into
the same blocks:
    z = sigmoid(a_z + u_z)
    r = sigmoid(a_r + u_r)
    c = tanh(a_c + r * u_c)
    h' = (1 - z) * h + z * c
Training (``_run``) and scoring (``_logits``) take one step, ``_gru_step``,
on gate-major (3, m, H) buffers through (3, ., H) views of the fused
tensors, so each gate is a contiguous (m, H) block.  In training, a layer's
input projection a is one (3, T, batch, H) block, a product per gate over
all its steps (layer 0 projects each distinct input row of a ``Sequences``
batch once and gathers); the steps overwrite it with the gates the backward
pass reads.  dW, dU, db and dx are one GEMM each after the backward time
loop (Appleyard et al., arXiv:1604.01946), and dW0 one GEMM over the
distinct rows of da summed per row.  Scoring, on the calling thread,
advances each distinct window prefix once, since windows that share their
first t rows share their eval-mode states up to step t.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import DataError, NumericError

log = logging.getLogger(__name__)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.multiply(x, 0.5, out=out)
    return np.multiply(np.add(np.tanh(out, out=out), 1.0, out=out), 0.5, out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(y)), y].mean())


def _segment_sum(values: np.ndarray, segments: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``values`` (m, k) summed by ``segments`` (m,) into (count, k): one float64
    ``bincount`` per block of 64 columns, which adds each column's rows in row order."""
    sums = np.empty((count, values.shape[1]), values.dtype)
    keys = segments[:, None] * 64 + np.arange(64)
    for start in range(0, values.shape[1], 64):
        block = values[:, start:start + 64].astype(np.float64)
        sums[:, start:start + 64] = np.bincount(keys[:, :block.shape[1]].ravel(), block.ravel(),
                                                count * 64).reshape(count, 64)[:, :block.shape[1]]
    return sums


@dataclass(frozen=True)
class Sequences:
    """Model inputs as distinct rows (R, N) and a row index (n, T): step t of
    sample i is ``rows[index[i, t]]``.  Windows that observe one camera frame
    or one beam share its row; indexing selects samples and keeps the rows."""

    rows: np.ndarray
    index: np.ndarray

    @classmethod
    def of(cls, x) -> "Sequences":
        """``x``, or a dense (n, T, N) array as its rows under an identity index."""
        if isinstance(x, cls):
            return x
        batch, steps, dim = np.shape(x)
        return cls(np.reshape(x, (batch * steps, dim)),
                   np.arange(batch * steps).reshape(batch, steps))

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, samples) -> "Sequences":
        return Sequences(self.rows, self.index[samples])


def init_params(input_dim: int, hidden: int, layers: int = 2, classes: int = 2,
                seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases.

    Gate blocks are drawn W then U for z, r and c in turn.
    """
    rng = np.random.default_rng([seed, 7])
    params: dict[str, np.ndarray] = {}
    for layer in range(layers):
        in_dim = input_dim if layer == 0 else hidden
        wb = 1.0 / np.sqrt(in_dim)
        ub = 1.0 / np.sqrt(hidden)
        blocks = [(rng.uniform(-wb, wb, size=(hidden, in_dim)),
                   rng.uniform(-ub, ub, size=(hidden, hidden))) for _ in "zrc"]
        params[f"l{layer}.W"] = np.concatenate([w for w, _ in blocks])
        params[f"l{layer}.U"] = np.concatenate([u for _, u in blocks])
        params[f"l{layer}.b"] = np.zeros(3 * hidden)
    cb = 1.0 / np.sqrt(hidden)
    params["out.W"] = rng.uniform(-cb, cb, size=(classes, hidden))
    params["out.b"] = np.zeros(classes)
    return params


def _gru_step(a: np.ndarray, h_prev: np.ndarray, U: np.ndarray, h: np.ndarray,
              u: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """One GRU step of m rows on gate-major buffers.  ``a`` (3, m, H), the input
    projection, is overwritten with (z, r, c); ``u`` (3, m, H) gets ``h_prev``
    (m, H) through the (3, H, H) gate views ``U`` and keeps u_c in ``u[2]``; h'
    goes into ``h`` (m, H), which is returned; ``rest`` (m, H) is scratch."""
    np.matmul(h_prev, U, out=u)
    z, r = sigmoid(np.add(a[:2], u[:2], out=a[:2]), out=a[:2])
    c = np.tanh(np.add(a[2], np.multiply(r, u[2], out=rest), out=a[2]), out=a[2])
    np.multiply(np.subtract(1.0, z, out=rest), h_prev, out=rest)
    return np.add(rest, np.multiply(z, c, out=h), out=h)


def prefix_plan(index: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct prefixes of a row index (n, T) as nodes, the windows sorted
    once: at step t a window starts a node where its rows up to t differ from the
    window's before it.  Returns each step's nodes as (parent, row) arrays, the
    node of step t - 1 each extends (0 at step 0), and each window's last node."""
    order = np.lexsort(index.T[::-1])
    ranked = index[order]
    new = np.ones(index.shape, bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    np.logical_or.accumulate(new, axis=1, out=new)
    ids = np.cumsum(new, axis=0, dtype=np.int32) - 1   # each sorted window's node per step
    nodes = [(ids[first, t - 1] if t else np.zeros_like(first), ranked[first, t])
             for t, first in enumerate(map(np.flatnonzero, new.T))]
    last = np.empty_like(ids[:, -1])
    last[order] = ids[:, -1]
    return nodes, last


class GruPredictor:
    """Two stacked GRU layers, inter-layer dropout, linear classifier."""

    def __init__(self, input_dim: int, hidden: int = 64, layers: int = 2,
                 classes: int = 2, dropout: float = 0.3, seed: int = 0,
                 params: dict | None = None):
        if layers < 1:
            raise ValueError("needs at least one recurrent layer")
        self.input_dim = input_dim
        self.hidden = hidden
        self.layers = layers
        self.classes = classes
        self.dropout = dropout
        self.params = params if params is not None else init_params(
            input_dim, hidden, layers, classes, seed)

    def _gate_views(self):
        """Per layer, the gate-major views of its parameters: (3, in, H) of
        ``l{k}.W``, (3, H, H) of ``l{k}.U`` and (3, 1, H) of ``l{k}.b``."""
        return ([self.params[f"l{k}.{name}"].reshape(3, self.hidden, -1).transpose(0, 2, 1)
                 for k in range(self.layers)] for name in "WUb")

    def _run(self, x: Sequences, train: bool, rng: np.random.Generator | None,
             caches: list | None = None):
        """Forward pass over a ``Sequences`` batch, a layer at a time and a step of
        every window at a time, through ``_gru_step``.  A layer's input projection
        is one (3, T, batch, H) block: layer 0's gathered from the (3, R, H)
        projection of its distinct rows, a deeper one's a product per gate over
        all its steps.  Dropout masks are drawn before the first step.

        Appends to ``caches``, if given, each layer's input (layer 0: its
        distinct rows and each step's position among them), hidden states
        (batch, T+1, H) from zeros, the (3, T, batch, H) block of gates z, r, c
        and u_c (T, batch, H), for the backward pass.
        """
        if x.rows.shape[1:] != (self.input_dim,):
            raise ValueError(f"expected rows (R, {self.input_dim}), got {x.rows.shape}")
        batch, steps = x.index.shape
        hidden = self.hidden
        dtype = np.result_type(x.rows, *self.params.values())
        masks = {}  # dropout mask per layer output, train only
        for layer in range(self.layers - 1) if train and self.dropout > 0.0 else ():
            if rng is None:
                raise ValueError("training forward pass needs an rng for dropout")
            keep = 1.0 - self.dropout
            masks[layer] = (rng.random((batch, steps, hidden)) < keep).astype(dtype) / keep
        uniq, inv = np.unique(x.index, return_inverse=True)
        inputs = [(x.rows[uniq], inv.reshape(batch, steps))] + [None] * (self.layers - 1)
        W, U, b = self._gate_views()
        hs = [np.zeros((batch, steps + 1, hidden), dtype).transpose(1, 0, 2)
              for _ in range(self.layers)]
        rest = np.empty((batch, hidden), dtype)
        for layer, h in enumerate(hs):
            if layer:
                below = hs[layer - 1][1:]
                if layer - 1 in masks:
                    below = below * masks[layer - 1].transpose(1, 0, 2)
                inputs[layer] = below.transpose(1, 0, 2)
                a = np.matmul(below.reshape(-1, hidden), W[layer])
                a = np.add(a, b[layer], out=a).reshape(3, steps, batch, hidden)
            else:   # the (3, R, H) projection of the distinct rows, gathered
                distinct, positions = inputs[0]
                a = np.take(np.matmul(distinct, W[0]) + b[0], positions.T, axis=1)
            # step t keeps its u_c in ucs[t]; its z and r products go to the two
            # rows after, which the next steps overwrite
            ucs = np.empty((steps + 2, batch, hidden), dtype)
            for t in range(steps):
                _gru_step(a[:, t], h[t], U[layer], h[t + 1], ucs[t:t + 3][::-1], rest)
            if caches is not None:
                caches.append((inputs[layer], h.transpose(1, 0, 2), a, ucs[:steps]))
        last = hs[-1][-1]
        logits = last @ self.params["out.W"].T + self.params["out.b"]
        return logits, last, masks

    def forward(self, x, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Class probabilities (batch, 2) for a dense (batch, T, N) array or a
        ``Sequences``; single dense sequences are promoted."""
        single = not isinstance(x, Sequences) and np.ndim(x) == 2
        if single:
            x = x[None, ...]
        probs = softmax(self._run(Sequences.of(x), train, rng)[0])
        return probs[0] if single else probs

    def _logits(self, x) -> np.ndarray:
        """Eval-mode logits (n, classes): each node of ``prefix_plan`` advanced once,
        a step at a time through every layer, ``_gru_step`` on (3, m, H) buffers of
        the step's m nodes (as in RNN lattice rescoring, Liu et al., ICASSP 2014).
        Sets ``steps_advanced`` to (nodes advanced, window steps)."""
        x = Sequences.of(x)
        nodes, last = prefix_plan(x.index)
        sizes = [len(parent) for parent, _ in nodes]
        self.steps_advanced = (sum(sizes), x.index.size)
        hidden, dtype = self.hidden, np.result_type(x.rows, *self.params.values())
        W, U, b = self._gate_views()
        used, inv = np.unique(np.concatenate([row for _, row in nodes]), return_inverse=True)
        table = np.matmul(x.rows[used], W[0]) + b[0]   # (3, R, H)
        flat = [np.empty(k * max(sizes) * hidden, dtype) for k in (3, 3, 1, 1)]   # step buffers
        states = [np.zeros((max(sizes), hidden), dtype) for _ in range(self.layers)]
        for (parent, _), rows in zip(nodes, np.split(inv, np.cumsum(sizes)[:-1])):
            m = len(parent)
            a, u = (buf[:3 * m * hidden].reshape(3, m, hidden) for buf in flat[:2])
            h_prev, rest = (buf[:m * hidden].reshape(m, hidden) for buf in flat[2:])
            for layer, state in enumerate(states):
                if layer:   # layer - 1's states of this step
                    np.add(np.matmul(h, W[layer], out=a), b[layer], out=a)
                else:
                    np.take(table, rows, axis=1, out=a, mode="clip")   # unbuffered
                np.take(state, parent, axis=0, out=h_prev, mode="clip")
                h = _gru_step(a, h_prev, U[layer], state[:m], u, rest)
        logits = h @ self.params["out.W"].T + self.params["out.b"]
        return logits[last]

    def predict(self, x) -> np.ndarray:
        """Argmax class per sample, evaluated in eval mode."""
        return np.argmax(softmax(self._logits(x)), axis=1)

    def loss_and_grads(self, x, y: np.ndarray, train: bool = False,
                       rng: np.random.Generator | None = None):
        """Mean cross-entropy and gradients for every parameter."""
        logits, grads = self.logits_and_grads(x, y, train, rng)
        return _cross_entropy(logits, y), grads

    def logits_and_grads(self, x, y: np.ndarray, train: bool = False,
                         rng: np.random.Generator | None = None):
        """Forward-pass logits and the mean cross-entropy's gradients for
        every parameter."""
        if len(x) == 0:
            raise DataError("empty batch")
        x = Sequences.of(x)
        caches = []
        logits, last_hidden, masks = self._run(x, train, rng, caches)
        batch, steps = x.index.shape
        hidden = self.hidden

        dlogits = softmax(logits)
        dlogits[np.arange(batch), y] -= 1.0
        dlogits /= batch
        grads = {"out.W": dlogits.T @ last_hidden, "out.b": dlogits.sum(axis=0)}

        # gradient reaching each layer's outputs, one (batch, H) row per step
        dout = np.zeros((batch, steps, hidden), dtype=x.rows.dtype)
        dout[:, -1] = dlogits @ self.params["out.W"]
        for layer in reversed(range(self.layers)):
            W, U = self.params[f"l{layer}.W"], self.params[f"l{layer}.U"]
            layer_input, hs, gates, ucs = caches.pop()   # freed once its layer is done
            da = np.empty((batch, steps, 3 * hidden), dtype=dout.dtype)  # d loss / d a
            du = np.empty_like(da)                                       # d loss / d u
            dh = np.zeros_like(dout[:, 0])
            for t in reversed(range(steps)):
                dh = dh + dout[:, t]
                (z, r, c), uc = gates[:, t], ucs[t]
                dc = dh * z * (1.0 - c * c)
                da[:, t, :hidden] = dh * (c - hs[:, t]) * z * (1.0 - z)
                da[:, t, hidden:2 * hidden] = dc * uc * r * (1.0 - r)
                da[:, t, 2 * hidden:] = dc
                du[:, t, :2 * hidden] = da[:, t, :2 * hidden]
                du[:, t, 2 * hidden:] = dc * r
                dh = dh * (1.0 - z) + du[:, t] @ U
            del gates, ucs, z, r, c, uc   # the gate blocks go before the weight gradients
            da = da.reshape(batch * steps, 3 * hidden)
            if layer == 0:
                distinct, positions = layer_input
                grads["l0.W"] = (_segment_sum(da, positions.ravel(), len(distinct)).T
                                 @ distinct)
            else:
                grads[f"l{layer}.W"] = da.T @ layer_input.reshape(batch * steps, -1)
            grads[f"l{layer}.U"] = (du.reshape(batch * steps, 3 * hidden).T
                                    @ hs[:, :-1].reshape(batch * steps, hidden))
            grads[f"l{layer}.b"] = da.sum(axis=0)
            if layer > 0:
                dout = (da @ W).reshape(batch, steps, -1)
                if layer - 1 in masks:
                    dout = dout * masks[layer - 1]
        return logits, grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place Adam update with bias correction."""
    state.step += 1
    t = state.step
    for key, p in params.items():
        g = grads[key]
        state.m[key] = beta1 * state.m[key] + (1.0 - beta1) * g
        state.v[key] = beta2 * state.v[key] + (1.0 - beta2) * g * g
        m_hat = state.m[key] / (1.0 - beta1**t)
        v_hat = state.v[key] / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict[str, np.ndarray]          # best-validation parameters
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_top1: float = 0.0


def train_model(train_x, train_y: np.ndarray, val_x, val_y: np.ndarray,
                cfg: TrainConfig) -> TrainResult:
    """Seeded minibatch training; keeps the best-validation checkpoint.

    Parameters and Adam state take the training rows' dtype.  An epoch's
    ``train_top1`` is the accuracy of its minibatches' train-mode forward
    passes, each before its update.  Raises NumericError on a non-finite loss.
    """
    if len(train_x) == 0:
        raise DataError("empty training dataset")
    if len(val_x) == 0:
        raise DataError("empty validation dataset")
    train_x, val_x = Sequences.of(train_x), Sequences.of(val_x)
    model = GruPredictor(input_dim=train_x.rows.shape[1], hidden=cfg.hidden,
                         layers=cfg.layers, dropout=cfg.dropout, seed=cfg.seed)
    model.params = {k: p.astype(train_x.rows.dtype) for k, p in model.params.items()}
    state = AdamState.for_params(model.params)
    rng = np.random.default_rng([cfg.seed, 23])

    result = TrainResult(params=copy.deepcopy(model.params), best_val_top1=-1.0)
    n = len(train_x)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits, grads = model.logits_and_grads(train_x[idx], train_y[idx],
                                                   train=True, rng=rng)
            loss = _cross_entropy(logits, train_y[idx])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            correct += int(np.sum(np.argmax(logits, axis=1) == train_y[idx]))
            adam_step(model.params, grads, state, cfg.learning_rate)
            losses.append(loss)
        # one eval pass gives the val loss and predictions equal to predict()
        val_logits = model._logits(val_x)
        val_top1 = float(np.mean(np.argmax(softmax(val_logits), axis=1) == val_y))
        val_loss = _cross_entropy(val_logits, val_y)
        row = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)),
            "train_top1": correct / n,
            "val_loss": val_loss,
            "val_top1": val_top1,
        }
        result.history.append(row)
        log.info("epoch %d: train loss %.4f, val loss %.4f, val top-1 %.4f, %.2f s",
                 epoch + 1, row["train_loss"], val_loss, val_top1, time.perf_counter() - t0)
        if val_top1 > result.best_val_top1:
            result.best_val_top1 = val_top1
            result.best_epoch = epoch + 1
            result.params = copy.deepcopy(model.params)
    return result


# ---------------------------------------------------------------------------
# Checkpoint format (versioned binary)
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"BSCK"
_CKPT_VERSION = 3  # 3: each tensor's dtype in the header


def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict) -> None:
    """Header JSON (shapes, dtypes, embedding seed, config echo) + LE arrays."""
    tensors = {n: np.asarray(p, p.dtype.newbyteorder("<")) for n, p in sorted(params.items())}
    header = {
        "meta": meta,
        "params": [{"name": n, "shape": list(t.shape), "dtype": t.dtype.str}
                   for n, t in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<IQ", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for tensor in tensors.values():
            fh.write(tensor.tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a malformed, truncated or older file raises DataError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if data[:4] != _CKPT_MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    if len(data) < 16:
        raise DataError(f"truncated checkpoint header: {path}")
    version, header_len = struct.unpack_from("<IQ", data, 4)
    if version != _CKPT_VERSION:
        raise DataError(f"unsupported checkpoint version {version} "
                        f"(expected {_CKPT_VERSION}): {path}")
    offset = 16 + header_len
    try:
        if offset > len(data):
            raise ValueError("header runs past the end of the file")
        header = json.loads(data[16:offset])
        dtypes = {entry["dtype"] for entry in header["params"]}
        if len(dtypes) > 1 or not dtypes <= {"<f4", "<f8"}:
            raise ValueError(f"tensor dtypes {dtypes}: expected all '<f4' or all '<f8'")
        params = {}
        for entry in header["params"]:
            if type(entry["name"]) is not str:
                raise TypeError(f"tensor name {entry['name']!r} is not a string")
            shape = tuple(entry["shape"])  # frombuffer rejects a tensor past the end
            tensor = np.frombuffer(data, entry["dtype"], math.prod(shape), offset)
            params[entry["name"]] = tensor.reshape(shape).copy()
            offset += tensor.nbytes
        if bad := sorted(n for n, t in params.items() if not np.isfinite(t).all()):
            raise ValueError(f"tensors {bad} hold numbers that are not finite")
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError("header meta is not an object")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from exc
    return params, meta


def model_from_checkpoint(path) -> tuple[GruPredictor, dict]:
    """The model a checkpoint holds; header sizes must match its tensors."""
    params, meta = load_checkpoint(path)
    sizes = {key: meta.get(key) for key in ("input_dim", "hidden", "layers")}
    sizes["classes"] = meta.get("classes", 2)
    for key, value in sizes.items():
        if type(value) is not int or value < 1:
            raise DataError(f"checkpoint {path}: header {key} = {value!r} "
                            "is not a positive integer")
    input_dim, hidden, layers, classes = sizes.values()
    if len(params) != 3 * layers + 2:
        raise DataError(f"checkpoint {path}: {len(params)} tensors do not fit "
                        f"header layers = {layers}")
    expected = {"out.W": (classes, hidden), "out.b": (classes,)}
    for layer in range(layers):
        expected[f"l{layer}.W"] = (3 * hidden, input_dim if layer == 0 else hidden)
        expected[f"l{layer}.U"] = (3 * hidden, hidden)
        expected[f"l{layer}.b"] = (3 * hidden,)
    shapes = {name: p.shape for name, p in params.items()}
    wrong = sorted(n for n in shapes.keys() | expected.keys()
                   if shapes.get(n) != expected.get(n))
    if wrong:
        raise DataError(f"checkpoint {path}: tensors {wrong} disagree with the "
                        f"header sizes {sizes}")
    model = GruPredictor(input_dim=input_dim, hidden=hidden, layers=layers,
                         classes=classes, dropout=0.0, params=params)
    return model, meta
