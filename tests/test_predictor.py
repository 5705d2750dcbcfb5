import json
import logging
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

import beamsight.predictor
from beamsight.config import TrainConfig
from beamsight.errors import DataError, NumericError
from beamsight.predictor import (
    AdamState,
    GruPredictor,
    Sequences,
    _gru_step,
    adam_step,
    init_params,
    load_checkpoint,
    model_from_checkpoint,
    prefix_plan,
    save_checkpoint,
    train_model,
)
from oracles import batch_major_run, segment_sum_rows


def zero_params(input_dim, hidden, layers=2, classes=2):
    params = init_params(input_dim, hidden, layers, classes, seed=0)
    return {k: np.zeros_like(v) for k, v in params.items()}


def step(x, h_prev, params, layer=0):
    """h' of one ``_gru_step`` from raw input rows, as the forward pass feeds it."""
    hidden = params[f"l{layer}.U"].shape[1]
    W, U, b = (params[f"l{layer}.{n}"].reshape(3, hidden, -1).transpose(0, 2, 1)
               for n in "WUb")
    x, h_prev = np.atleast_2d(x, h_prev)
    a = x @ W + b
    return _gru_step(a, h_prev, U, np.empty_like(h_prev), np.empty_like(a),
                     np.empty_like(h_prev))


class TestGruStep:
    def test_zero_everything_is_fixed_point(self):
        params = zero_params(3, 2)
        assert np.allclose(step(np.zeros(3), np.zeros(2), params), 0.0)

    def test_saturated_update_gate_keeps_hidden_state(self):
        params = zero_params(3, 2)
        params["l0.b"][:2] = -50.0  # z block -> 0, so h' = h_prev
        h_prev = np.array([0.3, -0.7])
        assert np.allclose(step(np.ones(3), h_prev, params), h_prev, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        params = init_params(3, 2, layers=1, seed=4)
        for _ in range(20):
            x = rng.normal(size=3)
            h_prev = rng.normal(size=2)
            got = step(x, h_prev, params)
            want = _scalar_gru_step(params, 0, x, h_prev)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_shape_mismatch_rejected(self):
        U = zero_params(3, 2)["l0.U"].reshape(3, 2, 2)

        def run(a, h_prev):
            return _gru_step(a, h_prev, U, np.empty((1, 2)), np.empty((3, 1, 2)),
                             np.empty((1, 2)))

        with pytest.raises(ValueError):
            run(np.zeros((3, 1, 4)), np.zeros((1, 2)))   # a needs (3, m, H) = (3, 1, 2)
        with pytest.raises(ValueError):
            run(np.zeros((3, 1, 2)), np.zeros((1, 3)))   # h_prev needs (m, H) = (1, 2)


def _scalar_gru_step(params, layer, x, h_prev):
    """Independent scalar evaluation of one GRU step."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    W, U, b = (params[f"l{layer}.{n}"] for n in "WUb")
    hidden = len(b) // 3
    Wz, Wr, Wc = W[:hidden], W[hidden:2 * hidden], W[2 * hidden:]
    Uz, Ur, Uc = U[:hidden], U[hidden:2 * hidden], U[2 * hidden:]
    bz, br, bc = b[:hidden], b[hidden:2 * hidden], b[2 * hidden:]
    h = np.zeros(hidden)
    for i in range(hidden):
        az = sum(Wz[i][j] * x[j] for j in range(len(x))) \
            + sum(Uz[i][j] * h_prev[j] for j in range(hidden)) + bz[i]
        ar = sum(Wr[i][j] * x[j] for j in range(len(x))) \
            + sum(Ur[i][j] * h_prev[j] for j in range(hidden)) + br[i]
        z_i, r_i = sig(az), sig(ar)
        uh_i = sum(Uc[i][j] * h_prev[j] for j in range(hidden))
        c_i = math.tanh(
            sum(Wc[i][j] * x[j] for j in range(len(x))) + r_i * uh_i + bc[i])
        h[i] = (1.0 - z_i) * h_prev[i] + z_i * c_i
    return h


def _scalar_forward(params, x_seq, hidden, layers=2):
    """Independent scalar two-layer forward pass with softmax output."""
    layer_input = [np.array(row, dtype=float) for row in x_seq]
    for layer in range(layers):
        h = np.zeros(hidden)
        outputs = []
        for x in layer_input:
            h = _scalar_gru_step(params, layer, x, h)
            outputs.append(h)
        layer_input = outputs
    W, b = params["out.W"], params["out.b"]
    last = layer_input[-1]
    logits = [sum(W[i][j] * last[j] for j in range(hidden)) + b[i]
              for i in range(len(b))]
    mx = max(logits)
    ex = [math.exp(v - mx) for v in logits]
    total = sum(ex)
    return np.array([v / total for v in ex])


class TestForward:
    def test_eval_mode_deterministic(self):
        model = GruPredictor(input_dim=5, hidden=4, seed=2)
        x = np.random.default_rng(0).normal(size=(3, 6, 5))
        assert np.array_equal(model.forward(x), model.forward(x))

    def test_probabilities_sum_to_one(self):
        model = GruPredictor(input_dim=5, hidden=4, seed=2)
        x = np.random.default_rng(1).normal(size=(9, 6, 5))
        probs = model.forward(x)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(probs >= 0)

    def test_matches_scalar_oracle(self):
        model = GruPredictor(input_dim=3, hidden=2, seed=7)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=(4, 3))
            got = model.forward(x)
            want = _scalar_forward(model.params, x, hidden=2)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_wrong_length_rejected(self):
        model = GruPredictor(input_dim=3, hidden=2)
        with pytest.raises(ValueError):
            model.forward(np.zeros((4, 5)))  # feature dim mismatch

    def test_dropout_changes_train_forward_only(self):
        model = GruPredictor(input_dim=4, hidden=4, dropout=0.5, seed=0)
        x = np.random.default_rng(3).normal(size=(2, 5, 4))
        eval_probs = model.forward(x)
        train_probs = model.forward(x, train=True, rng=np.random.default_rng(0))
        assert not np.allclose(eval_probs, train_probs)
        assert np.array_equal(model.forward(x), eval_probs)


class TestForwardOracle:
    """The step-buffer forward pass against the batch-major one it replaced,
    bit for bit.  H = 32 makes OpenBLAS 0.3.31 round a deeper layer's product
    of up to 12 rows differently from a longer one, so this also pins that a
    layer's input is projected whole, in one product per gate over all its steps."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_logits_and_gradients_match_the_batch_major_pass(self, dtype, layers,
                                                              monkeypatch):
        model = GruPredictor(input_dim=8, hidden=32, layers=layers, dropout=0.3, seed=layers)
        model.params = {k: v.astype(dtype) for k, v in model.params.items()}
        rng = np.random.default_rng(layers)
        rows = rng.normal(size=(600, 8)).astype(dtype)
        reference = lambda *args, **kwargs: batch_major_run(model, *args, **kwargs)
        for steps in (1, 5, 8, 16):
            index = rng.integers(0, len(rows), size=(513, steps))
            for batch in (*range(1, 17), 511, 512, 513):
                x, y = Sequences(rows, index[:batch]), rng.integers(0, 2, size=batch)
                shape = f"{batch} windows of {steps} steps"
                assert model._run(x, False, None)[0].tobytes() == \
                    reference(x, False, None)[0].tobytes(), shape
                got = model.logits_and_grads(x, y, True, np.random.default_rng(batch))
                with monkeypatch.context() as patched:
                    patched.setattr(model, "_run", reference)
                    want = model.logits_and_grads(x, y, True, np.random.default_rng(batch))
                assert got[0].tobytes() == want[0].tobytes(), shape
                for key in want[1]:
                    assert got[1][key].tobytes() == want[1][key].tobytes(), (shape, key)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_dropout_pass_without_caches_matches_the_batch_major_pass(self, dtype, layers):
        # the masks are drawn before the first block, in layer order, as the
        # batch-major pass draws them after each layer
        model = GruPredictor(input_dim=8, hidden=32, layers=layers, dropout=0.3, seed=layers)
        model.params = {k: v.astype(dtype) for k, v in model.params.items()}
        rng = np.random.default_rng(layers)
        rows = rng.normal(size=(600, 8)).astype(dtype)
        for steps in (1, 5, 16):
            index = rng.integers(0, len(rows), size=(513, steps))
            for batch in (1, 7, 16, 100, 511, 513):
                x, shape = Sequences(rows, index[:batch]), f"{batch} windows of {steps} steps"
                got = model._run(x, True, np.random.default_rng(batch))
                want = batch_major_run(model, x, True, np.random.default_rng(batch))
                assert got[0].tobytes() == want[0].tobytes(), shape
                assert got[2].keys() == want[2].keys() == set(range(layers - 1))
                for layer in want[2]:
                    assert got[2][layer].tobytes() == want[2][layer].tobytes(), (shape, layer)

    def test_scoring_holds_step_sized_state(self):
        # 1,024 windows of 16 steps over 1,088 rows, about a replay street's
        # bimodal validation split (1,089 windows); the batch-major pass
        # peaked at 21.8 MiB here and the step-buffer pass at 5.2 MiB
        model = GruPredictor(input_dim=256, hidden=64, seed=0)
        model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
        rng = np.random.default_rng(0)
        x = Sequences(rng.normal(size=(1088, 256)).astype(np.float32),
                      rng.integers(0, 1088, size=(1024, 16)))
        tracemalloc.start()
        try:
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"predict peaked at {peak / 2**20:.1f} MiB"

    def test_training_step_frees_each_layer_cache(self):
        # one bimodal training step of 200 windows of 16 steps; it peaked at
        # 27.6 MiB while every layer's cache lived to the end of the backward
        # pass and the layer-0 segment sum ran over all 192 columns at once
        model = GruPredictor(input_dim=256, hidden=64, seed=0)
        model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
        rng = np.random.default_rng(0)
        x = Sequences(rng.normal(size=(1409, 256)).astype(np.float32),
                      rng.integers(0, 1409, size=(200, 16)))
        y = rng.integers(0, 2, size=200)
        tracemalloc.start()
        try:
            model.logits_and_grads(x, y, True, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20, f"a training step peaked at {peak / 2**20:.1f} MiB"


class TestBlocks:
    """A model keeps its minibatch blocks (``_block``) from one training step to
    the next, so only the first step of a shape allocates them."""

    def test_later_training_steps_allocate_no_large_array(self):
        # one bimodal training step of 200 windows of 16 steps peaked at 16.6 MiB
        # on every call while each call allocated its own gate blocks
        model = GruPredictor(input_dim=256, hidden=64, seed=0)
        model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
        rng = np.random.default_rng(0)
        x = Sequences(rng.normal(size=(1409, 256)).astype(np.float32),
                      rng.integers(0, 1409, size=(200, 16)))
        y = rng.integers(0, 2, size=200)
        model.logits_and_grads(x, y, True, np.random.default_rng(1))
        for call in (2, 3):
            tracemalloc.start()
            try:
                model.logits_and_grads(x, y, True, np.random.default_rng(call))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20, f"training step {call} peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_reused_blocks_give_a_fresh_models_bytes(self, dtype, layers):
        # batches of 200, 37 and 200 windows: the blocks shrink, then grow back;
        # the outputs are compared after the last call, so none may be a block
        rng = np.random.default_rng(layers)
        params = init_params(256, 64, layers, seed=layers)
        model = GruPredictor(input_dim=256, hidden=64, layers=layers, dropout=0.3,
                             params={k: v.astype(dtype) for k, v in params.items()})
        rows = rng.normal(size=(1409, 256)).astype(dtype)
        got, want = [], []
        for batch in (200, 37, 200):
            x = Sequences(rows, rng.integers(0, 1409, size=(batch, 16)))
            y = rng.integers(0, 2, size=batch)
            fresh = GruPredictor(input_dim=256, hidden=64, layers=layers, dropout=0.3,
                                 params=model.params)
            got.append(model.logits_and_grads(x, y, True, np.random.default_rng(batch)))
            want.append(fresh.logits_and_grads(x, y, True, np.random.default_rng(batch)))
        for batch, (logits, grads), (fresh_logits, fresh_grads) in zip((200, 37, 200), got, want):
            assert logits.tobytes() == fresh_logits.tobytes(), batch
            assert grads.keys() == fresh_grads.keys() == model.params.keys()
            for key in grads:
                assert grads[key].tobytes() == fresh_grads[key].tobytes(), (batch, key)


def shared_windows(kind, rng, count, steps, rows):
    """A row index (count, steps) over ``rows`` rows: one window, ``count``
    identical ones, ones that share no prefix, or a half that shares its
    first (steps + 1) // 2 rows."""
    index = rng.integers(0, rows, size=(count, steps))
    if kind == "one":
        return index[:1]
    if kind == "identical":
        index[:] = index[0]
    elif kind == "distinct":
        index[:, 0] = rng.permutation(rows)[:count]
    elif kind == "half sharing":
        index[:count // 2, :(steps + 1) // 2] = index[0, :(steps + 1) // 2]
    return index


def distinct_prefixes(index):
    """Each step's distinct prefixes of the windows of ``index``, as sets of tuples."""
    windows = [tuple(w) for w in index.tolist()]
    return [{w[:t + 1] for w in windows} for t in range(index.shape[1])]


class TestPrefixPlan:
    """Scoring advances each distinct prefix once on gate-major buffers, so
    OpenBLAS may round its logits unlike a window's own ``_run`` in the
    low-order bits: they agree within a tolerance set by the dtype."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 5, 16])
    @pytest.mark.parametrize("kind", ["one", "identical", "distinct", "half sharing"])
    def test_scores_match_each_window_on_its_own(self, dtype, tol, layers, steps, kind):
        model = GruPredictor(input_dim=8, hidden=32, layers=layers, seed=layers)
        model.params = {k: v.astype(dtype) for k, v in model.params.items()}
        rng = np.random.default_rng([layers, steps])
        x = Sequences(rng.normal(size=(300, 8)).astype(dtype),
                      shared_windows(kind, rng, 200, steps, 300))
        want = np.concatenate([model._run(x[i:i + 1], False, None)[0] for i in range(len(x))])
        got = model._logits(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)   # atol: logits near 0
        clear = np.abs(want[:, 0] - want[:, 1]) > 10 * tol   # no near-tie to round either way
        assert np.array_equal(model.predict(x)[clear], np.argmax(want, axis=1)[clear])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_window_order_leaves_the_bytes(self, dtype, layers):
        model = GruPredictor(input_dim=8, hidden=32, layers=layers, seed=layers)
        model.params = {k: v.astype(dtype) for k, v in model.params.items()}
        rng = np.random.default_rng(layers)
        x = Sequences(rng.normal(size=(40, 8)).astype(dtype), rng.integers(0, 4, size=(600, 6)))
        want = model._logits(x)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(x))
            assert model._logits(x[order]).tobytes() == want[order].tobytes(), seed

    @pytest.mark.parametrize("vocabulary", [1, 2, 3, 50])
    @pytest.mark.parametrize("steps", [1, 5, 16])
    def test_plan_advances_each_distinct_prefix_once(self, vocabulary, steps):
        index = np.random.default_rng([vocabulary, steps]).integers(0, vocabulary, (300, steps))
        nodes, last = prefix_plan(index)
        prefixes = distinct_prefixes(index)
        assert [len(parent) for parent, _ in nodes] == list(map(len, prefixes))
        built = [()]   # each node's prefix, rebuilt from its parent and row
        for (parent, row), want in zip(nodes, prefixes):
            built = [built[p] + (r,) for p, r in zip(parent.tolist(), row.tolist())]
            assert len(set(built)) == len(built) and set(built) == want
        assert [built[k] for k in last.tolist()] == [tuple(w) for w in index.tolist()]
        model = GruPredictor(input_dim=3, hidden=4, seed=0)
        model.predict(Sequences(np.ones((vocabulary, 3)), index))
        assert model.steps_advanced == (sum(map(len, prefixes)), index.size)


class TestLossAndGrads:
    @pytest.mark.parametrize("width", [1, 63, 64, 96, 192, 200])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_sum_adds_rows_in_order(self, width, dtype):
        # float64 rows pin the order of the additions; float32 ones the cast back
        rng = np.random.default_rng(width)
        values = rng.normal(size=(700, width)).astype(dtype)
        segments = rng.integers(0, 90, size=700)
        want = segment_sum_rows(values, segments, 95)
        got = beamsight.predictor._segment_sum(values, segments, 95)
        assert got.dtype == values.dtype and got.tobytes() == want.tobytes()

    def test_uniform_logits_loss_is_ln2(self):
        model = GruPredictor(input_dim=3, hidden=2, params=zero_params(3, 2))
        x = np.random.default_rng(0).normal(size=(6, 4, 3))
        y = np.array([0, 1, 0, 1, 1, 0])
        loss, _ = model.loss_and_grads(x, y)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_predictions_drive_loss_to_zero(self):
        params = zero_params(3, 2)
        params["out.b"][:] = [60.0, -60.0]
        model = GruPredictor(input_dim=3, hidden=2, params=params)
        x = np.random.default_rng(0).normal(size=(4, 4, 3))
        y = np.zeros(4, dtype=int)
        loss, _ = model.loss_and_grads(x, y)
        assert loss < 1e-12

    def test_empty_batch_rejected(self):
        model = GruPredictor(input_dim=3, hidden=2)
        with pytest.raises(DataError):
            model.loss_and_grads(np.zeros((0, 4, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_gradients_match_finite_differences(self, train_mode):
        # N=3, H=2, sequence length 4, double precision
        model = GruPredictor(input_dim=3, hidden=2, dropout=0.3, seed=12)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 4, 3))
        y = np.array([0, 1])
        assert worst_gradient_error(model, x, y, train_mode) < 1e-5

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_gradients_match_finite_differences_with_repeated_rows(self, train_mode):
        # steps share rows within and across samples, so dW0 sums over them
        # in the segment sum; row 3 is never used
        model = GruPredictor(input_dim=3, hidden=2, dropout=0.3, seed=12)
        rng = np.random.default_rng(42)
        x = Sequences(rng.normal(size=(4, 3)), np.array([[0, 1, 0, 2], [2, 2, 1, 0]]))
        y = np.array([0, 1])
        assert worst_gradient_error(model, x, y, train_mode) < 1e-5

    def test_identity_index_is_the_dense_call(self):
        model = GruPredictor(input_dim=5, hidden=4, dropout=0.3, seed=2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 3, 5))
        y = rng.integers(0, 2, size=6)
        indexed = Sequences(x.reshape(18, 5).copy(), np.arange(18).reshape(6, 3))
        assert model.forward(indexed).tobytes() == model.forward(x).tobytes()
        loss, grads = model.loss_and_grads(indexed, y, train=True,
                                           rng=np.random.default_rng(1))
        dense_loss, dense_grads = model.loss_and_grads(x, y, train=True,
                                                       rng=np.random.default_rng(1))
        assert loss == dense_loss
        for key in grads:
            assert grads[key].tobytes() == dense_grads[key].tobytes(), key

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_repeated_rows_match_their_dense_gather(self, train_mode):
        # 40 steps over 6 used rows; row 6 is never used
        model = GruPredictor(input_dim=5, hidden=4, dropout=0.3, seed=2)
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(7, 5))
        index = rng.integers(0, 6, size=(8, 5))
        y = rng.integers(0, 2, size=8)
        indexed = Sequences(rows, index)
        assert np.array_equal(model.forward(indexed), model.forward(rows[index]))
        logits, grads = model.logits_and_grads(indexed, y, train=train_mode,
                                               rng=np.random.default_rng(3))
        dense_logits, dense_grads = model.logits_and_grads(
            rows[index], y, train=train_mode, rng=np.random.default_rng(3))
        assert np.array_equal(logits, dense_logits)
        for key in grads:
            scale = np.max(np.abs(dense_grads[key]))
            assert np.max(np.abs(grads[key] - dense_grads[key])) <= 1e-12 * scale, key


def worst_gradient_error(model, x, y, train_mode) -> float:
    """Largest relative gap between the analytic gradient and central
    differences over every parameter entry."""
    def loss_fn():
        # fresh identically-seeded rng per call keeps the dropout mask
        # frozen across finite-difference evaluations
        return model.loss_and_grads(x, y, train=train_mode, rng=np.random.default_rng(99))

    _, grads = loss_fn()
    eps = 1e-5
    worst = 0.0
    for name, param in model.params.items():
        flat = param.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = loss_fn()
            flat[idx] = orig - eps
            down, _ = loss_fn()
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            g = grads[name].ravel()[idx]
            worst = max(worst, abs(g - fd) / max(1e-8, abs(g) + abs(fd)))
    return worst


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=1e-3)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_sign_like(self):
        params = {"w": np.array([0.0, 0.0, 0.0])}
        g = np.array([0.4, -2.0, 1e-3])
        state = AdamState.for_params(params)
        adam_step(params, {"w": g.copy()}, state, lr=1e-3)
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        expected = -1e-3 * g / (np.abs(g) + 1e-8)
        assert np.allclose(params["w"], expected, atol=1e-12)

    def test_quadratic_descent_monotone(self):
        params = {"w": np.array([1.0, -1.5])}
        state = AdamState.for_params(params)
        losses = []
        for _ in range(100):
            grads = {"w": 2.0 * params["w"]}
            losses.append(float(np.sum(params["w"] ** 2)))
            adam_step(params, grads, state, lr=1e-3)
        losses.append(float(np.sum(params["w"] ** 2)))
        assert all(b < a for a, b in zip(losses, losses[1:]))


def toy_dataset(n, steps, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, steps, dim))
    y = rng.integers(0, 2, size=n)
    return x, y


class TestTrainModel:
    def test_seeded_training_is_bit_reproducible(self):
        x, y = toy_dataset(24, 4, 6, seed=1)
        cfg = TrainConfig(hidden=8, embed_dim=6, epochs=4, batch_size=8,
                          dropout=0.3, seed=5)
        a = train_model(x[:16], y[:16], x[16:], y[16:], cfg)
        b = train_model(x[:16], y[:16], x[16:], y[16:], cfg)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])
        assert a.history == b.history

    def test_small_dataset_overfits(self):
        x, y = toy_dataset(16, 4, 8, seed=3)
        cfg = TrainConfig(hidden=12, embed_dim=8, epochs=150, batch_size=8,
                          learning_rate=3e-3, dropout=0.0, seed=2)
        result = train_model(x, y, x, y, cfg)
        assert result.history[-1]["train_top1"] == 1.0

    def test_non_finite_input_raises_numeric_error(self):
        x, y = toy_dataset(8, 4, 6, seed=0)
        x[0, 0, 0] = np.nan
        cfg = TrainConfig(hidden=4, embed_dim=6, epochs=1, batch_size=8)
        with pytest.raises(NumericError):
            train_model(x, y, x, y, cfg)

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(hidden=4, embed_dim=6, epochs=1)
        with pytest.raises(DataError):
            train_model(np.zeros((0, 4, 6)), np.zeros(0, dtype=int),
                        np.zeros((1, 4, 6)), np.zeros(1, dtype=int), cfg)

    def test_train_top1_scores_each_minibatch_before_its_update(self):
        # one epoch, one minibatch, no dropout: the untrained model's accuracy
        x, y = toy_dataset(24, 4, 6, seed=4)
        cfg = TrainConfig(hidden=8, embed_dim=6, epochs=1, batch_size=24,
                          dropout=0.0, seed=7)
        result = train_model(x, y, x, y, cfg)
        untrained = GruPredictor(input_dim=6, hidden=8, seed=7)
        assert result.history[0]["train_top1"] == np.mean(untrained.predict(x) == y)
        trained = GruPredictor(input_dim=6, hidden=8, params=result.params)
        assert result.history[0]["train_top1"] != np.mean(trained.predict(x) == y)

    def test_indexed_inputs_train_like_dense_ones(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(9, 6))
        index = rng.integers(0, 9, size=(32, 4))
        y = rng.integers(0, 2, size=32)
        cfg = TrainConfig(hidden=8, embed_dim=6, epochs=3, batch_size=8, seed=1)
        indexed = train_model(Sequences(rows, index[:24]), y[:24],
                              Sequences(rows, index[24:]), y[24:], cfg)
        dense = train_model(rows[index[:24]], y[:24], rows[index[24:]], y[24:], cfg)
        for got, want in zip(indexed.history, dense.history):
            assert got.keys() == want.keys()
            for key in got:
                assert got[key] == pytest.approx(want[key], rel=1e-12)
        for key in dense.params:
            assert np.allclose(indexed.params[key], dense.params[key], rtol=0, atol=1e-12)

    def test_best_checkpoint_tracked(self):
        x, y = toy_dataset(32, 4, 6, seed=9)
        cfg = TrainConfig(hidden=8, embed_dim=6, epochs=6, batch_size=8, seed=1)
        result = train_model(x[:24], y[:24], x[24:], y[24:], cfg)
        best = max(row["val_top1"] for row in result.history)
        assert result.best_val_top1 == best


class TestDtype:
    """The model computes in its input rows' dtype: parameters, gradients and
    Adam state all take it, float32 or float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_model_keeps_params_grads_and_adam_state_in_the_rows_dtype(
            self, monkeypatch, dtype):
        seen = set()
        step = beamsight.predictor.adam_step

        def recording_step(params, grads, state, lr):
            for group in (params, grads, state.m, state.v):
                seen.update(value.dtype for value in group.values())
            step(params, grads, state, lr)

        monkeypatch.setattr(beamsight.predictor, "adam_step", recording_step)
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(9, 6)).astype(dtype)
        index = rng.integers(0, 9, size=(24, 4))
        y = rng.integers(0, 2, size=24)
        cfg = TrainConfig(hidden=8, embed_dim=6, epochs=2, batch_size=8, seed=1)
        result = train_model(Sequences(rows, index[:16]), y[:16],
                             Sequences(rows, index[16:]), y[16:], cfg)
        assert seen == {np.dtype(dtype)}
        assert {p.dtype for p in result.params.values()} == {np.dtype(dtype)}

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_logits_and_grads_come_out_in_the_params_dtype(self, train_mode):
        # repeated rows take the layer-0 segment sum, which np.bincount does
        # in float64; train mode adds the dropout masks
        model = GruPredictor(input_dim=5, hidden=4, dropout=0.3, seed=2)
        model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
        rng = np.random.default_rng(7)
        x = Sequences(rng.normal(size=(7, 5)).astype(np.float32),
                      rng.integers(0, 6, size=(8, 5)))
        y = rng.integers(0, 2, size=8)
        logits, grads = model.logits_and_grads(x, y, train=train_mode,
                                               rng=np.random.default_rng(3))
        assert logits.dtype == np.float32
        assert grads.keys() == model.params.keys()
        for key, grad in grads.items():
            assert grad.dtype == np.float32, key
        # float32 gradients agree with the float64 ones to float32 precision
        wide = GruPredictor(input_dim=5, hidden=4, dropout=0.3,
                            params={k: v.astype(np.float64) for k, v in model.params.items()})
        _, wide_grads = wide.logits_and_grads(Sequences(x.rows.astype(np.float64), x.index),
                                              y, train=train_mode,
                                              rng=np.random.default_rng(3))
        for key, grad in wide_grads.items():
            assert wide_grads[key].dtype == np.float64
            assert np.allclose(grads[key], grad, rtol=1e-4, atol=1e-6), key

    def test_training_logs_one_line_per_epoch(self, caplog):
        x, y = toy_dataset(16, 4, 6, seed=1)
        cfg = TrainConfig(hidden=8, embed_dim=6, epochs=3, batch_size=8, seed=5)
        with caplog.at_level(logging.INFO, logger="beamsight.predictor"):
            result = train_model(x[:12], y[:12], x[12:], y[12:], cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "beamsight.predictor"]
        assert len(lines) == 3
        for line, row in zip(lines, result.history):
            assert line.startswith(f"epoch {row['epoch']}: ")
            assert f"train loss {row['train_loss']:.4f}" in line
            assert f"val loss {row['val_loss']:.4f}" in line
            assert f"val top-1 {row['val_top1']:.4f}" in line
            assert re.search(r", \d+\.\d\d s$", line)


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_roundtrip_keeps_dtype_and_bytes(self, tmp_path, dtype):
        params = {k: v.astype(dtype) for k, v in
                  GruPredictor(input_dim=6, hidden=4, seed=3).params.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"layers": 2})
        back, _ = load_checkpoint(path)
        assert back.keys() == params.keys()
        for key, value in params.items():
            assert back[key].dtype == np.dtype(dtype)
            assert back[key].tobytes() == value.tobytes()
        blob = path.read_bytes()
        header_len = struct.unpack_from("<IQ", blob, 4)[1]
        header = json.loads(blob[16:16 + header_len])
        assert {entry["dtype"] for entry in header["params"]} == {dtype}
        tensor_bytes = sum(v.size for v in params.values()) * np.dtype(dtype).itemsize
        assert len(blob) == 16 + header_len + tensor_bytes

    def test_roundtrip(self, tmp_path):
        model = GruPredictor(input_dim=6, hidden=4, seed=3)
        meta = {"mode": "bimodal", "input_dim": 6, "hidden": 4, "layers": 2,
                "table_seed": 11, "n_beams": 64, "embed_dim": 6}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, meta)
        params, meta_back = load_checkpoint(path)
        assert meta_back == meta
        for key, value in model.params.items():
            assert np.array_equal(params[key], value)

    def test_model_from_checkpoint_predicts_identically(self, tmp_path):
        model = GruPredictor(input_dim=6, hidden=4, seed=3)
        meta = {"mode": "beam-only", "input_dim": 6, "hidden": 4, "layers": 2}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, meta)
        loaded, _ = model_from_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(5, 4, 6))
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_rejects_garbage(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, GruPredictor(input_dim=6, hidden=4).params, {"layers": 2})
        blob = good.read_bytes()
        header_end = 16 + struct.unpack_from("<Q", blob, 8)[0]
        cases = {
            "magic": b"NOPE" + b"\x00" * 32,
            "short_header": blob[:10],
            "header_past_end": blob[:header_end - 1],
            "undecodable_header": blob[:16] + b"\xff" * (header_end - 16) + blob[header_end:],
            "short_tensors": blob[:-8],
            "version_1": blob[:4] + struct.pack("<I", 1) + blob[8:],
        }
        for name, data in cases.items():
            path = tmp_path / f"{name}.ckpt"
            path.write_bytes(data)
            with pytest.raises(DataError, match=re.escape(str(path))):
                load_checkpoint(path)
