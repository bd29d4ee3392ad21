"""Transformer-block tests: positional encoding, the straight-line dense
reimplementation check, the flat parameter layout, gradient checks of the
hand-written backward and timing shape."""

import copy
import math
import pickle
import time

import numpy as np
import pytest

import evdetect.model
from evdetect.checkpoint import load_model, save_model
from evdetect.data import SeriesStats, WindowBatch
from evdetect.engine import EngineConfig, OnlineDetector
from evdetect.model import (
    _TREE_NAMES,
    LN_EPS,
    ModelDims,
    ModelParams,
    _layout,
    _mha,
    _trd,
    fold_layer_norms,
    folded_head,
    folded_ln,
    mtr_forward,
    positional_table,
    self_attend,
)
from evdetect.nn import AdamState, Hyper, Tensor, adam_step, grad_check, layer_norm
from evdetect.training import reconstruction_loss, reconstruction_loss_t

TINY = ModelDims(C=4, hidden=4, heads=2, lm=2, gm=4, e0=3, e1=2)


def positional_encoding(tau: int, C: int) -> np.ndarray:
    """Oracle for `positional_table`: one offset's sinusoidal encoding, even
    slots sin, odd slots cos."""
    if tau < 0:
        raise ValueError("offset must be nonnegative")
    if C % 2 != 0:
        raise ValueError("C must be even")
    i = np.arange(C // 2, dtype=np.float64)
    angle = tau / np.power(10000.0, 2.0 * i / C)
    enc = np.empty(C, dtype=np.float64)
    enc[0::2] = np.sin(angle)
    enc[1::2] = np.cos(angle)
    return enc


class TestPositionalEncoding:
    def test_offset_zero(self):
        np.testing.assert_allclose(positional_encoding(0, 8), [0, 1, 0, 1, 0, 1, 0, 1])

    def test_offset_one_two_dims(self):
        np.testing.assert_allclose(positional_encoding(1, 2), [math.sin(1), math.cos(1)], atol=1e-12)
        np.testing.assert_allclose(positional_encoding(1, 2), [0.84147, 0.54030], atol=1e-5)

    def test_components_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            enc = positional_encoding(int(rng.integers(0, 10_000)), 16)
            assert np.all(np.abs(enc) <= 1.0)

    def test_table_equals_per_offset_rows_exactly(self):
        for C in (2, 8, 16):
            taus = range(C + 40, -1, -1)
            want = np.stack([positional_encoding(t, C) for t in taus])
            np.testing.assert_array_equal(positional_table(taus, C), want)
        with pytest.raises(ValueError):
            positional_table([2, -1], 8)

    def test_model_tables_are_shared_read_only_and_exact(self):
        dims = ModelDims()
        a, b = ModelParams(dims, seed=1), ModelParams(dims, seed=2)
        assert a.pos_lm is b.pos_lm and a.pos_gm is b.pos_gm
        for table in (a.pos_lm, a.pos_gm):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        np.testing.assert_array_equal(a.pos_lm, positional_table(range(dims.lm - 1, -1, -1), dims.C))
        np.testing.assert_array_equal(a.pos_gm, positional_table(range(dims.lm + dims.gm - 1, dims.lm - 1, -1), dims.C))
        # the oldest global reading, column 0 of enc1's folded logits, is lm+gm-1 steps back
        np.testing.assert_array_equal(a.pos_gm[0], positional_encoding(dims.lm + dims.gm - 1, dims.C))

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(3, 5)
        with pytest.raises(ValueError):
            positional_table([3], 5)
        with pytest.raises(ValueError):
            ModelDims(C=5, hidden=4, heads=1, lm=2, gm=4, e0=3, e1=2)  # odd C caught at C%2

    def test_dimension_constraints(self):
        with pytest.raises(ValueError):
            ModelDims(C=4, hidden=4, heads=2, lm=2, gm=4, e0=4, e1=2)  # e0 not < gm
        with pytest.raises(ValueError):
            ModelDims(C=4, hidden=4, heads=3, lm=2, gm=4, e0=3, e1=2)  # heads must divide C
        with pytest.raises(ValueError):
            ModelDims(C=4, hidden=4, heads=2, lm=4, gm=4, e0=3, e1=2)  # lm < gm

    @pytest.mark.parametrize("name", ["C", "hidden", "heads", "lm", "gm", "e0", "e1"])
    @pytest.mark.parametrize("size", [0, -2])
    def test_size_below_one_rejected(self, name, size):
        # refused before the divisibility checks, which would divide by it
        with pytest.raises(ValueError, match=f"^model size {name} must be an integer >= 1, got {size}$"):
            ModelDims(**{name: size})


def _straight_line_trd(tokens, memory, p):
    """Independent dense reimplementation of one block, plain numpy throughout."""

    def mha(x, mem, ap):
        outs = []
        for wq, wk, wv in zip(ap.wq, ap.wk, ap.wv):
            q = x @ wq.data
            k = mem @ wk.data
            v = mem @ wv.data
            logits = q @ k.T / math.sqrt(q.shape[1])
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            outs.append(w @ v)
        return np.concatenate(outs, axis=1) @ ap.wo.data

    def ln(x, lnp):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + LN_EPS) * lnp.gain.data + lnp.bias.data

    x1 = ln(tokens + mha(tokens, tokens, p.self_attn), p.ln1)
    x2 = ln(x1 + mha(x1, memory, p.cross_attn), p.ln2)
    ffn = np.maximum(x2 @ p.w1.data + p.b1.data, 0.0) @ p.w2.data + p.b2.data
    return ln(x2 + ffn, p.ln3)


def _straight_line_forward(lm, gm, p):
    """Oracle for `mtr_forward` on one window, from `_straight_line_trd`,
    which reads the per-head weights."""

    def embed(values, pos):
        return values[:, None] @ p.embed_w.data + p.embed_b.data + pos

    stage1 = _straight_line_trd(p.enc1_queries.data, embed(gm, p.pos_gm), p.enc1)
    encoded = _straight_line_trd(p.enc2_queries.data, stage1, p.enc2)
    out = _straight_line_trd(embed(lm, p.pos_lm), encoded, p.dec)
    return (out @ p.head_w.data + p.head_b.data)[:, 0]


def encode(feats, p):
    """Both encoder blocks: global-window features [.., gm, C] -> [.., e1, C]."""
    stage1 = _trd(self_attend(p.enc1_queries.data, p.enc1), feats, p.enc1)
    return _trd(self_attend(p.enc2_queries.data, p.enc2), stage1, p.enc2)


class TestTRD:
    def test_degenerate_single_token(self):
        dims = ModelDims(C=4, hidden=4, heads=2, lm=2, gm=4, e0=3, e1=1)
        params = ModelParams(dims, seed=1)
        out = _trd(self_attend(np.random.default_rng(0).normal(size=(1, 4)), params.dec), np.zeros((1, 4)), params.dec)
        assert out.shape == (1, 4)
        assert np.all(np.isfinite(out))

    def test_identical_memory_rows_collapse_cross_attention(self):
        rng = np.random.default_rng(4)
        row = rng.normal(size=4)
        memory = np.tile(row, (7, 1))
        params = ModelParams(TINY, seed=2)
        ap = params.dec.cross_attn
        x = rng.normal(size=(3, 4))
        out = _mha(x, memory, ap)
        # every query attends to identical values: result equals projecting the row
        expected_heads = [row @ wv.data for wv in ap.wv]
        expected = np.concatenate(expected_heads) @ ap.wo.data
        np.testing.assert_allclose(out, np.tile(expected, (3, 1)), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(5)
        params = ModelParams(TINY, seed=3)
        tokens = rng.normal(size=(3, 4))
        memory = rng.normal(size=(6, 4))
        got = _trd(self_attend(tokens, params.dec), memory, params.dec)
        want = _straight_line_trd(tokens, memory, params.dec)
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestFoldedLayerNorm:
    """`folded_ln` of x @ `fold_layer_norms`(gain) is the layer norm of x,
    laid out wide after the centred row over its std."""

    # a common offset is cancelled inside the fold's matmul, so it costs digits
    @pytest.mark.parametrize("offset, atol", [(0.0, 1e-12), (1e3, 1e-11)])
    def test_matches_layer_norm(self, offset, atol):
        rng = np.random.default_rng(60)
        C = 8
        gains, biases = rng.normal(size=(2, 3, C))
        folds = fold_layer_norms(gains)
        assert folds.shape == (3, C, 2 * C)
        variance = np.zeros((2 * C, 2 * C))
        variance[:C] = 1.0 / C
        for fold, gain, bias in zip(folds, gains, biases):
            x = rng.normal(size=(16, C)) + offset
            table = np.tile(np.concatenate([np.zeros(C), bias]), (len(x), 1))
            got = folded_ln(x @ fold, variance, table)
            np.testing.assert_allclose(got[:, C:], layer_norm(x, gain, bias, LN_EPS), rtol=0, atol=atol)
            np.testing.assert_allclose(got[:, :C], layer_norm(x, np.ones(C), np.zeros(C), LN_EPS), rtol=0, atol=atol)

    def test_matrix_after_the_gain_passes_through(self):
        # the decoder's last norm carries the output head: [P | P diag(g) w]
        rng = np.random.default_rng(61)
        C = 6
        gain, bias = rng.normal(size=(2, C))
        w, c = rng.normal(size=(C, 1)), rng.normal(size=1)
        fold = fold_layer_norms(gain)
        head = np.concatenate([fold[:, :C], fold[:, C:] @ w], axis=1)
        x = rng.normal(size=(8, C))
        want = layer_norm(x, gain, bias, LN_EPS) @ w + c
        variance = np.append(np.full(C, 1.0 / C), 0.0)
        got = folded_head(x, head.T.copy(), variance, np.repeat(bias @ w + c, len(x)))
        np.testing.assert_allclose(got, want[:, 0], rtol=0, atol=1e-12)


class TestForward:
    def test_encode_output_shape_independent_of_gm(self):
        for gm in (16, 32, 64):
            dims = ModelDims(C=8, hidden=8, heads=2, lm=8, gm=gm, e0=8, e1=4)
            params = ModelParams(dims, seed=4)
            rng = np.random.default_rng(gm)
            feats = rng.normal(size=(gm, 8))
            assert encode(feats, params).shape == (4, 8)

    def test_reference_dims_run(self):
        params = ModelParams(ModelDims(), seed=5)
        rng = np.random.default_rng(6)
        rec = mtr_forward(rng.normal(size=8), rng.normal(size=32), params)
        assert rec.shape == (8,)
        assert np.all(np.isfinite(rec))

    def test_deterministic(self):
        params = ModelParams(ModelDims(), seed=7)
        rng = np.random.default_rng(8)
        lm, gm = rng.normal(size=8), rng.normal(size=32)
        a = mtr_forward(lm, gm, params)
        b = mtr_forward(lm, gm, params)
        np.testing.assert_array_equal(a, b)

    def test_global_permutation_changes_output(self):
        params = ModelParams(ModelDims(), seed=9)
        rng = np.random.default_rng(10)
        lm, gm = rng.normal(size=8), rng.normal(size=32)
        base = mtr_forward(lm, gm, params)
        permuted = mtr_forward(lm, gm[::-1].copy(), params)
        assert not np.allclose(base, permuted)

    def test_batched_matches_single(self):
        params = ModelParams(TINY, seed=11)
        rng = np.random.default_rng(12)
        lm = rng.normal(size=(5, 2))
        gm = rng.normal(size=(5, 4))
        batched = mtr_forward(lm, gm, params)
        for i in range(5):
            single = mtr_forward(lm[i], gm[i], params)
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_taped_forward_equals_untaped_exactly(self):
        # training runs the inference forward; the tape only keeps intermediates
        params = ModelParams(ModelDims(), seed=17)
        rng = np.random.default_rng(18)
        lm = rng.normal(size=(6, 8))
        gm = rng.normal(size=(6, 32))
        tape = []
        np.testing.assert_array_equal(mtr_forward(lm, gm, params, tape=tape), mtr_forward(lm, gm, params))
        # per block: two attentions, three norms, the FFN; then the head's inputs
        assert len(tape) == 3 * 6 + 1

    def test_stacked_heads_follow_updates_and_loads(self, tmp_path):
        # the (h, C, d) stacks read by the array forward share memory with the
        # per-head Tensors that Adam and checkpoint loading write through
        params = ModelParams(ModelDims(), seed=21)
        rng = np.random.default_rng(22)
        lm = rng.normal(size=(4, 8))
        gm = rng.normal(size=(4, 32))

        def assert_forwards_agree(p):
            want = np.stack([_straight_line_forward(a, b, p) for a, b in zip(lm, gm)])
            got = mtr_forward(lm, gm, p)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            return got

        before = assert_forwards_agree(params)
        tensors = params.parameters()
        adam_step(
            [t.data for t in tensors],
            [rng.normal(size=t.shape) for t in tensors],
            AdamState.for_params([t.data for t in tensors]),
            Hyper(learning_rate=1e-2),
        )
        after = assert_forwards_agree(params)
        assert not np.array_equal(before, after)

        path = tmp_path / "model.npz"
        save_model(path, params, SeriesStats(mean=0.0, std=1.0, count=1))
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(assert_forwards_agree(loaded), after)

    def test_attention_rows_sum_to_one_inside_model(self):
        # the attention weights the tape keeps for the backward
        params = ModelParams(TINY, seed=13)
        rng = np.random.default_rng(13)
        tape = []
        mtr_forward(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)), params, tape=tape)
        weights = [record[5] for record in tape if len(record) == 7]
        assert [w.shape for w in weights] == [(2, 3, 3), (3, 2, 3, 4), (2, 2, 2), (3, 2, 2, 3), (3, 2, 2, 2), (3, 2, 2, 2)]
        for w in weights:
            assert np.all(w >= 0.0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


class TestFlatLayout:
    def test_weights_are_views_tiling_the_vector_in_order(self):
        params = ModelParams(ModelDims(), seed=23)
        # distinct values make any gap, overlap or reordering visible
        params.vector[:] = np.arange(params.vector.size)
        tensors = params.parameters()
        assert all(np.shares_memory(t.data, params.vector) for t in tensors)
        np.testing.assert_array_equal(np.concatenate([t.data.ravel() for t in tensors]), params.vector)
        for block in (params.enc1, params.enc2, params.dec):
            for attn in (block.self_attn, block.cross_attn):
                for stack, heads in ((attn.wq_all, attn.wq), (attn.wk_all, attn.wk), (attn.wv_all, attn.wv)):
                    assert stack.shape == (2, 8, 4) and np.shares_memory(stack, params.vector)
                    assert all(np.shares_memory(h.data, stack) for h in heads)
                    np.testing.assert_array_equal(np.stack([h.data for h in heads]), stack)

    def test_gradient_is_one_vector_allocated_by_zero_grad(self):
        params = ModelParams(TINY, seed=24)
        assert params.grad is None  # inference-only models carry no gradient storage
        rng = np.random.default_rng(25)
        batch = WindowBatch(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))
        params.zero_grad()
        reconstruction_loss_t(batch, params).backward()
        tensors = params.parameters()
        assert all(np.shares_memory(t.grad, params.grad) for t in tensors)
        np.testing.assert_array_equal(np.concatenate([t.grad.ravel() for t in tensors]), params.grad)
        assert np.any(params.grad != 0.0)
        params.zero_grad()
        assert not np.any(params.grad) and all(np.shares_memory(t.grad, params.grad) for t in tensors)

    @pytest.mark.parametrize(
        "copy_of", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"]
    )
    def test_copy_keeps_its_weights_views_of_its_own_vector(self, copy_of):
        params = ModelParams(ModelDims(), seed=26)
        rng = np.random.default_rng(27)
        lm, gm = rng.normal(size=(3, 8)), rng.normal(size=(3, 32))
        want = mtr_forward(lm, gm, params)
        original = params.vector.copy()
        q = copy_of(params)
        np.testing.assert_array_equal(mtr_forward(lm, gm, q), want)
        q.vector[:] = 0.5
        assert np.all(q.embed_w.data == 0.5) and np.all(q.enc1.self_attn.wq_all == 0.5)
        assert all(np.all(t.data == 0.5) for t in q.parameters())
        np.testing.assert_array_equal(params.vector, original)
        np.testing.assert_array_equal(params.embed_w.data.ravel(), original[: params.embed_w.data.size])
        np.testing.assert_array_equal(mtr_forward(lm, gm, params), want)


def _at(root, path: str):
    """root.<path>: `_at(p, "enc1.ln1.gain")` is p.enc1.ln1.gain."""
    for name in path.split("."):
        root = getattr(root, name)
    return root


def _has_tree(params: ModelParams) -> bool:
    return bool(_TREE_NAMES & vars(params).keys())


class TestLazyTree:
    """A model builds its per-weight tree on the first read of a weight, and
    that tree is the one an eager build would give."""

    def test_load_and_shared_detector_build_no_tree(self, tmp_path, monkeypatch):
        params = ModelParams(TINY, seed=40)
        path = tmp_path / "model.npz"
        save_model(path, params, SeriesStats(mean=0.0, std=1.0, count=1))
        live = ModelParams.shared(TINY, params.vector)
        live.folds()
        built = []
        monkeypatch.setattr(evdetect.model, "Tensor", lambda data: built.append(data) or Tensor(data))
        loaded, stats = load_model(path)
        det = OnlineDetector(loaded, stats, EngineConfig(lm=TINY.lm, gm=TINY.gm))
        assert det.params is live
        assert built == [] and not _has_tree(loaded)
        # the tree, once read, is the eager one: a Tensor per weight, one per head of a stack
        loaded.parameters()
        assert len(built) == len(params.parameters()) and _has_tree(loaded)

    @pytest.mark.parametrize(
        "first_read",
        [
            lambda p: p.parameters(),
            lambda p: p.zero_grad(),
            lambda p: p.dec.ln3.bias,
            lambda p: p.head_b,
            lambda p: mtr_forward(np.zeros(TINY.lm), np.zeros(TINY.gm), p, folds=p.folds()),
        ],
        ids=["parameters", "zero_grad", "nested", "top", "folds"],
    )
    def test_lazy_tree_matches_the_eager_layout(self, first_read):
        params = ModelParams(TINY, seed=41)
        # distinct values make any gap, overlap or reordering visible
        params.vector[:] = np.arange(params.vector.size)
        assert not _has_tree(params)
        first_read(params)
        tensors = params.parameters()
        assert tensors[0] is params.embed_w and params.parameters()[0] is tensors[0]  # built once
        assert all(np.shares_memory(t.data, params.vector) for t in tensors)
        np.testing.assert_array_equal(np.concatenate([t.data.ravel() for t in tensors]), params.vector)
        lo = 0
        for path, shape, _ in _layout(TINY):
            want = params.vector[lo : lo + math.prod(shape)].reshape(shape)
            lo += math.prod(shape)
            got = _at(params, path)
            if path.endswith("_all"):
                heads = _at(params, path.removesuffix("_all"))
                assert len(heads) == shape[0] and all(np.shares_memory(h.data, got) for h in heads)
                np.testing.assert_array_equal(np.stack([h.data for h in heads]), want)
            else:
                got = got.data
            assert got.shape == shape and np.shares_memory(got, want)
            np.testing.assert_array_equal(got, want)
        assert lo == params.vector.size

        # writes go through the tree to the vector
        params.enc1.ln1.gain.data[1] = -7.0
        params.dec.cross_attn.wv[1].data[0, 0] = -8.0
        assert params.enc1.ln1.gain.data[1] == -7.0 and np.count_nonzero(params.vector == -7.0) == 1
        assert params.dec.cross_attn.wv_all[1, 0, 0] == -8.0 and np.count_nonzero(params.vector == -8.0) == 1

        # each leaf's gradient and the gradient tree are views of `grad` at the weight's span
        params.zero_grad()
        params.grad[:] = np.arange(params.grad.size)
        assert all(np.shares_memory(t.grad, params.grad) for t in tensors)
        np.testing.assert_array_equal(np.concatenate([t.grad.ravel() for t in tensors]), params.grad)
        for path, shape, _ in _layout(TINY):
            g = _at(params._grads, path)
            assert g.shape == shape and np.shares_memory(g, params.grad)
        np.testing.assert_array_equal(
            np.concatenate([_at(params._grads, path).ravel() for path, _, _ in _layout(TINY)]), params.grad
        )

    def test_a_shared_models_tree_refuses_writes(self):
        params = ModelParams.shared(TINY, ModelParams(TINY, seed=42).vector)
        assert not _has_tree(params)
        with pytest.raises(ValueError, match="read-only"):
            params.enc2.w1.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            params.enc1.self_attn.wk[0].data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            params.parameters()[-1].data[0] = 1.0

    def test_other_names_are_no_attribute_and_build_nothing(self):
        params = ModelParams(TINY, seed=43)
        for name in ("nope", "_grads", "__deepcopy__", "wq", "self_attn"):
            assert not hasattr(params, name)
        assert not _has_tree(params)
        # a tree name on a model whose __init__ never ran raises, without recursing
        bare = ModelParams.__new__(ModelParams)
        assert not hasattr(bare, "enc1") and not hasattr(bare, "_parameters")
        assert vars(bare) == {}

    @pytest.mark.parametrize(
        "copy_of", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"]
    )
    @pytest.mark.parametrize("read_only", [False, True], ids=["writable", "shared"])
    def test_copy_of_a_model_never_read_round_trips(self, copy_of, read_only):
        vector = ModelParams(ModelDims(), seed=44).vector
        params = ModelParams.shared(ModelDims(), vector) if read_only else ModelParams(ModelDims(), vector=vector)
        q = copy_of(params)
        assert not _has_tree(params) and not _has_tree(q)
        assert q.vector.flags.writeable and not np.shares_memory(q.vector, params.vector)
        np.testing.assert_array_equal(q.vector, vector)
        rng = np.random.default_rng(45)
        lm, gm = rng.normal(size=(3, 8)), rng.normal(size=(3, 32))
        np.testing.assert_array_equal(mtr_forward(lm, gm, q), mtr_forward(lm, gm, params))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (lambda v: np.where(np.arange(v.size) == 5, np.nan, v), "weight 5 of the parameter array is not finite"),
            (lambda v: np.where(np.arange(v.size) == 0, -np.inf, v), "weight 0 of the parameter array is not finite"),
            (lambda v: v[:-1], "expected float64"),
            (lambda v: np.append(v, 0.0), "expected float64"),
            (lambda v: v.astype(np.float32), "expected float64"),
        ],
        ids=["nan", "inf", "short", "long", "float32"],
    )
    @pytest.mark.parametrize("make", [ModelParams, ModelParams.shared], ids=["writable", "shared"])
    def test_bad_vector_raises_at_construction(self, bad, match, make):
        vector = bad(ModelParams(TINY, seed=46).vector)
        with pytest.raises(ValueError, match=match):
            make(TINY, vector=vector)


def _analytic_gradient(batch, params):
    params.zero_grad()
    reconstruction_loss_t(batch, params).backward()
    return params.grad.copy()


class TestGradients:
    def test_full_model_grad_check_tiny(self):
        params = ModelParams(TINY, seed=14)
        rng = np.random.default_rng(15)
        batch = WindowBatch(rng.normal(size=(1, 2)), rng.normal(size=(1, 4)))
        grad = _analytic_gradient(batch, params)
        err = grad_check(lambda: reconstruction_loss(batch, params), params.vector, grad, delta=1e-4)
        assert err < 1e-4, f"max relative gradient error {err}"

    def test_planted_wrong_gradient_is_caught(self):
        # one block's gradient 1% off must show far above the check's bound
        params = ModelParams(TINY, seed=14)
        rng = np.random.default_rng(15)
        batch = WindowBatch(rng.normal(size=(1, 2)), rng.normal(size=(1, 4)))
        _analytic_gradient(batch, params)
        params.dec.w1.grad *= 1.01  # its view of the flat gradient
        err = grad_check(lambda: reconstruction_loss(batch, params), params.vector, params.grad, delta=1e-4)
        assert err >= 1e-4, f"planted error reported as {err}"


@pytest.mark.slow
class TestScalingShape:
    def test_doubling_gm_less_than_2_5x(self):
        # wide C so the gm-proportional work dominates timing noise
        def encode_time(gm, reps=200):
            dims = ModelDims(C=64, hidden=32, heads=2, lm=8, gm=gm, e0=16, e1=8)
            params = ModelParams(dims, seed=16)
            feats = np.random.default_rng(gm).normal(size=(gm, 64))
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(reps):
                    encode(feats, params)
                best = min(best, (time.perf_counter() - start) / reps)
            return best

        t32 = encode_time(32)
        t64 = encode_time(64)
        assert t64 <= 2.5 * t32, f"encode time grew {t64 / t32:.2f}x from gm=32 to 64"
