"""Memory transformer: a compressing encoder over the long global window and a
decoder that reconstructs the short local window conditioned on it.

The encoder stacks two decoder-style blocks with learned query tokens, mapping
gm timesteps -> e0 tokens -> e1 tokens, so cost stays linear in the global
window length. The decoder runs one block with the local-window features as
queries and the compressed tokens as memory, then projects each position back
to a scalar reading.

Every block ("TRD" below) is self-attention, cross-attention and a
feed-forward net, each followed by residual-add + layer norm (post-norm
ordering).
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .nn import Tensor, _layer_norm, concat_last, relu, softmax_rows, uniform_init

LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelDims:
    """Model architecture sizes. Defaults follow the reference configuration."""

    C: int = 8
    hidden: int = 8
    heads: int = 2
    lm: int = 8
    gm: int = 32
    e0: int = 16
    e1: int = 8

    def __post_init__(self):
        if self.C % 2 != 0:
            raise ValueError("feature width C must be even (sinusoidal position pairs)")
        if self.C % self.heads != 0:
            raise ValueError("head count must divide C")
        if not (self.e1 <= self.e0 < self.gm):
            raise ValueError(f"need e1 <= e0 < gm, got e1={self.e1}, e0={self.e0}, gm={self.gm}")
        if not (self.lm < self.gm):
            raise ValueError(f"need lm < gm, got lm={self.lm}, gm={self.gm}")


# ---------------------------------------------------------------------------
# Positional encoding (offsets measured back from the current time step)
# ---------------------------------------------------------------------------


def positional_table(taus, C: int) -> np.ndarray:
    """Sinusoidal encodings of a sequence of offsets, one row each: even slots
    sin, odd slots cos."""
    taus = np.asarray(taus, dtype=np.float64)
    if np.any(taus < 0):
        raise ValueError("offset must be nonnegative")
    if C % 2 != 0:
        raise ValueError("C must be even")
    i = np.arange(C // 2, dtype=np.float64)
    angle = taus[:, None] / np.power(10000.0, 2.0 * i / C)
    table = np.empty((len(taus), C), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


@functools.lru_cache(maxsize=64)
def _shared_table(first: int, last: int, C: int) -> np.ndarray:
    """`positional_table` for the offsets first, first-1, ..., last, built once
    per (offsets, C) and read-only, since every model of these dims shares it."""
    table = positional_table(range(first, last - 1, -1), C)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _layout(dims: ModelDims) -> list[tuple[str, tuple[int, ...], tuple[int, int] | float]]:
    """Every weight of `ModelParams`, in storage order, which is also the
    random-draw order: (attribute path, shape, init).

    The init is the (fan_in, fan_out) of a Glorot-uniform draw or a constant
    fill. A `*_all` entry is a (heads, C, d) stack of per-head projections.
    """
    C, heads, hidden = dims.C, dims.heads, dims.hidden

    def attention(at):
        stacks = [(f"{at}.w{x}_all", (heads, C, C // heads), (C, C // heads)) for x in "qkv"]
        return [*stacks, (f"{at}.wo", (C, C), (C, C))]

    def trd(at):
        return [
            *attention(f"{at}.self_attn"),
            *attention(f"{at}.cross_attn"),
            (f"{at}.w1", (C, hidden), (C, hidden)),
            (f"{at}.b1", (hidden,), 0.0),
            (f"{at}.w2", (hidden, C), (hidden, C)),
            (f"{at}.b2", (C,), 0.0),
            *((f"{at}.ln{i}.{k}", (C,), fill) for i in (1, 2, 3) for k, fill in (("gain", 1.0), ("bias", 0.0))),
        ]

    return [
        ("embed_w", (1, C), (1, C)),
        ("embed_b", (C,), 0.0),
        ("enc1_queries", (dims.e0, C), (C, C)),
        *trd("enc1"),
        ("enc2_queries", (dims.e1, C), (C, C)),
        *trd("enc2"),
        *trd("dec"),
        ("head_w", (C, 1), (C, 1)),
        ("head_b", (1,), 0.0),
    ]


def _tile(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of `flat`, one reshaped to each shape in turn."""
    bounds = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]


class ModelParams:
    """All learned weights: scalar embedding, two encoder blocks with learned
    query tokens, one decoder block, scalar output head.

    `vector`, one 1-D float64 array, stores every weight. Each weight is a leaf
    `Tensor` over a reshaped view of it, at the attribute path `_layout` gives
    (`enc1.ln1.gain`, ...). A stack `wq_all` is a (heads, C, d) view, and `wq`
    holds a `Tensor` per head over views of it, so an in-place update of the
    vector (Adam, checkpoint loading) is seen everywhere.

    Without `vector` the weights are drawn from `seed`. With it they are a copy
    of it, and no random generator is touched. `grad` is the matching flat
    gradient, allocated by the first `zero_grad()`. A copy or an unpickled
    model is rebuilt from `vector` (without `grad`), so it keeps this sharing
    and is writable. With `read_only` the vector, and so every view of it,
    refuses writes (`ModelParams.shared`), and `folds()` builds the inference
    folds once and keeps them.
    """

    def __init__(self, dims: ModelDims, seed: int = 0, vector: np.ndarray | None = None, *, read_only: bool = False):
        self.dims = dims
        layout = _layout(dims)
        shapes = [shape for _, shape, _ in layout]
        if vector is None:
            rng = np.random.default_rng(seed)
            draws = [
                uniform_init(rng, shape, *init) if isinstance(init, tuple) else np.full(shape, init)
                for _, shape, init in layout
            ]
            self.vector = np.concatenate([a.ravel() for a in draws])
        else:
            size = sum(math.prod(shape) for shape in shapes)
            if vector.dtype != np.float64 or vector.shape != (size,):
                raise ValueError(f"parameter array is {vector.dtype} {vector.shape}, expected float64 ({size},)")
            self.vector = vector.copy()
        # before any view is taken, as a view keeps the flag it was made with
        self.vector.flags.writeable = not read_only
        self.grad: np.ndarray | None = None
        self._folds: ModelFolds | None = None
        self._parameters: list[Tensor] = []
        for (path, _, _), view in zip(layout, _tile(self.vector, shapes)):
            *groups, name = path.split(".")
            node = self  # "enc1.self_attn.wo" -> self.enc1.self_attn.wo, groups made on first use
            for group in groups:
                node = node.__dict__.setdefault(group, SimpleNamespace())
            if name.endswith("_all"):
                setattr(node, name, view)
                leaves = [Tensor(head, requires_grad=True) for head in view]
                setattr(node, name.removesuffix("_all"), leaves)
            else:
                leaves = [Tensor(view, requires_grad=True)]
                setattr(node, name, leaves[0])
            self._parameters += leaves
        # relative-position rows for the local and global windows (shared, read-only)
        self.pos_lm = _shared_table(dims.lm - 1, 0, dims.C)
        self.pos_gm = _shared_table(dims.lm + dims.gm - 1, dims.lm, dims.C)

    @classmethod
    def shared(cls, dims: ModelDims, vector: np.ndarray) -> "ModelParams":
        """A read-only model of `vector`: the same object for every caller
        while one of them holds it, else a new one (see `ModelParams`).

        The memo is keyed on the dims and the weight bytes and holds its models
        weakly, so a process that loads many distinct models keeps only the
        live ones. A model is shared only read-only: a write through any of its
        weights raises, where it would silently change every holder.
        """
        key = (dims, vector.dtype.str, vector.shape, vector.tobytes())
        params = _SHARED_MODELS.get(key)
        if params is None:
            params = _SHARED_MODELS[key] = cls(dims, vector=vector, read_only=True)
        return params

    def folds(self) -> "ModelFolds":
        """The `ModelFolds` of these weights. A read-only model builds them on
        the first call and keeps them; a writable one folds its weights as they
        are on each call, since they may have changed since the last."""
        if self.vector.flags.writeable:
            return ModelFolds(self)
        if self._folds is None:
            self._folds = ModelFolds(self)
        return self._folds

    def __reduce__(self):
        # the default would copy each view apart from the vector
        return type(self), (self.dims, 0, self.vector)

    def parameters(self) -> list[Tensor]:
        """Every weight as a leaf `Tensor`, in storage order; a stack gives one per head."""
        return list(self._parameters)

    def zero_grad(self) -> None:
        """Zero `grad` and point each parameter's `.grad` at its view of it, so
        backward accumulates the gradients in place."""
        if self.grad is None:
            self.grad = np.zeros_like(self.vector)
            self._grad_views = _tile(self.grad, [t.shape for t in self._parameters])
        else:
            self.grad.fill(0.0)
        for t, g in zip(self._parameters, self._grad_views):
            t.grad = g


_SHARED_MODELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# Forward pieces. A `SimpleNamespace` argument is one group of `_layout`: a
# block (`enc1`), one of its attentions (`enc1.self_attn`) or a layer norm.
# ---------------------------------------------------------------------------


def multi_head_attention(queries: Tensor, memory: Tensor, p: SimpleNamespace) -> Tensor:
    """Multi-head attention with `memory` providing both keys and values."""
    d = p.wq[0].shape[1]
    scale = 1.0 / math.sqrt(d)
    heads = []
    for wq, wk, wv in zip(p.wq, p.wk, p.wv):
        q = queries.matmul(wq)
        k = memory.matmul(wk)
        v = memory.matmul(wv)
        logits = q.matmul(k.transpose_last()) * scale
        heads.append(logits.softmax_last().matmul(v))
    return concat_last(heads).matmul(p.wo)


def feed_forward(x: Tensor, p: SimpleNamespace) -> Tensor:
    return (x.matmul(p.w1) + p.b1).relu().matmul(p.w2) + p.b2


def trd_forward(tokens: Tensor, memory: Tensor, p: SimpleNamespace) -> Tensor:
    """Self-attention, cross-attention over `memory`, FFN; post-norm residuals."""
    x1 = (tokens + multi_head_attention(tokens, tokens, p.self_attn)).layer_norm(p.ln1.gain, p.ln1.bias, LN_EPS)
    x2 = (x1 + multi_head_attention(x1, memory, p.cross_attn)).layer_norm(p.ln2.gain, p.ln2.bias, LN_EPS)
    return (x2 + feed_forward(x2, p)).layer_norm(p.ln3.gain, p.ln3.bias, LN_EPS)


def embed_window(values: Tensor, pos: np.ndarray, p: ModelParams) -> Tensor:
    """Map raw (batched) window values [.., n] to features [.., n, C]."""
    n = values.shape[-1]
    x = values.reshape(*values.shape, 1)
    feats = x.matmul(p.embed_w) + p.embed_b
    return feats + Tensor(pos[:n])


def encode_global(gm_features: Tensor, p: ModelParams) -> Tensor:
    """Compress global-window features [.., gm, C] into [.., e1, C]."""
    stage1 = trd_forward(p.enc1_queries, gm_features, p.enc1)
    return trd_forward(p.enc2_queries, stage1, p.enc2)


def decode_local(lm_features: Tensor, encoded: Tensor, p: ModelParams) -> Tensor:
    """Reconstruct the local window [.., lm] from its features and the encoded context."""
    out = trd_forward(lm_features, encoded, p.dec)
    rec = out.matmul(p.head_w) + p.head_b
    return rec.reshape(*rec.shape[:-1])


def mtr_forward_t(lm_values: Tensor, gm_values: Tensor, p: ModelParams) -> Tensor:
    """Full reconstruction pass on (batched) normalized window values."""
    lm_feats = embed_window(lm_values, p.pos_lm, p)
    gm_feats = embed_window(gm_values, p.pos_gm, p)
    encoded = encode_global(gm_feats, p)
    return decode_local(lm_feats, encoded, p)


# ---------------------------------------------------------------------------
# Inference forward on plain arrays (the same arithmetic as the Tensor ops,
# without graph nodes)
# ---------------------------------------------------------------------------


def _mha(x: np.ndarray, memory: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    """`multi_head_attention` on arrays, all heads at once.

    Each projection is one broadcast matmul against the (h, C, d) stacks, so
    heads sit on a new axis -3.
    """
    mem = memory[..., None, :, :]
    q = x[..., None, :, :] @ p.wq_all
    logits = q @ (mem @ p.wk_all).swapaxes(-1, -2) * (1.0 / math.sqrt(p.wq_all.shape[-1]))
    # (.., h, n, d) -> (.., n, h*d): the heads side by side, as `concat_last`
    joined = (softmax_rows(logits) @ (mem @ p.wv_all)).swapaxes(-3, -2)
    return joined.reshape(*joined.shape[:-2], -1) @ p.wo.data


def fold_attention(*attns: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The per-head products of k attentions, each (k, h, C, C):
    `qk` = wq_h wk_h^T / sqrt(d) and `vo` = wv_h wo_h, with wo_h the rows of
    `wo` that head h's output meets. Then the attention of queries x over
    memory m is sum_h softmax(x qk_h m^T) m vo_h (see `_attend`)."""
    wq, wk, wv = (np.array([getattr(a, name) for a in attns]) for name in ("wq_all", "wk_all", "wv_all"))
    k, h, C, d = wq.shape
    qk = wq @ wk.swapaxes(-1, -2) * (1.0 / math.sqrt(d))
    return qk, wv @ np.array([a.wo.data for a in attns]).reshape(k, h, d, C)


def _attend(logits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A folded attention: sum over the head axis (-3) of softmax(logits_h) @ values_h."""
    return np.add.reduce(softmax_rows(logits) @ values, axis=-3)


# The cached branch runs one window at a time, on 2-D arrays. It multiplies
# them with `ndarray.dot`, which for 2-D operands is `@` at about half the
# per-call cost on matrices this small.


def _attend_side(queries: np.ndarray, memory: np.ndarray, vo: np.ndarray) -> np.ndarray:
    """A folded attention with the heads side by side.

    `queries` holds each query's h per-head rows x qk_h in turn (n*h x C), and
    `vo` is the (h, C, w) stack. The softmax weights, (n*h, m), are read as
    (n, h*m), so one matmul against the stacked values (h*m, w) also sums
    the heads.
    """
    weights = softmax_rows(queries.dot(memory.T))
    return weights.reshape(len(queries) // len(vo), -1).dot((memory @ vo).reshape(-1, vo.shape[-1]))


def folded_attention(x: np.ndarray, memory: np.ndarray, rows: np.ndarray, vo: np.ndarray) -> np.ndarray:
    """x @ fold plus the folded attention of x over `memory`, with rows =
    [qk_1 | ... | qk_h | fold] (C, h*C + w): one matmul gives the per-head
    queries and the residual through the next layer norm's fold."""
    hc = rows.shape[1] - vo.shape[-1]
    a = x.dot(rows)
    return a[:, hc:] + _attend_side(a[:, :hc].reshape(-1, x.shape[-1]), memory, vo)


def fold_layer_norms(gains: np.ndarray) -> np.ndarray:
    """The (.., C, 2C) folds [P | P diag(g)] of layer norms with gains g
    (.., C), where P = I - 1/C centres a row.

    With r = x @ fold, `folded_ln(r, bias)` is the layer norm of x, so the
    matrix that produces x can absorb the norm's centring and gain. A matrix
    after the fold's second half (the output head) passes through the norm,
    which scales each row.
    """
    C = gains.shape[-1]
    folds = np.empty((*gains.shape[:-1], C, 2 * C))
    folds[...] = _centring(C)
    folds[..., C:] *= gains[..., None, :]
    return folds


def folded_ln(r: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The layer norm of x, given r = x @ `fold_layer_norms`(gain) (or that
    fold with a matrix after its second half) and the norm's bias.

    The first C columns of r are the centred row, so the mean of their
    squares is the row variance; the rest are divided by the row's std.
    """
    C = r.shape[-1] - bias.shape[-1]
    centred = r[..., :C]
    return r[..., C:] / np.sqrt((centred * centred).dot(_row_mean(C)) + LN_EPS) + bias


@functools.lru_cache(maxsize=64)
def _centring(C: int) -> np.ndarray:
    """[P | P], P = I - 1/C, read-only."""
    centre = np.eye(C) - 1.0 / C
    both = np.concatenate([centre, centre], axis=1)
    both.flags.writeable = False
    return both


@functools.lru_cache(maxsize=64)
def _row_mean(C: int) -> np.ndarray:
    """A read-only (C, 1) column of 1/C: `.dot` with it takes each row's
    mean, at a fraction of `np.add.reduce`'s per-call cost on rows this short."""
    column = np.full((C, 1), 1.0 / C)
    column.flags.writeable = False
    return column


def _folded_tail(r2: np.ndarray, p: SimpleNamespace, fold: np.ndarray, ln3_bias: np.ndarray) -> np.ndarray:
    """The tail of TRD block `p` on the cached branch: ln2 of the folded `r2`,
    the FFN, and ln3 through its `fold`. For the decoder that fold carries the
    output head and `ln3_bias` is the head's constant, so this gives the
    reconstruction (n x 1)."""
    x2 = folded_ln(r2, p.ln2.bias.data)
    ffn = relu(x2.dot(p.w1.data) + p.b1.data).dot(p.w2.data) + p.b2.data
    return folded_ln((x2 + ffn).dot(fold), ln3_bias)


class ModelFolds:
    """The input-independent arrays of the cached inference forward for one
    model's weights, read-only: a write raises, where it would change every
    meter that runs the model. `ModelParams.folds` builds them;
    `engine.AttentionCache` binds them next to its ring.

    Every attention is folded into two per-head products (`fold_attention`):
    qk = wq_h wk_h^T / sqrt(d) and vo = wv_h wo_h, so a cached step runs it
    without the per-head projections, the head concatenation and `wo`. Every
    layer norm is folded too (`fold_layer_norms`): with fold = [P | P diag(g)],
    P = I - 1/C, the norm of x is `folded_ln`(x @ fold, bias). Each fold is
    multiplied into whatever produces the norm's input: the residual and the
    attention values (vo @ fold, h x C x 2C); ln3's fold takes the FFN's
    output plus its input.

    enc1 (cross-attention over the global window):
    fixed_queries: post-self-attention query block (e0 x C).
    eff_queries:   fixed_queries @ qk, the per-head effective queries
                   (h x e0 x C); a reading entering the global window adds
                   eff_queries @ its feature to the cache's ring.
    pos_logits:    positional logit part per ring slot (h x e0 x gm), slot 0
                   holding the oldest offset lm+gm-1.
    enc1_values:   (scale, offset), the values gm_feats @ vo @ fold of ln2
                   split as gm_values[:, None] * scale + offset, with scale =
                   embed_w @ vo @ fold (h x 1 x 2C) and offset =
                   (embed_b + pos_gm) @ vo @ fold (h x gm x 2C).
    enc1_residual: fixed_queries @ fold of ln2 (e0 x 2C).

    enc2 (its queries are learned constants too, so its whole self-attention
    stage is frozen):
    enc2_eff_queries: its post-self-attention queries times each head's qk,
                      the h rows of each query in turn (e1*h x C).
    enc2_vo:          vo @ fold of ln2 (h x C x 2C).
    enc2_residual:    post-self-attention queries @ fold of ln2 (e1 x 2C).

    dec_self, dec_cross: the decoder's attentions as (rows, vo @ fold) pairs
    for `folded_attention`, with rows = [qk_1 | ... | qk_h | fold]
    (C x h*C + 2C), so one matmul gives the per-head queries and the residual;
    fold is that of ln1 and ln2.

    enc1_ln3, enc2_ln3: the folds of the encoder blocks' ln3, which take the
                      FFN's output plus its input (C x 2C).
    dec_head:         (fold, bias) of the decoder's ln3 with the output head:
                      [P | P diag(g) head_w] (C x C+1) and the constant
                      ln3.bias @ head_w + head_b.
    """

    def __init__(self, params: ModelParams):
        dims = params.dims
        C = dims.C
        enc1, enc2, dec = params.enc1, params.enc2, params.dec
        attns = (enc1.self_attn, enc2.self_attn, enc1.cross_attn, enc2.cross_attn, dec.self_attn, dec.cross_attn)
        qk, vo = fold_attention(*attns)
        # the norm each attention's output meets sits at the same place here
        norms = (enc1.ln1, enc2.ln1, enc1.ln2, enc2.ln2, dec.ln1, dec.ln2, enc1.ln3, enc2.ln3, dec.ln3)
        folds = fold_layer_norms(np.array([n.gain.data for n in norms]))
        vo = vo @ folds[:6, None]
        # [qk_1 | ... | qk_h | fold] (C, h*C + 2C), as `folded_attention` takes it
        rows = np.concatenate([qk.transpose(0, 2, 1, 3).reshape(len(attns), C, -1), folds[:6]], axis=-1)
        hc = dims.heads * C
        # the decoder's last norm meets the output head: [P | P diag(g) head_w]
        head = np.concatenate([folds[8, :, :C], folds[8, :, C:] @ params.head_w.data], axis=1)

        # both encoders' self-attention stages see only their learned queries
        queries = params.enc1_queries.data
        self.fixed_queries = folded_ln(folded_attention(queries, queries, rows[0], vo[0]), enc1.ln1.bias.data)
        self.eff_queries = self.fixed_queries @ qk[2]
        # slot j (oldest first) pairs with relative offset lm+gm-1-j
        self.pos_logits = self.eff_queries @ params.pos_gm.T
        self.enc1_values = (params.embed_w.data @ vo[2], (params.embed_b.data + params.pos_gm) @ vo[2])
        self.enc1_residual = self.fixed_queries @ folds[2]
        self.enc1_ln3 = folds[6]

        queries = params.enc2_queries.data
        queries = folded_ln(folded_attention(queries, queries, rows[1], vo[1]), enc2.ln1.bias.data).dot(rows[3])
        self.enc2_eff_queries = queries[:, :hc].reshape(-1, C)
        self.enc2_vo = vo[3]
        self.enc2_residual = queries[:, hc:]
        self.enc2_ln3 = folds[7]

        self.dec_self = (rows[4], vo[4])
        self.dec_cross = (rows[5], vo[5])
        self.dec_head = (head, dec.ln3.bias.data @ params.head_w.data + params.head_b.data)

        for value in vars(self).values():
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False


def _ln(x: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    return _layer_norm(x, p.gain.data, p.bias.data, LN_EPS)


def self_attend(tokens: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    """First stage of a TRD block on arrays: self-attention, residual, norm."""
    return _ln(tokens + _mha(tokens, tokens, p.self_attn), p.ln1)


def _trd(x1: np.ndarray, memory: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    """The rest of `trd_forward` on arrays, after `self_attend` gave `x1`:
    cross-attention over `memory`, FFN, post-norm residuals."""
    x2 = _ln(x1 + _mha(x1, memory, p.cross_attn), p.ln2)
    ffn = relu(x2 @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data
    return _ln(x2 + ffn, p.ln3)


def mtr_forward(lm_values: np.ndarray, gm_values: np.ndarray, p: ModelParams, cache=None) -> np.ndarray:
    """Inference forward on plain (batched) arrays; equals `mtr_forward_t`.

    Without `cache` it scores any batch of windows: training's full-set loss
    and the reference the cached branch is tested against. With `cache` (an
    `engine.AttentionCache` over this global window, single window only) every
    input-independent piece comes from its `ModelFolds`, and the result equals
    the plain branch to rounding, not bit for bit.
    """
    lm_values = np.asarray(lm_values, dtype=np.float64)
    gm_values = np.asarray(gm_values, dtype=np.float64)
    if lm_values.shape[-1] != p.dims.lm or gm_values.shape[-1] != p.dims.gm:
        raise ValueError("window lengths do not match model dims")
    embed_w, embed_b = p.embed_w.data, p.embed_b.data
    lm_feats = lm_values[..., None] @ embed_w + embed_b + p.pos_lm
    if cache is None:
        gm_feats = gm_values[..., None] @ embed_w + embed_b + p.pos_gm
        stage1 = _trd(self_attend(p.enc1_queries.data, p.enc1), gm_feats, p.enc1)
        encoded = _trd(self_attend(p.enc2_queries.data, p.enc2), stage1, p.enc2)
        out = _trd(self_attend(lm_feats, p.dec), encoded, p.dec)
        return (out @ p.head_w.data + p.head_b.data)[..., 0]
    # enc1's values are gm_feats @ vo @ fold, split into a per-reading and a fixed part
    scale, offset = cache.enc1_values
    cross = _attend(cache.assemble_logits(), gm_values[:, None] * scale + offset)
    stage1 = _folded_tail(cache.enc1_residual + cross, p.enc1, cache.enc1_ln3, p.enc1.ln3.bias.data)
    cross = _attend_side(cache.enc2_eff_queries, stage1, cache.enc2_vo)
    encoded = _folded_tail(cache.enc2_residual + cross, p.enc2, cache.enc2_ln3, p.enc2.ln3.bias.data)
    x1 = folded_ln(folded_attention(lm_feats, lm_feats, *cache.dec_self), p.dec.ln1.bias.data)
    return _folded_tail(folded_attention(x1, encoded, *cache.dec_cross), p.dec, *cache.dec_head)[:, 0]
