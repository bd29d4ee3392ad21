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


def positional_encoding(tau: int, C: int) -> np.ndarray:
    """Sinusoidal encoding of a relative offset: even slots sin, odd slots cos."""
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


def positional_table(taus, C: int) -> np.ndarray:
    """`positional_encoding` rows for a sequence of offsets, in one broadcast."""
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
    model is rebuilt from `vector` (without `grad`), so it keeps this sharing.
    """

    def __init__(self, dims: ModelDims, seed: int = 0, vector: np.ndarray | None = None):
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
        self.grad: np.ndarray | None = None
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


def fold_attention(p: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The per-head products of one attention, each (h, C, C):
    `qk` = wq_h wk_h^T / sqrt(d) and `vo` = wv_h wo_h, with wo_h the rows of
    `wo` that head h's output meets. Then the attention of queries x over
    memory m is sum_h softmax(x qk_h m^T) m vo_h (see `_attend`)."""
    h, C, d = p.wq_all.shape
    qk = p.wq_all @ p.wk_all.swapaxes(-1, -2) * (1.0 / math.sqrt(d))
    return qk, p.wv_all @ p.wo.data.reshape(h, d, C)


def _attend(logits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A folded attention: sum over the head axis (-3) of softmax(logits_h) @ values_h."""
    return np.add.reduce(softmax_rows(logits) @ values, axis=-3)


def _ln(x: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    return _layer_norm(x, p.gain.data, p.bias.data, LN_EPS)


def self_attend(tokens: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    """First stage of a TRD block on arrays: self-attention, residual, norm."""
    return _ln(tokens + _mha(tokens, tokens, p.self_attn), p.ln1)


def _block(x1: np.ndarray, cross: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    """The tail of a TRD block, given the post-self-attention tokens `x1` and
    their cross-attention output `cross`: FFN, post-norm residuals."""
    x2 = _ln(x1 + cross, p.ln2)
    ffn = relu(x2 @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data
    return _ln(x2 + ffn, p.ln3)


def _trd(x1: np.ndarray, memory: np.ndarray, p: SimpleNamespace) -> np.ndarray:
    """The rest of `trd_forward` on arrays, after `self_attend` gave `x1`."""
    return _block(x1, _mha(x1, memory, p.cross_attn), p)


def mtr_forward(lm_values: np.ndarray, gm_values: np.ndarray, p: ModelParams, cache=None) -> np.ndarray:
    """Inference forward on plain (batched) arrays; equals `mtr_forward_t`.

    `cache` (an `engine.AttentionCache` over this global window, single window
    only) supplies every input-independent piece: both encoder blocks'
    post-self-attention queries, enc1's cross-attention logits and the parts
    of its values, and every attention's folded products (`fold_attention`).
    That branch equals the plain one to rounding, not bit for bit.
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
    else:
        # enc1's values are gm_feats @ vo, split into a per-reading and a fixed part
        values = gm_values[:, None] * cache.enc1_value_scale + cache.enc1_value_offset
        stage1 = _block(cache.fixed_queries, _attend(cache.assemble_logits(), values), p.enc1)
        cross = _attend(cache.enc2_qk @ stage1.T, stage1 @ cache.enc2_vo)
        encoded = _block(cache.enc2_fixed_queries, cross, p.enc2)
        qk, vo = cache.dec_self
        x1 = _ln(lm_feats + _attend(lm_feats @ qk @ lm_feats.T, lm_feats @ vo), p.dec.ln1)
        qk, vo = cache.dec_cross
        out = _block(x1, _attend(x1 @ qk @ encoded.T, encoded @ vo), p.dec)
    return (out @ p.head_w.data + p.head_b.data)[..., 0]
