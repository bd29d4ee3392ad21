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

import math
from dataclasses import dataclass

import numpy as np

from .nn import Tensor, concat_last, layer_norm, relu, softmax_rows, uniform_init

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
    return np.stack([positional_encoding(int(t), C) for t in taus])


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class AttentionParams:
    """Per-head query/key/value projections plus a shared output projection."""

    def __init__(self, rng: np.random.Generator, C: int, heads: int):
        d = C // heads
        self.wq = [Tensor(uniform_init(rng, (C, d), C, d), requires_grad=True) for _ in range(heads)]
        self.wk = [Tensor(uniform_init(rng, (C, d), C, d), requires_grad=True) for _ in range(heads)]
        self.wv = [Tensor(uniform_init(rng, (C, d), C, d), requires_grad=True) for _ in range(heads)]
        self.wo = Tensor(uniform_init(rng, (C, C), C, C), requires_grad=True)

    def tensors(self) -> list[Tensor]:
        return [*self.wq, *self.wk, *self.wv, self.wo]


class LayerNormParams:
    def __init__(self, C: int):
        self.gain = Tensor(np.ones(C), requires_grad=True)
        self.bias = Tensor(np.zeros(C), requires_grad=True)

    def tensors(self) -> list[Tensor]:
        return [self.gain, self.bias]


class TRDParams:
    """One transformer decoder block: self-attention, cross-attention, FFN,
    three residual-add + layer-norm stages."""

    def __init__(self, rng: np.random.Generator, C: int, hidden: int, heads: int):
        self.self_attn = AttentionParams(rng, C, heads)
        self.cross_attn = AttentionParams(rng, C, heads)
        self.w1 = Tensor(uniform_init(rng, (C, hidden), C, hidden), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(uniform_init(rng, (hidden, C), hidden, C), requires_grad=True)
        self.b2 = Tensor(np.zeros(C), requires_grad=True)
        self.ln1 = LayerNormParams(C)
        self.ln2 = LayerNormParams(C)
        self.ln3 = LayerNormParams(C)

    def tensors(self) -> list[Tensor]:
        return [
            *self.self_attn.tensors(),
            *self.cross_attn.tensors(),
            self.w1,
            self.b1,
            self.w2,
            self.b2,
            *self.ln1.tensors(),
            *self.ln2.tensors(),
            *self.ln3.tensors(),
        ]


class ModelParams:
    """All learned weights: scalar embedding, two encoder blocks with learned
    query tokens, one decoder block, scalar output head."""

    def __init__(self, dims: ModelDims, seed: int = 0):
        self.dims = dims
        rng = np.random.default_rng(seed)
        C = dims.C
        self.embed_w = Tensor(uniform_init(rng, (1, C), 1, C), requires_grad=True)
        self.embed_b = Tensor(np.zeros(C), requires_grad=True)
        self.enc1_queries = Tensor(uniform_init(rng, (dims.e0, C), C, C), requires_grad=True)
        self.enc1 = TRDParams(rng, C, dims.hidden, dims.heads)
        self.enc2_queries = Tensor(uniform_init(rng, (dims.e1, C), C, C), requires_grad=True)
        self.enc2 = TRDParams(rng, C, dims.hidden, dims.heads)
        self.dec = TRDParams(rng, C, dims.hidden, dims.heads)
        self.head_w = Tensor(uniform_init(rng, (C, 1), C, 1), requires_grad=True)
        self.head_b = Tensor(np.zeros(1), requires_grad=True)
        # precomputed relative-position rows for the local and global windows
        self.pos_lm = positional_table(range(dims.lm - 1, -1, -1), C)
        self.pos_gm = positional_table(range(dims.lm + dims.gm - 1, dims.lm - 1, -1), C)

    def parameters(self) -> list[Tensor]:
        return [
            self.embed_w,
            self.embed_b,
            self.enc1_queries,
            *self.enc1.tensors(),
            self.enc2_queries,
            *self.enc2.tensors(),
            *self.dec.tensors(),
            self.head_w,
            self.head_b,
        ]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention softmax(q k^T / sqrt(C)) v on plain arrays."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.shape[-1] != k.shape[-1]:
        raise ValueError("query/key width mismatch")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError("key/value count mismatch")
    logits = q @ np.swapaxes(k, -1, -2) / math.sqrt(q.shape[-1])
    return softmax_rows(logits) @ v


def multi_head_attention(queries: Tensor, memory: Tensor, p: AttentionParams) -> Tensor:
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


def feed_forward(x: Tensor, p: TRDParams) -> Tensor:
    return (x.matmul(p.w1) + p.b1).relu().matmul(p.w2) + p.b2


def trd_forward(tokens: Tensor, memory: Tensor, p: TRDParams) -> Tensor:
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


def _mha(x: np.ndarray, memory: np.ndarray, p: AttentionParams, logits: np.ndarray | None = None) -> np.ndarray:
    """`multi_head_attention` on arrays; `logits` (h x n x m), when given,
    stands in for the scaled query-key products."""
    scale = 1.0 / math.sqrt(p.wq[0].shape[1])
    heads = []
    for k, (wq, wk, wv) in enumerate(zip(p.wq, p.wk, p.wv)):
        if logits is None:
            lg = (x @ wq.data) @ np.swapaxes(memory @ wk.data, -1, -2) * scale
        else:
            lg = logits[k]
        heads.append(softmax_rows(lg) @ (memory @ wv.data))
    return np.concatenate(heads, axis=-1) @ p.wo.data


def _ln(x: np.ndarray, p: LayerNormParams) -> np.ndarray:
    return layer_norm(x, p.gain.data, p.bias.data, LN_EPS)


def self_attend(tokens: np.ndarray, p: TRDParams) -> np.ndarray:
    """First stage of a TRD block on arrays: self-attention, residual, norm."""
    return _ln(tokens + _mha(tokens, tokens, p.self_attn), p.ln1)


def _trd(tokens: np.ndarray, memory: np.ndarray, p: TRDParams, cache=None) -> np.ndarray:
    """`trd_forward` on arrays. With `cache` (enc1 only), the post-self-attention
    queries and the cross-attention logits are read from it."""
    if cache is None:
        x1, logits = self_attend(tokens, p), None
    else:
        x1, logits = cache.fixed_queries, cache.assemble_logits()
    x2 = _ln(x1 + _mha(x1, memory, p.cross_attn, logits), p.ln2)
    ffn = relu(x2 @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data
    return _ln(x2 + ffn, p.ln3)


def mtr_forward(lm_values: np.ndarray, gm_values: np.ndarray, p: ModelParams, cache=None) -> np.ndarray:
    """Inference forward on plain (batched) arrays; equals `mtr_forward_t`.

    `cache` (an `engine.AttentionCache` over this global window, single window
    only) supplies enc1's post-self-attention queries and cross-attention logits.
    """
    lm_values = np.asarray(lm_values, dtype=np.float64)
    gm_values = np.asarray(gm_values, dtype=np.float64)
    if lm_values.shape[-1] != p.dims.lm or gm_values.shape[-1] != p.dims.gm:
        raise ValueError("window lengths do not match model dims")
    embed_w, embed_b = p.embed_w.data, p.embed_b.data
    lm_feats = lm_values[..., None] @ embed_w + embed_b + p.pos_lm
    gm_feats = gm_values[..., None] @ embed_w + embed_b + p.pos_gm
    stage1 = _trd(p.enc1_queries.data, gm_feats, p.enc1, cache)
    encoded = _trd(p.enc2_queries.data, stage1, p.enc2)
    out = _trd(lm_feats, encoded, p.dec) @ p.head_w.data + p.head_b.data
    return out[..., 0]
