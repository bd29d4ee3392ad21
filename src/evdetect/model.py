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

`mtr_forward` is the one forward, on plain arrays. Inference runs it on the
model's `ModelFolds`, one window at a time; training runs it with a tape and
then `mtr_backward`, the hand-written reverse pass over that tape, which adds
every gradient to the flat `ModelParams.grad`.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .nn import Tensor, _normalized, relu, softmax_rows, uniform_init

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
        for name, size in vars(self).items():
            if not (isinstance(size, int) and size >= 1):
                raise ValueError(f"model size {name} must be an integer >= 1, got {size!r}")
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


def _place(root, path: str, value) -> None:
    """Set `root`.path to `value`: "enc1.self_attn.wo" sets
    root.enc1.self_attn.wo, making the groups on first use."""
    *groups, name = path.split(".")
    for group in groups:
        root = root.__dict__.setdefault(group, SimpleNamespace())
    setattr(root, name, value)


class ModelParams:
    """All learned weights: scalar embedding, two encoder blocks with learned
    query tokens, one decoder block, scalar output head.

    `vector`, one 1-D float64 array, stores every weight. Each weight is a
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
            finite = np.isfinite(vector)
            if not finite.all():
                raise ValueError(f"weight {np.argmin(finite)} of the parameter array is not finite")
            self.vector = vector.copy()
        # before any view is taken, as a view keeps the flag it was made with
        self.vector.flags.writeable = not read_only
        self.grad: np.ndarray | None = None
        self._folds: ModelFolds | None = None
        self._parameters: list[Tensor] = []
        for (path, _, _), view in zip(layout, _tile(self.vector, shapes)):
            if path.endswith("_all"):
                _place(self, path, view)
                leaves = [Tensor(head) for head in view]
                _place(self, path.removesuffix("_all"), leaves)
            else:
                leaves = [Tensor(view)]
                _place(self, path, leaves[0])
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
        """Every weight as a `Tensor`, in storage order; a stack gives one per head."""
        return list(self._parameters)

    def zero_grad(self) -> None:
        """Zero `grad`, allocating it on the first call. Then each parameter's
        `.grad` is its view of it, and `_grads` is the weights' tree over it
        (`_grads.enc1.self_attn.wq_all`, ...), where `mtr_backward` adds."""
        if self.grad is not None:
            self.grad.fill(0.0)
            return
        self.grad = np.zeros_like(self.vector)
        for t, view in zip(self._parameters, _tile(self.grad, [t.shape for t in self._parameters])):
            t.grad = view
        layout = _layout(self.dims)
        self._grads = SimpleNamespace()
        for (path, _, _), view in zip(layout, _tile(self.grad, [shape for _, shape, _ in layout])):
            _place(self._grads, path, view)


_SHARED_MODELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# The forward on plain arrays. A `SimpleNamespace` argument is one group of
# `_layout`: a block (`enc1`), one of its attentions (`enc1.self_attn`) or a
# layer norm. Given a `tape` (a list), each piece appends what its backward
# needs, and `mtr_backward` pops the records in reverse order.
# ---------------------------------------------------------------------------


def _mha(x: np.ndarray, memory: np.ndarray, p: SimpleNamespace, tape: list | None = None) -> np.ndarray:
    """Multi-head attention of queries `x` over `memory` (keys and values),
    all heads at once.

    Each projection is one broadcast matmul against the (h, C, d) stacks, so
    heads sit on a new axis -3.
    """
    mem = memory[..., None, :, :]
    q = x[..., None, :, :] @ p.wq_all
    k = mem @ p.wk_all
    v = mem @ p.wv_all
    weights = softmax_rows(q @ k.swapaxes(-1, -2) * (1.0 / math.sqrt(p.wq_all.shape[-1])))
    # (.., h, n, d) -> (.., n, h*d): the heads side by side
    joined = (weights @ v).swapaxes(-3, -2)
    joined = joined.reshape(*joined.shape[:-2], -1)
    if tape is not None:
        tape.append((x, memory, q, k, v, weights, joined))
    return joined @ p.wo.data


def fold_attention(*attns: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The per-head products of k attentions, each (k, h, C, C):
    `qk` = wq_h wk_h^T / sqrt(d) and `vo` = wv_h wo_h, with wo_h the rows of
    `wo` that head h's output meets. Then the attention of queries x over
    memory m is sum_h softmax(x qk_h m^T) m vo_h (see `_attend`). Only the
    attentions a step runs are folded; `self_attend` gives the frozen query blocks."""
    wq, wk, wv = (np.array([getattr(a, name) for a in attns]) for name in ("wq_all", "wk_all", "wv_all"))
    k, h, C, d = wq.shape
    qk = wq @ wk.swapaxes(-1, -2) * (1.0 / math.sqrt(d))
    return qk, wv @ np.array([a.wo.data for a in attns]).reshape(k, h, d, C)


# The folded branch runs one window at a time, on 2-D arrays. It multiplies
# them with `ndarray.dot`, which for 2-D operands is `@` at about half the
# per-call cost on matrices this small.


def _attend(logits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A folded attention, sum_h softmax(logits_h) @ values_h, with the heads
    side by side: `logits` holds each query's h per-head rows in turn, and
    `values` the per-head blocks stacked (h*m, w). The softmax weights are
    read as (n, h*m), so one matmul also sums the heads."""
    return softmax_rows(logits).reshape(-1, len(values)).dot(values)


def folded_attention(x: np.ndarray, memory: np.ndarray, rows: np.ndarray, vo: np.ndarray) -> np.ndarray:
    """x @ fold plus the folded attention of x over `memory`, with rows =
    [qk_1 | ... | qk_h | fold] (C, h*C + w) and `vo` the (h, C, w) stack: one
    matmul gives the per-head queries and the residual through the next
    layer norm's fold."""
    hc = rows.shape[1] - vo.shape[-1]
    a = x.dot(rows)
    logits = a[:, :hc].reshape(-1, x.shape[-1]).dot(memory.T)
    return a[:, hc:] + _attend(logits, (memory @ vo).reshape(-1, vo.shape[-1]))


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
    meter that runs the model. `ModelParams.folds` builds them; with the two
    windows they are all that the cached branch of `mtr_forward` reads.

    Both encoders' queries are learned constants, so `self_attend` runs their
    self-attention stages once, here. The four attentions a step runs are
    folded into two per-head products (`fold_attention`), qk and vo, which
    `_attend` contracts with the heads side by side. The seven norms they
    meet are folded too (`fold_layer_norms`): with fold = [P | P diag(g)],
    P = I - 1/C, the norm of x is `folded_ln`(x @ fold, bias). Each fold is
    multiplied into whatever produces the norm's input: the residual and the
    attention values (vo @ fold, h x C x 2C); ln3's fold takes the FFN's
    output plus its input.

    enc1 (cross-attention over the global window):
    fixed_queries: post-self-attention query block (e0 x C).
    enc1_logits:   (scale, offset), the cross-attention logits eff @ gm_feats^T,
                   with eff = fixed_queries @ qk the per-head effective
                   queries, split as gm_values * scale + offset: scale =
                   eff @ embed_w^T (e0 x h x 1) and offset =
                   eff @ (embed_b + pos_gm)^T (e0 x h x gm), column 0 holding
                   the oldest offset lm+gm-1.
    enc1_values:   (scale, offset), the values gm_feats @ vo @ fold of ln2
                   split as gm_values[:, None] * scale + offset, with scale =
                   embed_w @ vo @ fold (h x 1 x 2C) and offset =
                   (embed_b + pos_gm) @ vo @ fold (h x gm x 2C); a step reads
                   them as (h*gm x 2C).
    enc1_residual: fixed_queries @ fold of ln2 (e0 x 2C).

    enc2:
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
        C = params.dims.C
        hc = params.dims.heads * C
        enc1, enc2, dec = params.enc1, params.enc2, params.dec
        attns = (enc1.cross_attn, enc2.cross_attn, dec.self_attn, dec.cross_attn)
        qk, vo = fold_attention(*attns)
        # the norm each attention's output meets sits at the same place here
        norms = (enc1.ln2, enc2.ln2, dec.ln1, dec.ln2, enc1.ln3, enc2.ln3, dec.ln3)
        folds = fold_layer_norms(np.array([n.gain.data for n in norms]))
        vo = vo @ folds[:4, None]
        # [qk_1 | ... | qk_h | fold] (C, h*C + 2C), as `folded_attention` takes it
        rows = np.concatenate([qk.transpose(0, 2, 1, 3).reshape(len(attns), C, -1), folds[:4]], axis=-1)
        # the decoder's last norm meets the output head: [P | P diag(g) head_w]
        head = np.concatenate([folds[6, :, :C], folds[6, :, C:] @ params.head_w.data], axis=1)

        self.fixed_queries = self_attend(params.enc1_queries.data, enc1)
        queries = self.fixed_queries.dot(rows[0])
        eff = queries[:, :hc].reshape(len(queries), -1, C)
        gm_fixed = params.embed_b.data + params.pos_gm  # each global-window feature but its reading's part
        self.enc1_logits = (eff @ params.embed_w.data.T, eff @ gm_fixed.T)
        self.enc1_values = (params.embed_w.data @ vo[0], gm_fixed @ vo[0])
        self.enc1_residual = queries[:, hc:]
        self.enc1_ln3 = folds[4]

        queries = self_attend(params.enc2_queries.data, enc2).dot(rows[1])
        self.enc2_eff_queries = queries[:, :hc].reshape(-1, C)
        self.enc2_vo = vo[1]
        self.enc2_residual = queries[:, hc:]
        self.enc2_ln3 = folds[5]

        self.dec_self = (rows[2], vo[2])
        self.dec_cross = (rows[3], vo[3])
        self.dec_head = (head, dec.ln3.bias.data @ params.head_w.data + params.head_b.data)

        for value in vars(self).values():
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False


def _ln(x: np.ndarray, p: SimpleNamespace, tape: list | None = None) -> np.ndarray:
    xhat, inv_std = _normalized(x, LN_EPS)
    if tape is not None:
        tape.append((xhat, inv_std))
    return xhat * p.gain.data + p.bias.data


def self_attend(tokens: np.ndarray, p: SimpleNamespace, tape: list | None = None) -> np.ndarray:
    """First stage of a TRD block: self-attention, residual, norm."""
    return _ln(tokens + _mha(tokens, tokens, p.self_attn, tape), p.ln1, tape)


def _trd(x1: np.ndarray, memory: np.ndarray, p: SimpleNamespace, tape: list | None = None) -> np.ndarray:
    """The rest of TRD block `p`, after `self_attend` gave `x1`:
    cross-attention over `memory`, FFN, post-norm residuals."""
    x2 = _ln(x1 + _mha(x1, memory, p.cross_attn, tape), p.ln2, tape)
    hidden = relu(x2 @ p.w1.data + p.b1.data)
    if tape is not None:
        tape.append((x2, hidden))
    return _ln(x2 + (hidden @ p.w2.data + p.b2.data), p.ln3, tape)


def _embed(values: np.ndarray, pos: np.ndarray, p: ModelParams) -> np.ndarray:
    """Window values [.., n] as features [.., n, C]: the scalar embedding plus
    each position's row of `pos` (n x C)."""
    return values[..., None] @ p.embed_w.data + p.embed_b.data + pos


def _head(out: np.ndarray, p: ModelParams) -> np.ndarray:
    """The decoder's features [.., lm, C] projected to the reconstruction [.., lm]."""
    return (out @ p.head_w.data + p.head_b.data)[..., 0]


def mtr_forward(lm_values: np.ndarray, gm_values: np.ndarray, p: ModelParams, folds=None, tape=None) -> np.ndarray:
    """The reconstruction of (batched) normalized windows.

    Without `folds` it scores any batch of windows: training's loss and the
    reference the cached branch is tested against. A `tape` (a list, plain
    branch only) records what `mtr_backward` needs. With `folds` (`p.folds()`,
    single window only) every input-independent piece comes from them, and
    the result equals the plain branch to rounding, not bit for bit.
    """
    lm_values = np.asarray(lm_values, dtype=np.float64)
    gm_values = np.asarray(gm_values, dtype=np.float64)
    if lm_values.shape[-1] != p.dims.lm or gm_values.shape[-1] != p.dims.gm:
        raise ValueError("window lengths do not match model dims")
    lm_feats = _embed(lm_values, p.pos_lm, p)
    if folds is None:
        gm_feats = _embed(gm_values, p.pos_gm, p)
        stage1 = _trd(self_attend(p.enc1_queries.data, p.enc1, tape), gm_feats, p.enc1, tape)
        encoded = _trd(self_attend(p.enc2_queries.data, p.enc2, tape), stage1, p.enc2, tape)
        out = _trd(self_attend(lm_feats, p.dec, tape), encoded, p.dec, tape)
        if tape is not None:
            tape.append((lm_values, gm_values, out))
        return _head(out, p)
    # enc1's logits and values are affine in each reading: a per-reading and a fixed part
    scale, offset = folds.enc1_logits
    logits = gm_values * scale + offset
    scale, offset = folds.enc1_values
    cross = _attend(logits, (gm_values[:, None] * scale + offset).reshape(-1, offset.shape[-1]))
    stage1 = _folded_tail(folds.enc1_residual + cross, p.enc1, folds.enc1_ln3, p.enc1.ln3.bias.data)
    values = (stage1 @ folds.enc2_vo).reshape(-1, folds.enc2_vo.shape[-1])
    cross = _attend(folds.enc2_eff_queries.dot(stage1.T), values)
    encoded = _folded_tail(folds.enc2_residual + cross, p.enc2, folds.enc2_ln3, p.enc2.ln3.bias.data)
    x1 = folded_ln(folded_attention(lm_feats, lm_feats, *folds.dec_self), p.dec.ln1.bias.data)
    return _folded_tail(folded_attention(x1, encoded, *folds.dec_cross), p.dec, *folds.dec_head)[:, 0]


# ---------------------------------------------------------------------------
# The reverse pass over a tape of the plain forward. Each `*_backward` takes
# the gradient of the loss with respect to its piece's output, adds to the
# gradient tree `g` of the piece's weights, and returns the gradients of its
# inputs.
# ---------------------------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """`a` as one 2-D stack of its last-axis rows."""
    return a.reshape(-1, a.shape[-1])


def _sum_to(d: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The gradient `d` of a broadcast of `like` summed back to `like`'s shape
    (the broadcast adds leading axes only)."""
    return d.reshape(-1, *like.shape).sum(axis=0) if d.ndim > like.ndim else d


def mtr_backward(tape: list, grad: np.ndarray, p: ModelParams) -> None:
    """Add to `p.grad` the gradient of a loss whose gradient with respect to
    `mtr_forward`'s output is `grad`, running back over the `tape` that
    forward filled; the tape is consumed. The first call on a model allocates
    `p.grad` zeroed (`ModelParams.zero_grad`)."""
    if p.grad is None:
        p.zero_grad()
    g = p._grads
    lm_values, gm_values, out = tape.pop()
    g.head_b += grad.sum()
    g.head_w += _rows(out).T @ grad.reshape(-1, 1)
    d_x1, d_encoded = _trd_backward(grad[..., None] @ p.head_w.data.T, p.dec, g.dec, tape)
    d_lm_feats = _self_attend_backward(d_x1, p.dec, g.dec, tape)
    d_x1, d_stage1 = _trd_backward(d_encoded, p.enc2, g.enc2, tape)
    g.enc2_queries += _self_attend_backward(d_x1, p.enc2, g.enc2, tape)
    d_x1, d_gm_feats = _trd_backward(d_stage1, p.enc1, g.enc1, tape)
    g.enc1_queries += _self_attend_backward(d_x1, p.enc1, g.enc1, tape)
    for values, d in ((lm_values, d_lm_feats), (gm_values, d_gm_feats)):
        g.embed_w += values.reshape(1, -1) @ _rows(d)
        g.embed_b += _rows(d).sum(axis=0)


def _trd_backward(d: np.ndarray, p: SimpleNamespace, g: SimpleNamespace, tape: list) -> tuple[np.ndarray, np.ndarray]:
    """`_trd`'s backward: the gradients of `x1` and of `memory`."""
    d = _ln_backward(d, p.ln3, g.ln3, tape.pop())
    x2, hidden = tape.pop()
    g.b2 += _rows(d).sum(axis=0)
    g.w2 += _rows(hidden).T @ _rows(d)
    d_hidden = (d @ p.w2.data.T) * (hidden > 0.0)
    g.b1 += _rows(d_hidden).sum(axis=0)
    g.w1 += _rows(x2).T @ _rows(d_hidden)
    d = _ln_backward(d + d_hidden @ p.w1.data.T, p.ln2, g.ln2, tape.pop())
    record = tape.pop()
    d_x1, d_memory = _mha_backward(d, p.cross_attn, g.cross_attn, record)
    # an encoder's x1 is one set of queries for the whole batch
    return _sum_to(d + d_x1, record[0]), d_memory


def _self_attend_backward(d: np.ndarray, p: SimpleNamespace, g: SimpleNamespace, tape: list) -> np.ndarray:
    """`self_attend`'s backward: the gradient of `tokens`."""
    d = _ln_backward(d, p.ln1, g.ln1, tape.pop())
    d_x, d_memory = _mha_backward(d, p.self_attn, g.self_attn, tape.pop())
    return d + d_x + d_memory


def _ln_backward(d: np.ndarray, p: SimpleNamespace, g: SimpleNamespace, record: tuple) -> np.ndarray:
    """`_ln`'s backward, from its x-hat and 1/std."""
    xhat, inv_std = record
    g.gain += _rows(d * xhat).sum(axis=0)
    g.bias += _rows(d).sum(axis=0)
    d_xhat = d * p.gain.data
    centred = d_xhat - d_xhat.mean(axis=-1, keepdims=True)
    return inv_std * (centred - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True))


def _mha_backward(d: np.ndarray, p: SimpleNamespace, g: SimpleNamespace, record: tuple) -> tuple[np.ndarray, np.ndarray]:
    """`_mha`'s backward: the gradients of `x` and of `memory`, with the
    batch axes of the output."""
    x, memory, q, k, v, weights, joined = record
    h, _, d_head = p.wq_all.shape
    g.wo += _rows(joined).T @ _rows(d)
    d = d @ p.wo.data.T
    d = d.reshape(*d.shape[:-1], h, d_head).swapaxes(-3, -2)  # (.., h, n, d)
    d_weights = d @ v.swapaxes(-1, -2)
    d_logits = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * (1.0 / math.sqrt(d_head))
    d_x = _project_backward(x, d_logits @ k, p.wq_all, g.wq_all)
    d_memory = _project_backward(memory, d_logits.swapaxes(-1, -2) @ q, p.wk_all, g.wk_all)
    return d_x, d_memory + _project_backward(memory, weights.swapaxes(-1, -2) @ d, p.wv_all, g.wv_all)


def _project_backward(x: np.ndarray, d: np.ndarray, w: np.ndarray, g_w: np.ndarray) -> np.ndarray:
    """The backward of the per-head projections x[..., None, :, :] @ w, with
    `w` a (h, C, d) stack and `d` (.., h, n, d): adds to `g_w` and returns the
    gradient of `x`, with the batch axes of `d`.

    The heads are read side by side, as x @ [w_1 | ... | w_h], so each
    gradient is one 2-D matmul over every row of the batch.
    """
    h, C, d_head = w.shape
    d = d.swapaxes(-3, -2)
    d = d.reshape(*d.shape[:-2], h * d_head)  # (.., n, h*d)
    x = _rows(np.broadcast_to(x, (*d.shape[:-1], C)))
    g_w += (x.T @ _rows(d)).reshape(C, h, d_head).swapaxes(0, 1)
    return d @ w.swapaxes(0, 1).reshape(C, h * d_head).T


# ---------------------------------------------------------------------------
# Pieces of the forward on `Tensor`-wrapped arrays. They serve only
# `perfbench`'s traced path, and go when the benchmark drives the engine's own
# entry points (ROADMAP direction 1).
# ---------------------------------------------------------------------------


def trd_forward(tokens: Tensor, memory: Tensor, p: SimpleNamespace) -> Tensor:
    """TRD block `p` on `tokens` over `memory`. Benchmark only."""
    return Tensor(_trd(self_attend(tokens.data, p), memory.data, p))


def embed_window(values: Tensor, pos: np.ndarray, p: ModelParams) -> Tensor:
    """`_embed` of (batched) window values [.., n]. Benchmark only."""
    return Tensor(_embed(values.data, pos[: values.shape[-1]], p))


def decode_local(lm_features: Tensor, encoded: Tensor, p: ModelParams) -> Tensor:
    """The reconstruction from the local window's features and the encoded
    context. Benchmark only."""
    return Tensor(_head(_trd(self_attend(lm_features.data, p.dec), encoded.data, p.dec), p))
