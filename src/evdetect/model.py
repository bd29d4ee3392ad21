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

On the folds' branch numpy's per-call cost outweighs the arithmetic;
`ModelFolds` says how the folds are laid out for it.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .nn import Tensor, _normalized, relu, softmax_rows, uniform_init

LN_EPS = 1e-5
SCORE_CHUNK = 2048  # windows per forward in `score_windows`


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
            # `type`, not `isinstance`, so a bool is refused too
            if not (type(size) is int and size >= 1):
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


class _Weight(NamedTuple):
    """One weight of `_layout`, ready to place: its path split into the groups
    above it and its name, `heads` the name of its per-head list if it is a
    stack ("wq" for "wq_all", else None), its shape and init, and its span
    [lo, hi) of the flat vector."""

    groups: tuple[str, ...]
    name: str
    heads: str | None
    shape: tuple[int, ...]
    init: tuple[int, int] | float
    lo: int
    hi: int

    def view(self, flat: np.ndarray) -> np.ndarray:
        """This weight's view of `flat` (the vector or the gradient)."""
        return flat[self.lo : self.hi].reshape(self.shape)


@functools.lru_cache(maxsize=64)
def _weights(dims: ModelDims) -> tuple[_Weight, ...]:
    """`_layout(dims)` as `_Weight`s, built once per dims, since a model's
    construction, its tree and its gradient tree all walk it."""
    layout = _layout(dims)
    bounds = [0, *itertools.accumulate(math.prod(shape) for _, shape, _ in layout)]
    weights = []
    for (path, shape, init), lo, hi in zip(layout, bounds, bounds[1:]):
        *groups, name = path.split(".")
        heads = name.removesuffix("_all") if name.endswith("_all") else None
        weights.append(_Weight(tuple(groups), name, heads, shape, init, lo, hi))
    return tuple(weights)


# The names a model's tree sets on it (`_layout`'s paths do not depend on the dims)
_TREE_NAMES = frozenset(path.split(".")[0] for path, _, _ in _layout(ModelDims())) | {"_parameters"}


def _place(root, groups: tuple[str, ...], name: str, value) -> None:
    """Set root.<groups...>.name to `value`: groups ("enc1", "self_attn") and
    name "wo" set root.enc1.self_attn.wo, making the groups on first use."""
    for group in groups:
        root = root.__dict__.setdefault(group, SimpleNamespace())
    setattr(root, name, value)


class ModelParams:
    """All learned weights: scalar embedding, two encoder blocks with learned
    query tokens, one decoder block, scalar output head.

    `vector`, one 1-D float64 array, stores every weight. The model's tree
    names each weight: a `Tensor` over a reshaped view of the vector, at the
    attribute path `_layout` gives (`enc1.ln1.gain`, ...). A stack `wq_all` is
    a (heads, C, d) view, and `wq` holds a `Tensor` per head over views of it,
    so an in-place update of the vector (Adam, checkpoint loading) is seen
    everywhere. The tree is built on the first read of any of its names (a
    weight, `parameters()`, `zero_grad()`, `ModelFolds`), once, and later
    reads are plain attribute hits. A model that only passes its vector on
    (`load_model`'s, handed to `OnlineDetector`) never builds it.

    Without `vector` the weights are drawn from `seed`. With it they are a copy
    of it, and no random generator is touched; a vector of the wrong dtype or
    length, or with a weight that is not finite, raises ValueError here. `grad`
    is the matching flat gradient, allocated by the first `zero_grad()`. A
    copy or an unpickled model is rebuilt from `vector` (without `grad` or a
    tree), so it keeps this sharing and is writable. A model whose vector
    refuses writes (`ModelParams.shared`'s) refuses them through every view
    of it too, and `folds()` builds its inference folds once and keeps them.
    """

    def __init__(self, dims: ModelDims, seed: int = 0, vector: np.ndarray | None = None):
        self.dims = dims
        weights = _weights(dims)
        if vector is None:
            rng = np.random.default_rng(seed)
            draws = [
                uniform_init(rng, w.shape, *w.init) if isinstance(w.init, tuple) else np.full(w.shape, w.init)
                for w in weights
            ]
            self.vector = np.concatenate([a.ravel() for a in draws])
        else:
            size = weights[-1].hi
            if vector.dtype != np.float64 or vector.shape != (size,):
                raise ValueError(f"parameter array is {vector.dtype} {vector.shape}, expected float64 ({size},)")
            finite = np.isfinite(vector)
            if not finite.all():
                raise ValueError(f"weight {np.argmin(finite)} of the parameter array is not finite")
            self.vector = vector.copy()
        self.grad: np.ndarray | None = None
        self._folds: ModelFolds | None = None
        # relative-position rows for the local and global windows (shared, read-only)
        self.pos_lm = _shared_table(dims.lm - 1, 0, dims.C)
        self.pos_gm = _shared_table(dims.lm + dims.gm - 1, dims.lm, dims.C)

    def __getattr__(self, name: str):
        # Python calls this only for a name the model does not hold: one of
        # the tree's before it is built, which builds it, or no attribute
        if name not in _TREE_NAMES or "_parameters" in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        tree = SimpleNamespace(_parameters=[])
        for w in _weights(self.dims):
            view = w.view(self.vector)
            if w.heads:
                _place(tree, w.groups, w.name, view)
                leaves = [Tensor(head) for head in view]
                _place(tree, w.groups, w.heads, leaves)
            else:
                leaves = [Tensor(view)]
                _place(tree, w.groups, w.name, leaves[0])
            tree._parameters += leaves
        # set in one update, so the model never holds half a tree
        vars(self).update(vars(tree))
        return vars(self)[name]

    @classmethod
    def shared(cls, dims: ModelDims, vector: np.ndarray) -> "ModelParams":
        """A read-only model of `vector`: the same object for every caller
        while one of them holds it, else a new one (see `ModelParams`).

        The memo is keyed on the dims and the weight bytes and holds its models
        weakly, so a process that loads many distinct models keeps only the
        live ones. The model handed out last is found first, by one compare of
        the bytes: a fleet's loads then hash no weights. A model is shared only
        read-only: a write through any of its weights raises, where it would
        silently change every holder.
        """
        global _LAST_SHARED
        kind, weights = (dims, vector.dtype.str, vector.shape), vector.tobytes()
        # one read of the one tuple, so a thread never pairs one model's key with another's
        last_kind, last_weights, last = _LAST_SHARED
        if last_kind == kind and last_weights == weights and (params := last()) is not None:
            return params
        key = (*kind, weights)
        params = _SHARED_MODELS.get(key)
        if params is None:
            params = _SHARED_MODELS[key] = cls(dims, vector=vector)
            # safe only while the tree is lazy: a view made before this keeps its write flag
            params.vector.flags.writeable = False
        _LAST_SHARED = (kind, weights, weakref.ref(params))
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
        self._grads = SimpleNamespace()
        views = []  # each parameter's, in `_parameters` order
        for w in _weights(self.dims):
            view = w.view(self.grad)
            _place(self._grads, w.groups, w.name, view)
            views += list(view) if w.heads else [view]
        for t, view in zip(self._parameters, views):
            t.grad = view


_SHARED_MODELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# (dims, dtype, shape), weight bytes and a weak reference of the model `shared` handed out last
_LAST_SHARED: tuple = (None, b"", lambda: None)


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


# The folded branch runs one window at a time, on 2-D arrays. It multiplies
# them with `ndarray.dot`, which for 2-D operands is `@` at about half the
# per-call cost on matrices this small. Each of its elementwise calls takes
# operands of one shape, all contiguous, or a 0-d scalar. numpy runs those on
# its same-shape fast path, at about 0.4 µs a call on these sizes. A bias row
# broadcast over a block takes about 0.95 µs, a strided half 1.1 µs, and a
# Python float operand 0.6 µs, since numpy converts it on every call (2-core
# Xeon, numpy 2.4, `timeit`). So each bias is a table of its site's shape, the
# softmax sums and each norm's variance come out of a `.dot` already tiled,
# and a norm's output keeps the half it is centred with (`folded_ln`). One
# broadcast is left, the softmax shift: a row of per-query maxima under the
# logits, since a same-shape block of them costs a further `.dot`.


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# 0-d scalars, which numpy reads without converting a Python float
_EPS = _read_only(np.array(LN_EPS))
_ZERO = _read_only(np.array(0.0))


def folded_attention(
    memory: np.ndarray, queries: np.ndarray, residual: np.ndarray, vo: np.ndarray, ones: np.ndarray
) -> np.ndarray:
    """`residual` plus the folded attention sum_h softmax(q qk_h m^T) m vo_h
    of `queries` (n*h, w), each query's h per-head rows (q qk_h) in turn, over
    `memory` m (m, w), with `vo` the per-head blocks stacked (h*w, 2C) and
    `ones` a block of ones of the memory's shape (m, w).

    It is the one way the cached branch runs an attention: enc1 over the
    embedded global window, enc2 over enc1's output, and the decoder's self-
    and cross-attention. The logits (m, n*h) hold a column per query and
    head, with the memory down the rows, so each softmax's max is a reduction
    along axis 0, at about half the cost of a last-axis `keepdims` one on
    these sizes. The numerators meet the memory first, and the same `.dot`
    with `ones` gives their sums already tiled to the contexts' shape (n*h,
    w), so the division is same-shape. Read as (n, h*w), the contexts go
    through one matmul against the stacked `vo`, which applies every head's
    value-output product and sums the heads.
    """
    logits = memory.dot(queries.T)
    e = np.exp(logits - np.maximum.reduce(logits, axis=0)).T
    return residual + (e.dot(memory) / e.dot(ones)).reshape(-1, len(vo)).dot(vo)


def _decoder_attention(x: np.ndarray, memory: np.ndarray, attention: tuple) -> np.ndarray:
    """`folded_attention` of the decoder's `x` over `memory`, with
    `attention` (q_rows, r_rows, vo, ones) as `ModelFolds` holds it. The
    queries and the residual are each one `.dot` against a contiguous block
    of rows, so neither is a strided slice of a wider product."""
    q_rows, r_rows, vo, ones = attention
    return folded_attention(memory, x.dot(q_rows).reshape(-1, memory.shape[1]), x.dot(r_rows), vo, ones)


def fold_layer_norms(gains: np.ndarray) -> np.ndarray:
    """The (.., C, 2C) folds [P | P diag(g)] of layer norms with gains g
    (.., C), where P = I - 1/C centres a row.

    With r = x @ fold, `folded_ln(r, ...)` is the layer norm of x, so the
    matrix that produces x can absorb the norm's centring and gain. A matrix
    after the fold's second half (the output head) passes through the norm,
    which scales each row (`folded_head`).
    """
    C = gains.shape[-1]
    folds = np.tile(np.eye(C) - 1.0 / C, (*gains.shape[:-1], 1, 2))
    folds[..., C:] *= gains[..., None, :]
    return folds


def folded_ln(r: np.ndarray, variance: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The layer norm of x laid out wide, [x_hat | norm(x)] (n, 2C), given
    r = x @ `fold_layer_norms`(gain) = [centred | centred diag(g)], the
    variance weights `variance` (2C, 2C: 1/C in the first C rows, else 0) and
    the norm's bias as a table [0 | bias] of r's shape.

    (r * r) @ variance is each row's variance in every column, so every
    operand has r's shape. The first half of the result is the centred row
    over its std; each matrix that meets the output skips it with C zero rows
    (`_wide`).
    """
    return r / np.sqrt((r * r).dot(variance) + _EPS) + bias


def folded_head(u: np.ndarray, fold_t: np.ndarray, variance: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The reconstruction (n,): the decoder's ln3 and the output head applied
    to u, the FFN's output plus its input. `fold_t` is the norm's fold with
    the head, transposed, [P | P diag(g) head_w]^T (C+1, w); `variance` its
    weights (C+1,), 1/C but for the last; `bias` the head's constant
    ln3.bias @ head_w + head_b, tiled (n,).

    Transposed, the one output column is the last row of r, so each operand
    is a contiguous row where a column of r would be strided.
    """
    r = fold_t.dot(u.T)
    return r[-1] / np.sqrt(variance.dot(r * r) + _EPS) + bias


def _wide(a: np.ndarray, axis: int) -> np.ndarray:
    """`a` after as many zeros along `axis` as it has there: a matrix that
    meets a norm's wide output gets zero rows for its first half (axis 0 or
    -2), and what a step adds to that output a zero first half (axis -1)."""
    return np.concatenate([np.zeros_like(a), a], axis=axis)


def _folded_ffn(r2: np.ndarray, ffn: tuple, variance: np.ndarray) -> np.ndarray:
    """ln2 of a TRD block's folded `r2`, then the FFN plus its input,
    x2 + FFN(x2), wide (n, 2C), with `ffn` (ln2's bias, w1, b1, w2, b2) as
    `ModelFolds` holds it."""
    ln2_bias, w1, b1, w2, b2 = ffn
    x2 = folded_ln(r2, variance, ln2_bias)
    return x2 + (np.maximum(x2.dot(w1) + b1, _ZERO).dot(w2) + b2)


class ModelFolds:
    """The input-independent arrays of the cached inference forward for one
    model's weights, read-only: a write raises, where it would change every
    meter that runs the model. `ModelParams.folds` builds them; with the two
    windows they are all that the cached branch of `mtr_forward` reads.

    Both encoders' queries are learned constants, so `self_attend` runs their
    self-attention stages once, here. The four attentions a step runs are
    folded into two per-head products each, qk = wq_h wk_h^T / sqrt(d) and
    vo = wv_h wo_h, with wo_h the rows of `wo` that head h's output meets,
    and each runs through `folded_attention`, which contracts the softmax
    weights with the memory first and then the heads' contexts, side by side,
    with vo stacked. The seven norms they meet are folded too
    (`fold_layer_norms`): with fold = [P | P diag(g)], P = I - 1/C, the norm
    of x is `folded_ln`(x @ fold, ...). Each fold is multiplied into whatever
    produces the norm's input: the residual and the attention values (vo @
    fold); ln3's fold takes the FFN's output plus its input.

    Every array is contiguous, and they are laid out so that each elementwise
    call of a step has operands of one shape or a 0-d scalar, numpy's
    same-shape fast path (see the note above `folded_attention`):
    - each bias a step adds is a table of its site's (rows, width);
    - a norm's output is wide, [x_hat | y] (n x 2C), and every matrix that
      meets it has C zero rows on top (`_wide`). Below, w is C where an
      attention's memory is an embedded window and 2C where it is a norm's
      output;
    - the decoder's queries and residual come from two `.dot`s against
      contiguous blocks of rows, and its head is read as a row.

    lm_embed, gm_embed: the embedding bias plus each position's row (lm x C,
                   gm x C), so a step embeds a window with one product and
                   one add.
    fixed_queries: enc1's post-self-attention query block (e0 x C); a step
                   reads `enc1`, and only `perfbench`'s `LayerPath` reads this.
    enc1, enc2:    the encoders' cross-attentions as (queries, residual, vo,
                   ones), `folded_attention`'s arguments after the memory:
                   queries = the post-self-attention query block times each
                   head's qk, each query's h rows in turn (e*h x w), residual
                   = the block @ fold of ln2 (e x 2C), vo = vo @ fold of ln2
                   stacked (h*w x 2C), and ones of the memory's shape.
    dec_self, dec_cross: the decoder's attentions as (q_rows, r_rows, vo,
                   ones) for `_decoder_attention`: q_rows = [qk_1 | ... |
                   qk_h] and r_rows = the fold of ln1 or ln2, each C rows
                   for the embedded local window and 2C for the wide x1.
    enc1_ffn, enc2_ffn, dec_ffn: (ln2's bias table, w1, b1, w2, b2) as
                   `_folded_ffn` takes them, w1 and w2 wide.
    enc1_ln3, enc2_ln3: (fold, bias table) of the encoder blocks' ln3, which
                   take the FFN's output plus its input (2C x 2C, e x 2C).
    dec_ln1:       the decoder's ln1 bias table (lm x 2C).
    dec_head:      (fold^T, variance, bias) of the decoder's ln3 with the
                   output head, as `folded_head` takes them.
    variance:      the wide norms' variance weights (2C x 2C), as `folded_ln`
                   takes them.
    """

    def __init__(self, params: ModelParams):
        dims, C = params.dims, params.dims.C
        enc1, enc2, dec = params.enc1, params.enc2, params.dec
        attns = (enc1.cross_attn, enc2.cross_attn, dec.self_attn, dec.cross_attn)
        # qk and vo, each (4, h, C, C)
        wq, wk, wv = (np.array([getattr(a, name) for a in attns]) for name in ("wq_all", "wk_all", "wv_all"))
        d = wq.shape[-1]
        qk = wq @ wk.swapaxes(-1, -2) * (1.0 / math.sqrt(d))
        vo = wv @ np.array([a.wo.data for a in attns]).reshape(len(attns), dims.heads, d, C)
        # the norm each attention's output meets sits at the same place here
        norms = (enc1.ln2, enc2.ln2, dec.ln1, dec.ln2, enc1.ln3, enc2.ln3, dec.ln3)
        folds = fold_layer_norms(np.array([n.gain.data for n in norms]))
        vo = vo @ folds[:4, None]
        # enc2 and the decoder's cross-attention attend over a norm's wide output
        qk_enc2, qk_cross = _wide(qk[1], -1), _wide(qk[3], -1)
        vo_enc2, vo_cross = _wide(vo[1], -2), _wide(vo[3], -2)

        def per_query(block, qk):  # each query's h rows in turn
            return (block @ qk).swapaxes(0, 1).reshape(-1, qk.shape[-1])

        def side_by_side(qk):  # [qk_1 | ... | qk_h]
            return qk.swapaxes(0, 1).reshape(len(qk[0]), -1)

        def tiled(bias, n):
            return np.tile(bias, (n, 1))

        def ffn(p, n):
            return (tiled(_wide(p.ln2.bias.data, -1), n), _wide(p.w1.data, 0), tiled(p.b1.data, n),
                    _wide(p.w2.data, -1), tiled(_wide(p.b2.data, -1), n))

        self.lm_embed = params.embed_b.data + params.pos_lm
        self.gm_embed = params.embed_b.data + params.pos_gm
        self.fixed_queries = self_attend(params.enc1_queries.data, enc1)
        enc2_queries = self_attend(params.enc2_queries.data, enc2)
        self.enc1 = (per_query(self.fixed_queries, qk[0]), self.fixed_queries.dot(folds[0]), vo[0].reshape(-1, 2 * C),
                     np.ones((dims.gm, C)))
        self.enc2 = (per_query(enc2_queries, qk_enc2), enc2_queries.dot(folds[1]), vo_enc2.reshape(-1, 2 * C),
                     np.ones((dims.e0, 2 * C)))
        self.dec_self = (side_by_side(qk[2]), folds[2], vo[2].reshape(-1, 2 * C), np.ones((dims.lm, C)))
        self.dec_cross = (_wide(side_by_side(qk_cross), 0), _wide(folds[3], 0), vo_cross.reshape(-1, 2 * C),
                          np.ones((dims.e1, 2 * C)))
        self.enc1_ffn, self.enc2_ffn, self.dec_ffn = ffn(enc1, dims.e0), ffn(enc2, dims.e1), ffn(dec, dims.lm)
        self.enc1_ln3 = (_wide(folds[4], 0), tiled(_wide(enc1.ln3.bias.data, -1), dims.e0))
        self.enc2_ln3 = (_wide(folds[5], 0), tiled(_wide(enc2.ln3.bias.data, -1), dims.e1))
        self.dec_ln1 = tiled(_wide(dec.ln1.bias.data, -1), dims.lm)
        # the decoder's last norm meets the output head: [P | P diag(g) head_w]
        head = np.concatenate([folds[6, :, :C], folds[6, :, C:] @ params.head_w.data], axis=1)
        constant = dec.ln3.bias.data @ params.head_w.data + params.head_b.data
        self.dec_head = (np.ascontiguousarray(_wide(head, 0).T), np.append(np.full(C, 1.0 / C), 0.0),
                         np.repeat(constant, dims.lm))
        self.variance = np.zeros((2 * C, 2 * C))
        self.variance[:C] = 1.0 / C

        for value in vars(self).values():
            for a in value if isinstance(value, tuple) else (value,):
                _read_only(a)


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
    return values[..., None] * p.embed_w.data + p.embed_b.data + pos


def _head(out: np.ndarray, p: ModelParams) -> np.ndarray:
    """The decoder's features [.., lm, C] projected to the reconstruction [.., lm]."""
    return (out @ p.head_w.data + p.head_b.data)[..., 0]


def mtr_forward(lm_values: np.ndarray, gm_values: np.ndarray, p: ModelParams, folds=None, tape=None) -> np.ndarray:
    """The reconstruction of (batched) normalized windows.

    Without `folds` it reconstructs any batch of windows, for training and
    for `score_windows`, the one batch scorer. A `tape` (a list, plain
    branch only) records what `mtr_backward` needs. With `folds` (`p.folds()`)
    it scores one window, 1-D arrays (a batch raises ValueError), and every
    input-independent piece comes from them; the result equals the plain
    branch to rounding, not bit for bit.
    """
    lm_values = np.asarray(lm_values, dtype=np.float64)
    gm_values = np.asarray(gm_values, dtype=np.float64)
    if lm_values.shape[-1:] != (p.dims.lm,) or gm_values.shape[-1:] != (p.dims.gm,):
        raise ValueError("window lengths do not match model dims")
    if folds is None:
        lm_feats = _embed(lm_values, p.pos_lm, p)
        gm_feats = _embed(gm_values, p.pos_gm, p)
        stage1 = _trd(self_attend(p.enc1_queries.data, p.enc1, tape), gm_feats, p.enc1, tape)
        encoded = _trd(self_attend(p.enc2_queries.data, p.enc2, tape), stage1, p.enc2, tape)
        out = _trd(self_attend(lm_feats, p.dec, tape), encoded, p.dec, tape)
        if tape is not None:
            tape.append((lm_values, gm_values, out))
        return _head(out, p)
    if lm_values.ndim != 1 or gm_values.ndim != 1:
        raise ValueError(
            f"the folded forward takes one window at a time (1-D), got local {lm_values.shape} and global {gm_values.shape}"
        )
    # `_embed`, with the bias and positions pre-added; a (n, 1) by (1, C)
    # `.dot` is the same one product per entry as the broadcast multiply
    w, variance = p.embed_w.data, folds.variance
    lm_feats = lm_values[:, None].dot(w) + folds.lm_embed
    encoded = gm_values[:, None].dot(w) + folds.gm_embed
    for attention, ffn, (fold, bias) in ((folds.enc1, folds.enc1_ffn, folds.enc1_ln3),
                                         (folds.enc2, folds.enc2_ffn, folds.enc2_ln3)):
        u = _folded_ffn(folded_attention(encoded, *attention), ffn, variance)
        encoded = folded_ln(u.dot(fold), variance, bias)
    x1 = folded_ln(_decoder_attention(lm_feats, lm_feats, folds.dec_self), variance, folds.dec_ln1)
    u = _folded_ffn(_decoder_attention(x1, encoded, folds.dec_cross), folds.dec_ffn, variance)
    return folded_head(u, *folds.dec_head)


def score_windows(lm_values: np.ndarray, gm_values: np.ndarray, p: ModelParams) -> np.ndarray:
    """Each window's score, the mean squared error of its local window's
    reconstruction, as a float64 (n,) array, from the plain forward over
    (n, lm) and (n, gm) windows.

    It runs at most `SCORE_CHUNK` windows per forward, so beyond the scores
    memory stays bounded on any number of windows; each score equals that of
    one forward over every window, bit for bit. It is the one batch scorer:
    training's loss and the reference the cached step is tested against.
    """
    lm_values = np.asarray(lm_values, dtype=np.float64)
    gm_values = np.asarray(gm_values, dtype=np.float64)
    if lm_values.ndim != 2 or gm_values.ndim != 2 or len(lm_values) != len(gm_values):
        raise ValueError(f"need (n, lm) and (n, gm) windows, got local {lm_values.shape} and global {gm_values.shape}")
    scores = np.empty(len(lm_values))
    for lo in range(0, len(lm_values), SCORE_CHUNK):
        s = slice(lo, lo + SCORE_CHUNK)
        d = mtr_forward(lm_values[s], gm_values[s], p) - lm_values[s]
        scores[s] = np.add.reduce(d * d, axis=-1) / p.dims.lm
    return scores


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
# `perfbench`'s traced path, and go with `Tensor` (ROADMAP direction 20) once
# the benchmark drives the engine's own entry points (direction 1b).
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
