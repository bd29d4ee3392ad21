"""Dense numerical kernels, reverse-mode autodiff and an Adam optimizer.

Everything works on float64 numpy arrays. The `Tensor` class records a
computation graph only while gradients are enabled (see `no_grad`); it serves
training and the gradient checks. Inference runs on plain arrays through the
functional kernels below (`model.mtr_forward`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "softmax_rows",
    "linear_forward",
    "layer_norm",
    "relu",
    "Tensor",
    "concat_last",
    "no_grad",
    "Hyper",
    "AdamState",
    "adam_step",
    "grad_check",
    "uniform_init",
]


# ---------------------------------------------------------------------------
# Functional kernels (shared by the autodiff ops and the array inference forward)
# ---------------------------------------------------------------------------


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis.

    The reductions call the ufuncs directly: the same arithmetic as
    `x.max`/`e.sum`, without the method wrappers' per-call overhead.
    """
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x @ w + b with b broadcast per row."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear_forward: x cols {x.shape[-1]} != w rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"linear_forward: bias shape {b.shape} != ({w.shape[1]},)")
    return x @ w + b


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize each row (last axis) to zero mean / unit variance, then affine."""
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ValueError("layer_norm: gain/bias length must equal the row width")
    return _layer_norm(x, gain, bias, eps)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    """`layer_norm`'s arithmetic without its argument checks, for callers whose
    gain and bias are float64 arrays of the row width (the model's weights)."""
    # `ndarray.mean` is a sum followed by a division by the row width; calling
    # the reduction directly keeps that arithmetic and skips the wrapper
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred**2, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    return centred * inv_std * gain + bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-style uniform init in +-sqrt(6/(fan_in+fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Reverse-mode autodiff
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce `grad` back to `shape` by summing broadcast axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 ndarray node in a dynamically built reverse-mode graph.

    Matrix semantics live on the last two axes; leading axes are batch
    dimensions and broadcast through every op.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- op construction ----------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> "Tensor":
        track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._wrap(other)
        out_data = a.data + b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._make(out_data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        a, b = self, Tensor._wrap(other)
        out_data = a.data - b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return Tensor._make(out_data, (a, b), backward)

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._wrap(other)
        out_data = a.data * b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * (-1.0)

    def matmul(self, other) -> "Tensor":
        a, b = self, Tensor._wrap(other)
        out_data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2) if b.data.ndim >= 2 else np.outer(g, b.data)
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g if a.data.ndim >= 2 else np.outer(a.data, g)
                b._accumulate(_unbroadcast(gb, b.data.shape))

        return Tensor._make(out_data, (a, b), backward)

    def transpose_last(self) -> "Tensor":
        a = self
        out_data = np.swapaxes(a.data, -1, -2)

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.swapaxes(g, -1, -2))

        return Tensor._make(out_data, (a,), backward)

    def softmax_last(self) -> "Tensor":
        a = self
        s = softmax_rows(a.data)

        def backward(g):
            if a.requires_grad:
                inner = (g * s).sum(axis=-1, keepdims=True)
                a._accumulate(s * (g - inner))

        return Tensor._make(s, (a,), backward)

    def layer_norm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        a = self
        mu = a.data.mean(axis=-1, keepdims=True)
        var = ((a.data - mu) ** 2).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (a.data - mu) * inv_std
        out_data = xhat * gain.data + bias.data

        def backward(g):
            if gain.requires_grad:
                gg = (g * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
                gain._accumulate(gg)
            if bias.requires_grad:
                gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
                bias._accumulate(gb)
            if a.requires_grad:
                dxhat = g * gain.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                a._accumulate(inv_std * (dxhat - m1 - xhat * m2))

        return Tensor._make(out_data, (a, gain, bias), backward)

    def relu(self) -> "Tensor":
        a = self
        out_data = np.maximum(a.data, 0.0)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * (a.data > 0.0))

        return Tensor._make(out_data, (a,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        out_data = a.data.reshape(shape)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(a.data.shape))

        return Tensor._make(out_data, (a,), backward)

    def mean_all(self) -> "Tensor":
        a = self
        n = a.data.size
        out_data = np.asarray(a.data.mean())

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.full_like(a.data, float(g) / n))

        return Tensor._make(out_data, (a,), backward)


def concat_last(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last axis (used to merge attention heads)."""
    out_data = np.concatenate([t.data for t in tensors], axis=-1)
    sizes = [t.data.shape[-1] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                t._accumulate(g[..., offset : offset + size])
            offset += size

    return Tensor._make(out_data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------


@dataclass
class Hyper:
    """Optimizer and training-loop hyperparameters (defaults from the model card)."""

    learning_rate: float = 7e-5
    weight_decay: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 50

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, hyper: Hyper) -> AdamState:
    """One in-place Adam update with decoupled weight decay.

    Raises on non-finite gradients; the step is rejected and no state mutates.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient; step rejected")
    state.t += 1
    lr, b1, b2 = hyper.learning_rate, hyper.beta1, hyper.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p -= lr * (m_hat / (np.sqrt(v_hat) + hyper.epsilon) + hyper.weight_decay * p)
    return state


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, params: list[Tensor], delta: float = 1e-4) -> float:
    """Worst relative error between reverse-mode and central-difference gradients.

    `f` is a closure evaluating the scalar loss from the current parameter
    values. The denominator is at least 1e-3, so near-zero gradients are
    compared on an absolute scale.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + delta
            with no_grad():
                f_hi = float(f().data)
            flat[i] = orig - delta
            with no_grad():
                f_lo = float(f().data)
            flat[i] = orig
            fd = (f_hi - f_lo) / (2.0 * delta)
            denom = max(abs(a_flat[i]), abs(fd), 1e-3)
            worst = max(worst, abs(a_flat[i] - fd) / denom)
    return worst
