"""Dense numerical kernels, a parameter holder and an Adam optimizer.

Everything works on float64 numpy arrays. The model's one forward
(`model.mtr_forward`) runs on plain arrays through the kernels below, and
training runs back through it with the hand-written `model.mtr_backward`.
`Tensor` only holds a weight and its gradient; `grad_check` tests a gradient
against central differences.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "softmax_rows",
    "linear_forward",
    "layer_norm",
    "relu",
    "Tensor",
    "no_grad",
    "Hyper",
    "AdamState",
    "adam_step",
    "grad_check",
    "uniform_init",
]


# ---------------------------------------------------------------------------
# Functional kernels
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
    return _normalized(x, eps)[0] * gain + bias


def _normalized(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row of x centred and scaled to unit variance, and the row's 1/std."""
    # `ndarray.mean` is a sum followed by a division by the row width; calling
    # the reduction directly keeps that arithmetic and skips the wrapper
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred**2, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    return centred * inv_std, inv_std


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-style uniform init in +-sqrt(6/(fan_in+fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class Tensor:
    """A weight: `data`, a float64 array (in `ModelParams`, a view of its flat
    `vector`), and `grad`, the matching view of the flat gradient once
    `ModelParams.zero_grad` has allocated it. `model`'s benchmark-only shims
    also take and return arrays wrapped in one."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


@contextlib.contextmanager
def no_grad():
    """A block that changes nothing, since no forward records a graph.

    Serves only `perfbench`'s traced path, and goes when the benchmark drives
    the engine's own entry points (ROADMAP direction 1).
    """
    yield


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be a finite number >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        for name in ("batch_size", "epochs"):
            if type(getattr(self, name)) is not int:  # a bool is refused too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


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


def grad_check(f, x: np.ndarray, grad: np.ndarray, delta: float = 1e-4) -> float:
    """Worst relative error between `grad` and central differences of `f`.

    `f` evaluates the scalar loss from the current values of the 1-D array
    `x` (a model's `vector`); each entry is moved by +-`delta` in place and
    restored. `grad` is the gradient to test, of `x`'s shape. The denominator
    is at least 1e-3, so near-zero gradients are compared on an absolute scale.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if x.ndim != 1 or grad.shape != x.shape:
        raise ValueError(f"need a 1-D x and a gradient of its shape, got {x.shape} and {grad.shape}")
    worst = 0.0
    for i, analytic in enumerate(grad.tolist()):
        orig = x[i]
        x[i] = orig + delta
        f_hi = f()
        x[i] = orig - delta
        f_lo = f()
        x[i] = orig
        fd = (f_hi - f_lo) / (2.0 * delta)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3))
    return worst
