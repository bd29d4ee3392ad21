"""Self-supervised reconstruction training on non-EV windows."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import WindowBatch
from .model import ModelDims, ModelParams, mtr_forward, mtr_forward_t
from .nn import AdamState, Hyper, Tensor, adam_step

MAX_TRAIN_MINUTES = 4 * 7 * 1440  # default cap on training history
DIVERGENCE_LIMIT = 1e6  # a batch loss above this aborts training


class TrainingDiverged(RuntimeError):
    def __init__(self, report: "TrainReport"):
        super().__init__(f"training loss diverged at epoch {len(report.epoch_losses)}")
        self.report = report


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    initial_loss: float = float("nan")
    wall_time_s: float = 0.0
    seed: int = 0
    stopped_early: bool = False


def reconstruction_loss_t(batch: WindowBatch, params: ModelParams) -> Tensor:
    """Mean squared reconstruction error over batch and local-window positions."""
    lm = Tensor(batch.lm_windows)
    gm = Tensor(batch.gm_windows)
    rec = mtr_forward_t(lm, gm, params)
    diff = rec - lm
    return (diff * diff).mean_all()


def reconstruction_loss(batch: WindowBatch, params: ModelParams) -> float:
    """`reconstruction_loss_t`'s value, through the array forward."""
    d = mtr_forward(batch.lm_windows, batch.gm_windows, params) - batch.lm_windows
    loss = float((d * d).mean())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite reconstruction loss")
    return loss


def train(
    windows: WindowBatch,
    hyper: Hyper,
    seed: int = 0,
    dims: ModelDims | None = None,
    params: ModelParams | None = None,
    patience: int = 5,
    log=None,
) -> tuple[ModelParams, TrainReport]:
    """Adam over shuffled window batches; deterministic for a fixed seed.

    Backward writes every gradient into the flat `params.grad`, and each batch
    is one Adam update of the flat `params.vector`.

    Stops early after `patience` epochs without improvement. A loss above
    `DIVERGENCE_LIMIT` aborts with TrainingDiverged carrying the partial report.
    """
    if len(windows) < 1:
        raise ValueError("need at least one training window")
    if params is None:
        if dims is None:
            dims = ModelDims(lm=windows.lm_windows.shape[1], gm=windows.gm_windows.shape[1])
        params = ModelParams(dims, seed=seed)
    if windows.lm_windows.shape[1] != params.dims.lm or windows.gm_windows.shape[1] != params.dims.gm:
        raise ValueError("window shapes do not match model dims")

    rng = np.random.default_rng(seed)
    state = AdamState.for_params([params.vector])
    report = TrainReport(seed=seed)
    started = time.perf_counter()

    report.initial_loss = reconstruction_loss(windows, params)
    best = float("inf")
    stale = 0
    n = len(windows)
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, n, hyper.batch_size):
            idx = order[lo : lo + hyper.batch_size]
            batch = WindowBatch(windows.lm_windows[idx], windows.gm_windows[idx])
            params.zero_grad()
            loss = reconstruction_loss_t(batch, params)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val) or loss_val > DIVERGENCE_LIMIT:
                report.wall_time_s = time.perf_counter() - started
                raise TrainingDiverged(report)
            loss.backward()
            adam_step([params.vector], [params.grad], state, hyper)
            epoch_loss += loss_val * len(idx)
            seen += len(idx)
        mean_loss = epoch_loss / seen
        report.epoch_losses.append(mean_loss)
        if log is not None:
            log(f"epoch {epoch + 1}/{hyper.epochs}: loss {mean_loss:.6f}")
        if mean_loss < best - 1e-12:
            best = mean_loss
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                report.stopped_early = True
                break

    report.final_loss = reconstruction_loss(windows, params)
    report.wall_time_s = time.perf_counter() - started
    if report.final_loss > report.initial_loss:
        warnings.warn("final training loss exceeds initial loss", stacklevel=2)
    return params, report
