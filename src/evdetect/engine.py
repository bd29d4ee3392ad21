"""Online detection engine: per-reading ingestion, reconstruction scoring and
dynamic thresholding, on the cached branch of the forward for fast inference.

Every reading is scored by the one array forward, `model.mtr_forward`, on its
cached branch, which reads every input-independent piece from the model's
folds. `model.ModelFolds` says what they fold (queries, attentions, layer
norms, embedding tables) and how they are laid out for numpy's per-call cost.

State splits in two. Per model: the weights and their folds, which
`model.ModelFolds` holds and every detector of the same weights shares (see
`OnlineDetector`). Per meter: the stream windows and `last_t`, and the SPOT
state (plus the calibration scores until SPOT is fitted), which is all a
loaded detector adds to a process that already runs its model.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from dataclasses import asdict, dataclass
from datetime import datetime

import numpy as np

from . import checkpoint as ckpt
from .data import MAX_FILL_MINUTES, MINUTE, SeriesStats, normalize
from .memory import Reading, StreamState
from .model import ModelParams, _embed, mtr_forward
from .spot import ANOMALY, GpdFit, SpotState, pot_calibrate, spot_step

WARMUP = "warmup"
CALIBRATING = "calibrating"
DETECTING = "detecting"

# a reading further than this many training standard deviations from the
# training mean is refused: from about 1e154 the forward overflows while the
# reading is in the local window, then scores it as ordinary in the global one
MAX_ABS_Z = 1e100


@dataclass
class EngineConfig:
    """Detection-engine settings; lm/gm must match the model checkpoint."""

    lm: int = 8
    gm: int = 32
    q: float = 1e-4
    calibration_len: int = 1440
    init_level: float = 0.98
    refit_stride: int = 1
    max_peaks: int | None = None

    def __post_init__(self):
        for name in ("lm", "gm", "calibration_len", "refit_stride", "max_peaks"):
            count = getattr(self, name)
            if not (isinstance(count, int) or (name == "max_peaks" and count is None)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if self.calibration_len < 100:
            raise ValueError("calibration_len must be >= 100")
        if not (self.lm < self.gm):
            raise ValueError("need lm < gm")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not (0.0 < self.init_level < 1.0):
            raise ValueError(f"init_level must lie in (0, 1), got {self.init_level}")
        if self.refit_stride < 1:
            raise ValueError(f"refit_stride must be >= 1, got {self.refit_stride}")
        if self.max_peaks is not None and self.max_peaks < 2:
            raise ValueError(f"max_peaks must be None or >= 2, got {self.max_peaks}")


@dataclass
class DetectionEvent:
    """Per-timestamp output; `error` is set when the reading was rejected or
    its anomaly score was not finite."""

    t: datetime
    score: float | None
    threshold: float | None
    label: int
    phase: str
    error: str | None = None


def _fmt(x: float | None) -> str:
    return "null" if x is None else format(x, ".9g")


def format_event(e: DetectionEvent) -> str:
    """One JSON object per line, stable key order, 9 significant digits."""
    line = (
        f'{{"t":"{e.t.isoformat()}","score":{_fmt(e.score)},'
        f'"threshold":{_fmt(e.threshold)},"label":{e.label},"phase":"{e.phase}"'
    )
    if e.error is not None:
        line += f',"error":{json.dumps(e.error)}'
    return line + "}"


def anomaly_score(lm_values, lm_hat) -> float:
    """Mean squared error between a local window and its reconstruction."""
    a = np.asarray(lm_values, dtype=np.float64)
    b = np.asarray(lm_hat, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


# ---------------------------------------------------------------------------
# Online detector
# ---------------------------------------------------------------------------


def _row_fault(name: str, a: np.ndarray, low: float) -> str | None:
    """Why `a` is not a 1-D float64 array of finite values above `low`; None
    if it is. A NaN makes the minimum NaN, so the first test refuses it too."""
    if not (a.ndim == 1 and a.dtype == np.float64):
        return f"{name} must be a 1-D float64 array, got {a.dtype} of shape {a.shape}"
    if a.size and not (low < np.minimum.reduce(a) and np.maximum.reduce(a) < math.inf):
        rule = "finite" if low == -math.inf else f"finite and above {low:g}"
        return f"{name} must be {rule}, got {a[~((a > low) & (a < math.inf))][0]}"
    return None


def _spot_fault(spot: SpotState, config: EngineConfig) -> str | None:
    """Why `spot_step` could not step a resumed SPOT state, or why it is not
    the state its engine's settings calibrate; None for a sound state."""
    for name in ("q", "refit_stride", "max_peaks"):
        if getattr(spot, name) != getattr(config, name):
            return f"{name} {getattr(spot, name)!r} differs from the config's {getattr(config, name)!r}"
    # excesses over h, each above 0
    if fault := _row_fault("peaks", spot.peaks, 0.0):
        return fault
    fit = spot.fit
    for name, x in {"h": spot.h, "z_q": spot.z_q, "gamma_hat": fit.gamma_hat, "sigma_hat": fit.sigma_hat}.items():
        if not (isinstance(x, (int, float)) and math.isfinite(x)):
            return f"{name} must be a finite number, got {x!r}"
    for name, x in {"k": spot.k, "n_peaks_total": spot.n_peaks_total, "_since_refit": spot._since_refit,
                    "n_excesses": fit.n_excesses}.items():
        if not (isinstance(x, int) and x >= 0):
            return f"{name} must be a count, got {x!r}"
    # what calibration and every step keep; the first peak past either fails
    # in `gpd_quantile`, which needs no more excesses than scores seen
    if spot.n_peaks_total > spot.k:
        return f"n_peaks_total {spot.n_peaks_total} exceeds k {spot.k}, the scores seen"
    if spot.peaks.size > spot.n_peaks_total:
        return f"peaks holds {spot.peaks.size} excesses, more than n_peaks_total {spot.n_peaks_total}"
    if not isinstance(spot.degenerate, bool):
        return f"degenerate must be true or false, got {spot.degenerate!r}"
    return None


class OnlineDetector:
    """Strictly sequential detector for one meter stream.

    A meter owns its stream windows, its SPOT state and, until SPOT is
    calibrated, the calibration scores (emptied once it is). It runs on
    `ModelParams.shared` of the weights it is given: a read-only copy, with its
    folds, that every detector of the same weights shares and that later
    writes to the caller's weights never reach. Of the caller's model it reads
    only the dims and the vector, so one that `load_model` gave never builds
    its per-weight tree. A read-only model is kept, so `load` decodes a model
    only if no live detector has it, and hashes no weights when the model is
    the one `ModelParams.shared` handed out last, as across a fleet's files; a
    deep copy shares the model, and so its folds, as well.
    """

    def __init__(self, params: ModelParams, stats: SeriesStats, config: EngineConfig):
        if config.lm != params.dims.lm or config.gm != params.dims.gm:
            raise ValueError("engine window lengths must match the model dims")
        if params.vector.flags.writeable:
            params = ModelParams.shared(params.dims, params.vector)
        self.params = params
        self.stats = stats
        self.config = config
        self.stream = StreamState(config.lm, config.gm)
        self.last_t: datetime | None = None  # the newest timestamp stepped, refused or not
        self.spot: SpotState | None = None
        self.calib_scores: list[float] = []

    def __deepcopy__(self, memo):
        memo[id(self.params)] = self.params
        twin = memo[id(self)] = copy.copy(self)
        vars(twin).update(copy.deepcopy(vars(self), memo))
        return twin

    # -- phase bookkeeping ---------------------------------------------------

    @property
    def phase(self) -> str:
        if not self.stream.full:
            return WARMUP
        return DETECTING if self.spot is not None else CALIBRATING

    @property
    def cache(self) -> "_LayerPathCache":
        """`perfbench`'s view of enc1's cached logits; see `_LayerPathCache`."""
        return _LayerPathCache(self)

    # -- the per-reading step -------------------------------------------------

    def clear_windows(self) -> None:
        """Empty the stream windows, as `run` does after a hole too long to
        fill; the SPOT state and the calibration scores stay."""
        self.stream = StreamState(self.config.lm, self.config.gm)

    def _rejected(self, reading: Reading, error: str) -> DetectionEvent:
        return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=self.phase, error=error)

    def _after_last(self, t: datetime) -> bool:
        """The one order rule: whether a reading at `t` is newer than `last_t`,
        the newest timestamp stepped. A timestamp of the other time-zone kind
        (naive against timezone-aware) raises ValueError, as within one CSV."""
        if self.last_t is not None and (t.utcoffset() is None) != (self.last_t.utcoffset() is None):
            raise ValueError(f"reading at {t} and the newest stepped, {self.last_t}, mix naive and timezone-aware timestamps")
        return self.last_t is None or t > self.last_t

    def run(self, readings):
        """Step each reading after the hole since `last_t`, yielding every
        minute's event: up to `MAX_FILL_MINUTES` missing minutes repeat the
        windows' newest power, unless they hold none; a longer hole clears them."""
        for reading in readings:
            if self.last_t is not None and self._after_last(reading.t):
                missing = (reading.t - self.last_t) // MINUTE - 1
                if missing > MAX_FILL_MINUTES:
                    self.clear_windows()
                elif self.stream.times:
                    for _ in range(missing):
                        yield self.step(Reading(self.last_t + MINUTE, float(self.stream.power[-1])))
            yield self.step(reading)

    def step(self, reading: Reading) -> DetectionEvent:
        """Score one reading as the next minute, with no gap handling (`run`
        does that); a reading not newer than `last_t` is refused."""
        if not self._after_last(reading.t):
            return self._rejected(reading, f"reading at {reading.t} is not newer than {self.last_t}")
        self.last_t = reading.t
        # a rejected reading never enters the buffers, so the stream goes on;
        # one compare refuses both a non-finite and a huge reading
        if not abs(reading.power - self.stats.mean) <= MAX_ABS_Z * self.stats.std:
            if not math.isfinite(reading.power):
                return self._rejected(reading, f"non-finite reading power {reading.power}")
            return self._rejected(reading, f"out-of-range reading power {reading.power} (|z| > {MAX_ABS_Z:g})")
        self.stream.push(reading)

        if not self.stream.full:
            return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=WARMUP)

        # both windows, oldest first, are the stream's one array; then `anomaly_score`, inline
        values = normalize(self.stream.power, self.stats)
        lm_norm = values[self.config.gm :]
        d = lm_norm - mtr_forward(lm_norm, values[: self.config.gm], self.params, self.params.folds())
        score = float(d.dot(d) / d.size)
        # the reading stays in the windows; SPOT and calibration never see the score
        if not math.isfinite(score):
            return self._rejected(reading, "non-finite anomaly score")

        if self.spot is None:
            self.calib_scores.append(score)
            if len(self.calib_scores) >= self.config.calibration_len:
                self.spot = pot_calibrate(
                    self.calib_scores,
                    q=self.config.q,
                    init_level=self.config.init_level,
                    refit_stride=self.config.refit_stride,
                    max_peaks=self.config.max_peaks,
                )
                self.calib_scores.clear()  # nothing reads them once SPOT is fitted
            return DetectionEvent(t=reading.t, score=score, threshold=None, label=0, phase=CALIBRATING)

        threshold = self.spot.z_q
        cls = spot_step(self.spot, score)
        return DetectionEvent(
            t=reading.t,
            score=score,
            threshold=threshold,
            label=1 if cls == ANOMALY else 0,
            phase=DETECTING,
        )

    # -- checkpointing ----------------------------------------------------------

    def save(self, path) -> None:
        meta, arrays = ckpt.encode_model(self.params, self.stats)
        spot = None
        if self.spot is not None:
            spot = {**vars(self.spot), "fit": asdict(self.spot.fit)}
            arrays["peaks"] = spot.pop("peaks")
        meta["config"] = asdict(self.config)
        meta["stream"] = {
            "total_seen": self.stream.total_seen,
            "last_t": None if self.last_t is None else self.last_t.isoformat(),
            "t": [t.isoformat() for t in self.stream.times],
        }
        meta["spot"] = spot
        arrays["power"] = self.stream.power[self.stream.power.size - len(self.stream.times) :]
        arrays["calib_scores"] = np.asarray(self.calib_scores, dtype=np.float64)
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)

    @classmethod
    def load(cls, path) -> "OnlineDetector":
        """Resume a detector saved by `save`; a malformed file raises a
        ValueError that names it.

        The saved readings are restored, not replayed: `StreamState.restore`
        copies the file's powers into the stream's array, so no part of the
        stream is a view of the file's bytes. A stream that steps cannot leave
        is refused: here, timestamps of mixed time-zone kinds, that do not
        strictly increase or that end after `last_t`, and a power that `step`
        refuses; in `StreamState.restore`, a count other than pushes leave. So
        are calibration scores that are not finite, and a SPOT state that
        `_spot_fault` finds unsound. The state equals, bit for bit, that of
        pushing the readings one at a time, since the windows are all a
        meter's forward reads.
        """
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        with ckpt.naming(path, ckpt.ENGINE_FORMAT):
            dims, vector, stats = ckpt.decode_model(meta, arrays)
            # older files carry a cache switch; every detector runs the cached forward
            config = dict(meta["config"])
            config.pop("cache_enabled", None)
            det = cls(ModelParams.shared(dims, vector), stats, EngineConfig(**config))
            stream, spot = meta["stream"], meta["spot"]
            times = list(map(datetime.fromisoformat, stream["t"]))
            det.last_t = datetime.fromisoformat(stream["last_t"]) if stream.get("last_t") else max(times, default=None)
            powers, total_seen = arrays["power"], stream["total_seen"]
            if not (powers.shape == (len(times),) and powers.dtype == np.float64):
                raise ValueError(f"stream has {len(times)} timestamps and {powers.dtype} powers of shape {powers.shape}")
            # `step`'s own compare, on the farthest saved reading (a NaN is the farthest)
            far, bound = abs(powers - stats.mean), MAX_ABS_Z * stats.std
            if far.size and not np.maximum.reduce(far) <= bound:
                raise ValueError(f"stream power {powers[~(far <= bound)].item(0)} is not finite or has |z| > {MAX_ABS_Z:g}")
            if spot is None:
                scores = arrays["calib_scores"]
                if fault := _row_fault("calib_scores", scores, -math.inf):
                    raise ValueError(fault)
                det.calib_scores = scores.tolist()
            else:
                # a copy: a view would keep the whole file's bytes alive
                det.spot = SpotState(**{**spot, "fit": GpdFit(**spot["fit"]), "peaks": arrays["peaks"].copy()})
                if fault := _spot_fault(det.spot, det.config):
                    raise ValueError(f"spot {fault}")
            try:
                if any(map(operator.ge, times, times[1:])):
                    raise ValueError("timestamps are not strictly increasing")
                if times and not det.last_t >= times[-1]:
                    raise ValueError(f"last_t {det.last_t} is before its newest reading {times[-1]}")
                det.stream.restore(times, powers, total_seen)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"stream {exc}") from exc
        return det


class _LayerPathCache:
    """What `perfbench`'s `LayerPath` reads as `det.cache`: the model's folds,
    a `push` that keeps nothing, and `assemble_logits`, enc1's logits over the
    detector's global window. It holds no meter state. Benchmark only: it goes
    with `LayerPath` when the benchmark drives the engine's own entry points
    (ROADMAP direction 1).
    """

    def __init__(self, det: OnlineDetector):
        vars(self).update(vars(det.params.folds()))
        self.det = det

    def push(self, feature: np.ndarray) -> None:
        pass

    def assemble_logits(self) -> np.ndarray:
        """enc1's cross-attention logits over a full stream's global window,
        from the cached branch's per-head queries, heads first (h x e0 x gm).
        They are the step's (gm x e0*h) block, transposed; the window is
        embedded with `_embed`, so they equal the step's to rounding, not bit
        for bit."""
        det, p = self.det, self.det.params
        gm_values = normalize(det.stream.power[: det.config.gm], det.stats)
        logits = _embed(gm_values, p.pos_gm, p).dot(self.enc1[0].T)
        return logits.T.reshape(p.dims.e0, p.dims.heads, -1).swapaxes(0, 1)
