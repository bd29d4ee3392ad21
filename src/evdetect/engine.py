"""Online detection engine: per-reading ingestion, reconstruction scoring and
dynamic thresholding, with an incremental attention cache for fast inference.

Every reading is scored by the one array forward, `model.mtr_forward`; each
detector's cache is a branch inside it. The cache exploits four facts
about the model at inference time. Both encoder blocks' queries are learned
constants, so their post-self-attention query blocks are frozen. Each of
enc1's cross-attention logits splits into a content part (a dot product with
the reading's embedded feature, computed once when the reading enters the
global window) and a positional part (precomputable for every relative
offset); assembling the logit matrix then costs O(gm*e0) additions per step
instead of O(gm*e0*C) multiply-adds. The weights are constants, so every
attention's query-key and value-output products fold into two per-head
(C x C) matrices once, at build, and a cached step skips the per-head
projections. And a layer norm's centring and gain are linear, so each one
folds into the matrices that produce its input (the decoder's last one
together with the output head); a cached step computes only each norm's row
variance, the division by its square root and the bias.

State splits in two. Per model: the weights and every fold above, which
`model.ModelFolds` holds and every detector of the same weights shares (see
`OnlineDetector`). Per meter: the stream windows and `last_t`, the cache
ring and the SPOT state (plus the calibration scores until SPOT is fitted),
which is all a loaded detector adds to a process that already runs its model.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime
from itertools import repeat

import numpy as np

from . import checkpoint as ckpt
from .data import MAX_FILL_MINUTES, MINUTE, SeriesStats, normalize
from .memory import Reading, StreamState
from .model import ModelParams, mtr_forward
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
# Incremental attention cache
# ---------------------------------------------------------------------------


class AttentionCache:
    """The ring of one meter's global window, over its model's folds.

    A cache binds the arrays of `params.folds()` (`model.ModelFolds`: every
    attention and layer norm folded, enc1's queries and positional logits) as
    its own attributes, so a step reads them directly; the caches of one
    read-only model share them. What a cache owns is its ring:

    ring:       per-reading content logit parts of enc1's cross-attention,
                eff_queries @ feature, written twice into a (h x e0 x 2gm)
                buffer so the chronological window is always a contiguous
                copy-free slice.
    ring_ptr:   the slot the next reading takes; once the ring is full, the
                oldest reading's.
    ring_count: readings in the ring, up to gm.
    """

    def __init__(self, params: ModelParams):
        vars(self).update(vars(params.folds()))
        dims = params.dims
        self.gm = dims.gm
        self.ring = np.zeros((dims.heads, dims.e0, 2 * dims.gm))
        self.ring_ptr = 0
        self.ring_count = 0

    def push(self, feature: np.ndarray) -> None:
        """Record the content logits of a feature entering the global window."""
        col = self.eff_queries @ feature
        self.ring[:, :, self.ring_ptr] = col
        self.ring[:, :, self.ring_ptr + self.gm] = col
        self.ring_ptr = (self.ring_ptr + 1) % self.gm
        self.ring_count = min(self.ring_count + 1, self.gm)

    def fill(self, features: np.ndarray) -> None:
        """Record the content logits of up to gm features (g x C, oldest
        first) entering an empty ring, bit for bit as g `push` calls would.

        One stacked matmul, (h x 1 x e0 x C) @ (1 x g x C x 1), runs the same
        matrix-vector kernel per feature as `push`'s `eff_queries @ feature`;
        a single (e0 x C) @ (C x g) product would run a matrix-matrix kernel
        and round differently.
        """
        g = len(features)
        cols = np.matmul(self.eff_queries[:, None], features[None, :, :, None])[..., 0].transpose(0, 2, 1)
        self.ring[:, :, :g] = cols
        self.ring[:, :, self.gm : self.gm + g] = cols
        self.ring_ptr = g % self.gm
        self.ring_count = g

    def assemble_logits(self) -> np.ndarray:
        """Full cross-attention logits (h x e0 x gm) from cached parts, as a
        new array (a kept buffer would save no time at this size)."""
        if self.ring_count < self.gm:
            raise ValueError("cache ring not yet full")
        return self.pos_logits + self.ring[:, :, self.ring_ptr : self.ring_ptr + self.gm]


# ---------------------------------------------------------------------------
# Online detector
# ---------------------------------------------------------------------------


class OnlineDetector:
    """Strictly sequential detector for one meter stream.

    A meter owns its stream windows, its cache ring, its SPOT state and, until
    SPOT is calibrated, the calibration scores (emptied once it is). It runs on
    `ModelParams.shared` of the weights it is given: a read-only copy, with its
    folds, that every detector of the same weights shares and that later
    writes to the caller's weights never reach. A read-only model is kept, so
    `load` hashes the weights once and decodes a model only if no live
    detector has it; a deep copy shares the model and folds as well.
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
        self.cache = AttentionCache(params)

    def __deepcopy__(self, memo):
        memo.update((id(v), v) for v in (self.params, *vars(self.params.folds()).values()))
        twin = memo[id(self)] = copy.copy(self)
        vars(twin).update(copy.deepcopy(vars(self), memo))
        return twin

    # -- phase bookkeeping ---------------------------------------------------

    @property
    def phase(self) -> str:
        if not self.stream.full:
            return WARMUP
        return DETECTING if self.spot is not None else CALIBRATING

    def _embed_scalar(self, value_norm: float) -> np.ndarray:
        return value_norm * self.params.embed_w.data[0] + self.params.embed_b.data

    # -- the per-reading step -------------------------------------------------

    def _push(self, reading: Reading) -> None:
        spilled = self.stream.push(reading)
        if spilled is not None:
            self.cache.push(self._embed_scalar((spilled.power - self.stats.mean) / self.stats.std))

    def clear_windows(self) -> None:
        """Empty the stream windows and the cache ring, as `run` does after a
        hole too long to fill; the SPOT state and the calibration scores stay."""
        self.stream = StreamState(self.config.lm, self.config.gm)
        self.cache.ring_ptr = self.cache.ring_count = 0

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
                elif self.stream.readings:
                    for _ in range(missing):
                        yield self.step(Reading(self.last_t + MINUTE, self.stream.readings[-1].power))
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
        self._push(reading)

        if not self.stream.full:
            return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=WARMUP)

        # both windows, oldest first, from one array; then `anomaly_score`, inline
        values = normalize(np.array([r.power for r in self.stream.readings]), self.stats)
        lm_norm = values[self.config.gm :]
        d = lm_norm - mtr_forward(lm_norm, values[: self.config.gm], self.params, self.cache)
        score = float(np.add.reduce(d * d) / d.size)
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
        readings = self.stream.readings
        spot = None
        if self.spot is not None:
            spot = {**vars(self.spot), "fit": asdict(self.spot.fit)}
            arrays["peaks"] = spot.pop("peaks")
        meta["config"] = asdict(self.config)
        meta["stream"] = {
            "total_seen": self.stream.total_seen,
            "last_t": None if self.last_t is None else self.last_t.isoformat(),
            "t": [r.t.isoformat() for r in readings],
        }
        meta["spot"] = spot
        arrays["power"] = np.array([r.power for r in readings], dtype=np.float64)
        arrays["calib_scores"] = np.asarray(self.calib_scores, dtype=np.float64)
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)

    @classmethod
    def load(cls, path) -> "OnlineDetector":
        """Resume a detector saved by `save`; a malformed file raises ValueError.

        The saved readings are restored, not replayed. A stream that steps
        cannot leave is refused: here, timestamps of mixed time-zone kinds,
        that do not strictly increase or that end after `last_t`; in
        `StreamState.restore`, a count other than pushes leave. The cache ring
        takes the content logits of the global readings in one
        `AttentionCache.fill`. The state equals, bit for bit, that of pushing
        the readings one at a time: the features come from the same
        elementwise embed, and `fill`'s stacked matmul runs the matrix-vector
        kernel of `push` once per reading.
        """
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        dims, vector, stats = ckpt.decode_model(meta, arrays)
        try:
            # older files carry a cache switch; every detector runs its cache
            config = dict(meta["config"])
            config.pop("cache_enabled", None)
            det = cls(ModelParams.shared(dims, vector), stats, EngineConfig(**config))
            stream, spot = meta["stream"], meta["spot"]
            times = [datetime.fromisoformat(t) for t in stream["t"]]
            det.last_t = datetime.fromisoformat(stream["last_t"]) if stream.get("last_t") else max(times, default=None)
            powers, total_seen = arrays["power"], stream["total_seen"]
            if not (powers.shape == (len(times),) and powers.dtype == np.float64):
                raise ValueError(f"{path}: stream has {len(times)} timestamps and {powers.dtype} powers of shape {powers.shape}")
            if spot is None:
                det.calib_scores = arrays["calib_scores"].tolist()
            else:
                # a copy: a view would keep the whole file's bytes alive
                det.spot = SpotState(**{**spot, "fit": GpdFit(**spot["fit"]), "peaks": arrays["peaks"].copy()})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {ckpt.ENGINE_FORMAT} metadata: {exc!r}") from exc
        try:
            if any(a >= b for a, b in zip(times, times[1:])):
                raise ValueError("timestamps are not strictly increasing")
            if times and not det.last_t >= times[-1]:
                raise ValueError(f"last_t {det.last_t} is before its newest reading {times[-1]}")
            # tuple.__new__ skips the NamedTuple's Python-level constructor
            readings = list(map(tuple.__new__, repeat(Reading), zip(times, powers.tolist())))
            g = det.stream.restore(readings, total_seen)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: stream {exc}") from exc
        det.cache.fill(det._embed_scalar(((powers[:g] - stats.mean) / stats.std)[:, None]))
        return det
