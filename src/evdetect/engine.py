"""Online detection engine: per-reading ingestion, reconstruction scoring and
dynamic thresholding, with an incremental attention cache for fast inference.

Every reading is scored by the one array forward, `model.mtr_forward`; the
cache, when enabled, is a branch inside it. The cache exploits three facts
about the model at inference time. Both encoder blocks' queries are learned
constants, so their post-self-attention query blocks are frozen. Each of
enc1's cross-attention logits splits into a content part (a dot product with
the reading's embedded feature, computed once when the reading enters the
global window) and a positional part (precomputable for every relative
offset); assembling the logit matrix then costs O(gm*e0) additions per step
instead of O(gm*e0*C) multiply-adds. And the weights are constants, so every
attention's query-key and value-output products fold into two per-head
(C x C) matrices once, at build, and a cached step skips the per-head
projections.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime

import numpy as np

from . import checkpoint as ckpt
from .data import SeriesStats, normalize
from .memory import Reading, StreamOrderError, StreamState
from .model import ModelParams, fold_attention, mtr_forward, self_attend
from .spot import ANOMALY, GpdFit, SpotState, pot_calibrate, spot_step

WARMUP = "warmup"
CALIBRATING = "calibrating"
DETECTING = "detecting"


@dataclass
class EngineConfig:
    """Detection-engine settings; lm/gm must match the model checkpoint."""

    lm: int = 8
    gm: int = 32
    q: float = 1e-4
    calibration_len: int = 1440
    init_level: float = 0.98
    cache_enabled: bool = True
    refit_stride: int = 1
    max_peaks: int | None = None

    def __post_init__(self):
        if self.calibration_len < 100:
            raise ValueError("calibration_len must be >= 100")
        if not (self.lm < self.gm):
            raise ValueError("need lm < gm")
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
    """Precomputed, input-independent pieces of the inference forward.

    Every attention is folded into two per-head products (`fold_attention`):
    qk = wq_h wk_h^T / sqrt(d) and vo = wv_h wo_h, each (h x C x C), so a
    cached step runs it as sum_h softmax(logits_h) @ values_h, without the
    per-head projections, the head concatenation and `wo`.

    enc1 (cross-attention over the global window):
    fixed_queries: post-self-attention query block (e0 x C), frozen at build.
    eff_queries:   fixed_queries @ qk, the per-head effective queries
                   (h x e0 x C).
    pos_logits:    positional logit part per ring slot (h x e0 x gm), slot 0
                   holding the oldest offset lm+gm-1.
    ring:          per-reading content logit parts, written twice into a
                   (h x e0 x 2gm) buffer so the chronological window is always
                   a contiguous copy-free slice.
    enc1_value_scale, enc1_value_offset: the values gm_feats @ vo split as
                   gm_values[:, None] * scale + offset, with scale =
                   embed_w @ vo (h x 1 x C) and offset = (embed_b + pos_gm) @ vo
                   (h x gm x C).

    enc2 (its queries are learned constants too, so its whole self-attention
    stage is frozen):
    enc2_fixed_queries: post-self-attention query block (e1 x C).
    enc2_qk:            enc2_fixed_queries @ qk of its cross-attention (h x e1 x C).
    enc2_vo:            vo of its cross-attention.

    dec_self, dec_cross: the decoder's (qk, vo) pairs.

    All of these are computed from the stacked head weights (`wq_all`, ...)
    at build time; rebuild the cache after the weights change.
    """

    def __init__(self, params: ModelParams):
        dims = params.dims
        self.fixed_queries = self_attend(params.enc1_queries.data, params.enc1)
        qk, vo = fold_attention(params.enc1.cross_attn)
        self.eff_queries = self.fixed_queries @ qk
        # slot j (oldest first) pairs with relative offset lm+gm-1-j
        self.pos_logits = np.einsum("hec,gc->heg", self.eff_queries, params.pos_gm)
        self.enc1_value_scale = params.embed_w.data @ vo
        self.enc1_value_offset = (params.embed_b.data + params.pos_gm) @ vo
        self.enc2_fixed_queries = self_attend(params.enc2_queries.data, params.enc2)
        qk, self.enc2_vo = fold_attention(params.enc2.cross_attn)
        self.enc2_qk = self.enc2_fixed_queries @ qk
        self.dec_self = fold_attention(params.dec.self_attn)
        self.dec_cross = fold_attention(params.dec.cross_attn)
        self.gm = dims.gm
        self.ring = np.zeros((dims.heads, dims.e0, 2 * dims.gm))
        self.ring_ptr = 0
        self.ring_count = 0
        self._logits = np.empty_like(self.pos_logits)
        self.update_madds = dims.heads * dims.e0 * dims.C

    def push(self, feature: np.ndarray) -> None:
        """Record the content logits of a feature entering the global window."""
        col = self.eff_queries @ feature
        self.ring[:, :, self.ring_ptr] = col
        self.ring[:, :, self.ring_ptr + self.gm] = col
        self.ring_ptr = (self.ring_ptr + 1) % self.gm
        self.ring_count = min(self.ring_count + 1, self.gm)

    def _content_view(self) -> np.ndarray:
        if self.ring_count < self.gm:
            raise ValueError("cache ring not yet full")
        return self.ring[:, :, self.ring_ptr : self.ring_ptr + self.gm]

    def content_logits(self) -> np.ndarray:
        """Ring contents in chronological (oldest-first) order, (gm x h x e0)."""
        return np.ascontiguousarray(np.moveaxis(self._content_view(), -1, 0))

    def assemble_logits(self) -> np.ndarray:
        """Full cross-attention logits (h x e0 x gm) from cached parts.

        Reuses an internal scratch buffer; consume before the next call.
        """
        return np.add(self.pos_logits, self._content_view(), out=self._logits)


# ---------------------------------------------------------------------------
# Online detector
# ---------------------------------------------------------------------------


class OnlineDetector:
    """Strictly sequential detector for one meter stream."""

    def __init__(self, params: ModelParams, stats: SeriesStats, config: EngineConfig):
        if config.lm != params.dims.lm or config.gm != params.dims.gm:
            raise ValueError("engine window lengths must match the model dims")
        self.params = params
        self.stats = stats
        self.config = config
        self.stream = StreamState(config.lm, config.gm)
        self.spot: SpotState | None = None
        self.calib_scores: list[float] = []
        self.cache = AttentionCache(params) if config.cache_enabled else None

    # -- phase bookkeeping ---------------------------------------------------

    @property
    def phase(self) -> str:
        if self.stream.snapshot() is None:
            return WARMUP
        return DETECTING if self.spot is not None else CALIBRATING

    def _embed_scalar(self, value_norm: float) -> np.ndarray:
        return value_norm * self.params.embed_w.data[0] + self.params.embed_b.data

    def _score(self, lm_norm: np.ndarray, gm_norm: np.ndarray) -> float:
        # `anomaly_score`'s arithmetic (np.mean is this sum and division), inline
        d = lm_norm - mtr_forward(lm_norm, gm_norm, self.params, self.cache)
        return float(np.add.reduce(d * d) / d.size)

    # -- the per-reading step -------------------------------------------------

    def _push(self, reading: Reading) -> None:
        spilled = self.stream.push(reading)
        if self.cache is not None and spilled is not None:
            self.cache.push(self._embed_scalar((spilled.power - self.stats.mean) / self.stats.std))

    def clear_windows(self) -> None:
        """Empty the stream windows and the cache ring, as after a gap too long
        to fill; the SPOT state and the calibration scores stay."""
        self.stream = StreamState(self.config.lm, self.config.gm)
        if self.cache is not None:
            self.cache.ring_ptr = self.cache.ring_count = 0

    def _rejected(self, reading: Reading, error: str) -> DetectionEvent:
        return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=self.phase, error=error)

    def step(self, reading: Reading) -> DetectionEvent:
        # a rejected reading never enters the buffers, so the stream goes on
        if not math.isfinite(reading.power):
            return self._rejected(reading, f"non-finite reading power {reading.power}")
        try:
            self._push(reading)
        except StreamOrderError as exc:
            return self._rejected(reading, str(exc))

        snap = self.stream.snapshot()
        if snap is None:
            return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=WARMUP)

        lm_read, gm_read = snap
        lm_norm = normalize(np.array([r.power for r in lm_read]), self.stats)
        gm_norm = normalize(np.array([r.power for r in gm_read]), self.stats)
        score = self._score(lm_norm, gm_norm)
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
        readings = [*self.stream.gm_buffer, *self.stream.lm_buffer]
        spot = None
        if self.spot is not None:
            spot = asdict(self.spot)
            arrays["peaks"] = np.asarray(spot.pop("peaks"), dtype=np.float64)
        meta["config"] = asdict(self.config)
        meta["stream"] = {
            "total_seen": self.stream.total_seen,
            "t": [r.t.isoformat() for r in readings],
            "filled": [r.filled for r in readings],
        }
        meta["spot"] = spot
        arrays["power"] = np.array([r.power for r in readings], dtype=np.float64)
        arrays["calib_scores"] = np.asarray(self.calib_scores, dtype=np.float64)
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)

    @classmethod
    def load(cls, path) -> "OnlineDetector":
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        params, stats = ckpt.decode_model(meta, arrays)
        try:
            det = cls(params, stats, EngineConfig(**meta["config"]))
            stream, spot = meta["stream"], meta["spot"]
            readings = [
                Reading(datetime.fromisoformat(t), float(power), bool(filled))
                for t, filled, power in zip(stream["t"], stream["filled"], arrays["power"], strict=True)
            ]
            det.calib_scores = arrays["calib_scores"].tolist()
            if spot is not None:
                det.spot = SpotState(**{**spot, "fit": GpdFit(**spot["fit"]), "peaks": arrays["peaks"].tolist()})
            total_seen = stream["total_seen"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {ckpt.ENGINE_FORMAT} metadata: {exc!r}") from exc
        for r in readings:
            det._push(r)
        det.stream.total_seen = total_seen
        return det
