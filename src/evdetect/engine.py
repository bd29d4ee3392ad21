"""Online detection engine: per-reading ingestion, reconstruction scoring and
dynamic thresholding, with an incremental attention cache for fast inference.

Every reading is scored by the one array forward, `model.mtr_forward`; the
cache, when enabled, is a branch inside it. The cache exploits two facts about
the first encoder block at inference time: its queries are learned constants
(so the post-self-attention query block is frozen), and each cross-attention
logit splits into a content part (a dot product with the reading's embedded
feature, computed once when the reading enters the global window) and a
positional part (precomputable for every relative offset). Assembling the
logit matrix then costs O(gm*e0) additions per step instead of O(gm*e0*C)
multiply-adds.
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
from .model import ModelDims, ModelParams, mtr_forward, self_attend
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


@dataclass
class DetectionEvent:
    """Per-timestamp output; `error` is set when the reading was rejected."""

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
    """Precomputed pieces of the first encoder block's cross-attention.

    fixed_queries: post-self-attention query block (e0 x C), frozen at build.
    eff_queries:   per-head effective queries folded with the key projection
                   and the 1/sqrt(d) scale (h x e0 x C).
    pos_logits:    positional logit part per ring slot (h x e0 x gm), slot 0
                   holding the oldest offset lm+gm-1.
    ring:          per-reading content logit parts, written twice into a
                   (h x e0 x 2gm) buffer so the chronological window is always
                   a contiguous copy-free slice.
    """

    def __init__(self, params: ModelParams):
        dims = params.dims
        p = params.enc1
        self.fixed_queries = self_attend(params.enc1_queries.data, p)
        d = dims.C // dims.heads
        scale = 1.0 / math.sqrt(d)
        self.eff_queries = np.stack(
            [
                (self.fixed_queries @ wq.data) @ wk.data.T * scale
                for wq, wk in zip(p.cross_attn.wq, p.cross_attn.wk)
            ]
        )
        # slot j (oldest first) pairs with relative offset lm+gm-1-j
        self.pos_logits = np.einsum("hec,gc->heg", self.eff_queries, params.pos_gm)
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
        score = anomaly_score(lm_norm, mtr_forward(lm_norm, gm_norm, self.params, self.cache))
        if not np.isfinite(score):
            raise FloatingPointError("non-finite anomaly score")
        return score

    # -- the per-reading step -------------------------------------------------

    def step(self, reading: Reading) -> DetectionEvent:
        try:
            spilled = self.stream.push(reading)
        except StreamOrderError as exc:
            return DetectionEvent(
                t=reading.t, score=None, threshold=None, label=0, phase=self.phase, error=str(exc)
            )
        if self.cache is not None and spilled is not None:
            norm = (spilled.power - self.stats.mean) / self.stats.std
            self.cache.push(self._embed_scalar(norm))

        snap = self.stream.snapshot()
        if snap is None:
            return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=WARMUP)

        lm_read, gm_read = snap
        lm_norm = normalize(np.array([r.power for r in lm_read]), self.stats)
        gm_norm = normalize(np.array([r.power for r in gm_read]), self.stats)
        score = self._score(lm_norm, gm_norm)

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
        meta = {
            "dims": asdict(self.params.dims),
            "stats": asdict(self.stats),
            "config": asdict(self.config),
            "stream": {
                "total_seen": self.stream.total_seen,
                "lm_t": [r.t.isoformat() for r in self.stream.lm_buffer],
                "lm_filled": [r.filled for r in self.stream.lm_buffer],
                "gm_t": [r.t.isoformat() for r in self.stream.gm_buffer],
                "gm_filled": [r.filled for r in self.stream.gm_buffer],
            },
            "spot": None
            if self.spot is None
            else {
                "q": self.spot.q,
                "h": self.spot.h,
                "z_q": self.spot.z_q,
                "gamma": self.spot.fit.gamma_hat,
                "sigma": self.spot.fit.sigma_hat,
                "n_excesses": self.spot.fit.n_excesses,
                "k": self.spot.k,
                "n_peaks_total": self.spot.n_peaks_total,
                "refit_stride": self.spot.refit_stride,
                "max_peaks": self.spot.max_peaks,
                "degenerate": self.spot.degenerate,
                "since_refit": self.spot._since_refit,
            },
        }
        arrays = ckpt.model_arrays(self.params)
        arrays["engine.lm_power"] = np.array([r.power for r in self.stream.lm_buffer])
        arrays["engine.gm_power"] = np.array([r.power for r in self.stream.gm_buffer])
        arrays["engine.calib_scores"] = np.asarray(self.calib_scores, dtype=np.float64)
        arrays["engine.peaks"] = (
            np.asarray(self.spot.peaks, dtype=np.float64) if self.spot is not None else np.zeros(0)
        )
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)

    @classmethod
    def load(cls, path) -> "OnlineDetector":
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        params = ModelParams(ModelDims(**meta["dims"]), seed=0)
        ckpt.load_model_arrays(params, arrays)
        stats = SeriesStats(**meta["stats"])
        det = cls(params, stats, EngineConfig(**meta["config"]))

        stream_meta = meta["stream"]
        det.stream.total_seen = 0
        for t_iso, filled, power in zip(
            stream_meta["gm_t"] + stream_meta["lm_t"],
            stream_meta["gm_filled"] + stream_meta["lm_filled"],
            np.concatenate((arrays["engine.gm_power"], arrays["engine.lm_power"])),
        ):
            spilled = det.stream.push(Reading(datetime.fromisoformat(t_iso), float(power), bool(filled)))
            if det.cache is not None and spilled is not None:
                norm = (spilled.power - det.stats.mean) / det.stats.std
                det.cache.push(det._embed_scalar(norm))
        det.stream.total_seen = stream_meta["total_seen"]

        det.calib_scores = [float(v) for v in arrays["engine.calib_scores"]]
        if meta["spot"] is not None:
            s = meta["spot"]
            det.spot = SpotState(
                q=s["q"],
                h=s["h"],
                z_q=s["z_q"],
                fit=GpdFit(s["gamma"], s["sigma"], s["n_excesses"]),
                peaks=[float(v) for v in arrays["engine.peaks"]],
                k=s["k"],
                n_peaks_total=s["n_peaks_total"],
                refit_stride=s["refit_stride"],
                max_peaks=s["max_peaks"],
                degenerate=s["degenerate"],
                _since_refit=s["since_refit"],
            )
        return det
