"""Online detection engine: per-reading ingestion, reconstruction scoring and
dynamic thresholding, with an incremental attention cache for fast inference.

Every reading is scored by the one array forward, `model.mtr_forward`; the
cache, when enabled, is a branch inside it. The cache exploits four facts
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

State splits in two. Per model: the weights (`ModelParams`) and every fold
above. Detectors of one model share them, read-only: `OnlineDetector.load`
reuses the model of a live detector with the same dims and weight bytes, and
`AttentionCache` takes its folds from a memo keyed the same way; both memos
hold their entries weakly. Per meter: the stream windows, the cache ring and
the SPOT state (plus the calibration scores until SPOT is fitted), which is
all a loaded detector adds to a process that already runs its model.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import asdict, dataclass
from datetime import datetime

import numpy as np

from . import checkpoint as ckpt
from .data import SeriesStats, normalize
from .memory import Reading, StreamOrderError, StreamState
from .model import ModelParams, fold_attention, fold_layer_norms, folded_attention, folded_ln, mtr_forward
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
    cache_enabled: bool = True
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


class _ModelFolds:
    """The input-independent arrays of `AttentionCache` for one model (see
    there), built once per dims and weights and read-only."""

    def __init__(self, params: ModelParams):
        dims = params.dims
        C = dims.C
        enc1, enc2, dec = params.enc1, params.enc2, params.dec
        attns = (enc1.self_attn, enc2.self_attn, enc1.cross_attn, enc2.cross_attn, dec.self_attn, dec.cross_attn)
        qk, vo = fold_attention(*attns)
        # the norm each attention's output meets sits at the same place here
        norms = (enc1.ln1, enc2.ln1, enc1.ln2, enc2.ln2, dec.ln1, dec.ln2, enc1.ln3, enc2.ln3, dec.ln3)
        folds = fold_layer_norms(np.array([n.gain.data for n in norms]))
        vo = vo @ folds[:6, None]
        # [qk_1 | ... | qk_h | fold] (C, h*C + 2C), as `model.folded_attention` takes it
        rows = np.concatenate([qk.transpose(0, 2, 1, 3).reshape(len(attns), C, -1), folds[:6]], axis=-1)
        hc = dims.heads * C
        # the decoder's last norm meets the output head: [P | P diag(g) head_w]
        head = np.concatenate([folds[8, :, :C], folds[8, :, C:] @ params.head_w.data], axis=1)

        # both encoders' self-attention stages see only their learned queries
        queries = params.enc1_queries.data
        self.fixed_queries = folded_ln(folded_attention(queries, queries, rows[0], vo[0]), enc1.ln1.bias.data)
        self.eff_queries = self.fixed_queries @ qk[2]
        # slot j (oldest first) pairs with relative offset lm+gm-1-j
        self.pos_logits = self.eff_queries @ params.pos_gm.T
        self.enc1_values = (params.embed_w.data @ vo[2], (params.embed_b.data + params.pos_gm) @ vo[2])
        self.enc1_residual = self.fixed_queries @ folds[2]
        self.enc1_ln3 = folds[6]

        queries = params.enc2_queries.data
        queries = folded_ln(folded_attention(queries, queries, rows[1], vo[1]), enc2.ln1.bias.data).dot(rows[3])
        self.enc2_eff_queries = queries[:, :hc].reshape(-1, C)
        self.enc2_vo = vo[3]
        self.enc2_residual = queries[:, hc:]
        self.enc2_ln3 = folds[7]

        self.dec_self = (rows[4], vo[4])
        self.dec_cross = (rows[5], vo[5])
        self.dec_head = (head, dec.ln3.bias.data @ params.head_w.data + params.head_b.data)

        for value in vars(self).values():
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False


# the folds of every live cache's model, by (dims, weight bytes)
_MODEL_FOLDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class AttentionCache:
    """Precomputed, input-independent pieces of the inference forward, plus
    the ring of one meter's global window.

    Every attention is folded into two per-head products (`fold_attention`):
    qk = wq_h wk_h^T / sqrt(d) and vo = wv_h wo_h, so a cached step runs it
    without the per-head projections, the head concatenation and `wo`. Every
    layer norm is folded too (`fold_layer_norms`): with fold = [P | P diag(g)],
    P = I - 1/C, the norm of x is `model.folded_ln`(x @ fold, bias). Each fold
    is multiplied into whatever produces the norm's input: the residual and
    the attention values (vo @ fold, h x C x 2C); ln3's fold takes the FFN's
    output plus its input.

    Per model (every attribute below but the ring): these arrays depend on the
    weights alone, so all caches of one model share them. They are built once
    per dims and weight bytes, held while any cache of that model lives, and
    read-only: a write raises, where it would change every meter. A cache
    built after the weights change (an Adam step) folds them anew.

    Per meter: `ring`, `ring_ptr` and `ring_count`, which are all a cache
    owns.

    enc1 (cross-attention over the global window):
    fixed_queries: post-self-attention query block (e0 x C), frozen at build.
    eff_queries:   fixed_queries @ qk, the per-head effective queries
                   (h x e0 x C).
    pos_logits:    positional logit part per ring slot (h x e0 x gm), slot 0
                   holding the oldest offset lm+gm-1.
    ring:          per-reading content logit parts, written twice into a
                   (h x e0 x 2gm) buffer so the chronological window is always
                   a contiguous copy-free slice.
    enc1_values:   (scale, offset), the values gm_feats @ vo @ fold of ln2
                   split as gm_values[:, None] * scale + offset, with scale =
                   embed_w @ vo @ fold (h x 1 x 2C) and offset =
                   (embed_b + pos_gm) @ vo @ fold (h x gm x 2C).
    enc1_residual: fixed_queries @ fold of ln2 (e0 x 2C).

    enc2 (its queries are learned constants too, so its whole self-attention
    stage is frozen):
    enc2_eff_queries: its post-self-attention queries times each head's qk,
                      the h rows of each query in turn (e1*h x C).
    enc2_vo:          vo @ fold of ln2 (h x C x 2C).
    enc2_residual:    post-self-attention queries @ fold of ln2 (e1 x 2C).

    dec_self, dec_cross: the decoder's attentions as (rows, vo @ fold) pairs
    for `model.folded_attention`, with rows = [qk_1 | ... | qk_h | fold]
    (C x h*C + 2C), so one matmul gives the per-head queries and the residual;
    fold is that of ln1 and ln2.

    enc1_ln3, enc2_ln3: the folds of the encoder blocks' ln3, which take the
                      FFN's output plus its input (C x 2C).
    dec_head:         (fold, bias) of the decoder's ln3 with the output head:
                      [P | P diag(g) head_w] (C x C+1) and the constant
                      ln3.bias @ head_w + head_b.
    """

    def __init__(self, params: ModelParams):
        dims = params.dims
        key = (dims, params.vector.tobytes())
        folds = _MODEL_FOLDS.get(key)
        if folds is None:
            folds = _MODEL_FOLDS[key] = _ModelFolds(params)
        # the shared arrays as this cache's own attributes, so a step reads
        # them directly; `_folds` keeps the memo entry alive
        vars(self).update(vars(folds))
        self._folds = folds

        self.gm = dims.gm
        self.ring = np.zeros((dims.heads, dims.e0, 2 * dims.gm))
        self.ring_ptr = 0
        self.ring_count = 0
        self.update_madds = dims.heads * dims.e0 * dims.C

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

    def _content_view(self) -> np.ndarray:
        if self.ring_count < self.gm:
            raise ValueError("cache ring not yet full")
        return self.ring[:, :, self.ring_ptr : self.ring_ptr + self.gm]

    def content_logits(self) -> np.ndarray:
        """Ring contents in chronological (oldest-first) order, (gm x h x e0)."""
        return np.ascontiguousarray(np.moveaxis(self._content_view(), -1, 0))

    def assemble_logits(self) -> np.ndarray:
        """Full cross-attention logits (h x e0 x gm) from cached parts, as a
        new array (a kept buffer would save no time at this size)."""
        return self.pos_logits + self._content_view()


# ---------------------------------------------------------------------------
# Online detector
# ---------------------------------------------------------------------------


class OnlineDetector:
    """Strictly sequential detector for one meter stream.

    A meter owns its stream windows, its cache ring, its SPOT state and, until
    SPOT is calibrated, the calibration scores (emptied once it is). The model
    and the cache's folds are shared with every other detector of the same
    weights; `load` decodes a model only if no live detector has it.
    """

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
        if not self.stream.full:
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
        # a rejected reading never enters the buffers, so the stream goes on;
        # one compare refuses both a non-finite and a huge reading
        if not abs(reading.power - self.stats.mean) <= MAX_ABS_Z * self.stats.std:
            if not math.isfinite(reading.power):
                return self._rejected(reading, f"non-finite reading power {reading.power}")
            return self._rejected(reading, f"out-of-range reading power {reading.power} (|z| > {MAX_ABS_Z:g})")
        try:
            self._push(reading)
        except StreamOrderError as exc:
            return self._rejected(reading, str(exc))

        if not self.stream.full:
            return DetectionEvent(t=reading.t, score=None, threshold=None, label=0, phase=WARMUP)

        # both windows, oldest first, from one array
        values = normalize(np.array([r.power for r in self.stream.readings]), self.stats)
        score = self._score(values[self.config.gm :], values[: self.config.gm])
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
        """Resume a detector saved by `save`; a malformed file raises ValueError.

        The saved readings are restored, not replayed: `StreamState.restore`
        refills the stream buffer (and rejects a stream that pushes cannot leave),
        and the cache ring takes the content logits of the global ones in one
        `AttentionCache.fill`. The state equals, bit for bit, that of pushing
        the readings one at a time: the features come from the same
        elementwise embed, and `fill`'s stacked matmul runs the matrix-vector
        kernel of `push` once per reading.
        """
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        params, stats = ckpt.decode_model(meta, arrays, shared=True)
        try:
            det = cls(params, stats, EngineConfig(**meta["config"]))
            stream, spot = meta["stream"], meta["spot"]
            times = [datetime.fromisoformat(t) for t in stream["t"]]
            filled, powers = stream["filled"], [float(p) for p in arrays["power"]]
            total_seen = stream["total_seen"]
            if not len(filled) == len(powers) == len(times):
                raise ValueError(f"{path}: stream has {len(times)} timestamps, {len(filled)} fill flags and {len(powers)} powers")
            if spot is None:
                det.calib_scores = arrays["calib_scores"].tolist()
            else:
                det.spot = SpotState(**{**spot, "fit": GpdFit(**spot["fit"]), "peaks": arrays["peaks"].tolist()})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {ckpt.ENGINE_FORMAT} metadata: {exc!r}") from exc
        try:
            g = det.stream.restore(list(map(Reading, times, powers, map(bool, filled))), total_seen)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: stream {exc}") from exc
        if det.cache is not None:
            det.cache.fill(det._embed_scalar(((np.array(powers[:g]) - stats.mean) / stats.std)[:, None]))
        return det
