"""Online-engine tests: phases, the incremental attention cache, checkpoint
resume and the JSONL event contract."""

import copy
import functools
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

# small calibration sets legitimately trigger the lowered-threshold warning
pytestmark = pytest.mark.filterwarnings("ignore::evdetect.spot.CalibrationWarning")

from evdetect.data import SeriesStats, normalize
from evdetect.engine import (
    CALIBRATING,
    DETECTING,
    WARMUP,
    AttentionCache,
    DetectionEvent,
    EngineConfig,
    OnlineDetector,
    anomaly_score,
    format_event,
)
from evdetect.memory import Reading
from evdetect.model import ModelDims, ModelParams, mtr_forward
from evdetect.nn import AdamState, Hyper, adam_step

T0 = datetime(2018, 1, 1)
SMALL = ModelDims(C=8, hidden=8, heads=2, lm=4, gm=12, e0=6, e1=3)


def _readings(values):
    return [Reading(T0 + timedelta(minutes=i), float(v)) for i, v in enumerate(values)]


def _detector(dims=SMALL, seed=0, cache=True, calibration_len=150, q=1e-3):
    params = ModelParams(dims, seed=seed)
    stats = SeriesStats(mean=0.0, std=1.0, count=1)
    cfg = EngineConfig(
        lm=dims.lm,
        gm=dims.gm,
        q=q,
        calibration_len=calibration_len,
        cache_enabled=cache,
    )
    return OnlineDetector(params, stats, cfg)


class TestAnomalyScore:
    def test_identity_is_zero(self):
        assert anomaly_score([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert anomaly_score([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=6), rng.normal(size=6)
        base = anomaly_score(a, b)
        assert anomaly_score(3.0 * a, 3.0 * b) == pytest.approx(9.0 * base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            anomaly_score([1.0], [1.0, 2.0])


@pytest.mark.parametrize("kwargs", [{"refit_stride": 0}, {"refit_stride": -2}, {"max_peaks": 0}, {"max_peaks": 1}])
def test_config_rejects_invalid_refit_settings(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)
    EngineConfig(refit_stride=1, max_peaks=2)


class TestPhases:
    def test_warmup_boundary(self):
        det = _detector()
        span = SMALL.lm + SMALL.gm
        rng = np.random.default_rng(1)
        events = [det.step(r) for r in _readings(rng.normal(size=span))]
        for ev in events[: span - 1]:
            assert ev.phase == WARMUP and ev.label == 0 and ev.score is None
        assert events[-1].phase == CALIBRATING
        assert events[-1].score is not None

    def test_no_alarms_before_detecting(self):
        det = _detector(calibration_len=120)
        rng = np.random.default_rng(2)
        for r in _readings(rng.normal(size=SMALL.lm + SMALL.gm + 119)):
            ev = det.step(r)
            assert ev.phase in (WARMUP, CALIBRATING)
            assert ev.label == 0
        nxt = det.step(Reading(T0 + timedelta(minutes=10_000), 0.0))
        assert nxt.phase == DETECTING
        assert nxt.threshold is not None

    def test_out_of_order_reading_is_error_event(self):
        det = _detector()
        rng = np.random.default_rng(3)
        for r in _readings(rng.normal(size=30)):
            det.step(r)
        seen = det.stream.total_seen
        ev = det.step(Reading(T0, 1.0))
        assert ev.error is not None and ev.label == 0
        assert det.stream.total_seen == seen

    def test_non_finite_score_is_an_error_event(self):
        det = _detector(calibration_len=100)
        readings = _readings(np.random.default_rng(4).normal(size=SMALL.lm + SMALL.gm + 120))
        for r in readings:
            det.step(r)
        spot, calib_scores = copy.deepcopy(det.spot), list(det.calib_scores)
        t = readings[-1].t + timedelta(minutes=1)
        # finite, but its square overflows
        with pytest.warns(RuntimeWarning):
            ev = det.step(Reading(t, 1e200))
        assert ev == DetectionEvent(t, None, None, 0, DETECTING, "non-finite anomaly score")
        assert det.spot == spot and det.calib_scores == calib_scores

    def test_constant_stream_never_alarms(self):
        # constant input -> identical windows -> identical scores -> degenerate
        # calibration; everything after stays normal
        import warnings

        det = _detector(calibration_len=100)
        labels = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in _readings([1.0] * 400):
                labels.append(det.step(r).label)
        assert sum(labels) == 0


class TestAttentionCache:
    def test_positional_logit_shape(self):
        params = ModelParams(SMALL, seed=4)
        cache = AttentionCache(params)
        assert cache.pos_logits.shape == (SMALL.heads, SMALL.e0, SMALL.gm)
        for head in cache.pos_logits:
            # per head: one positional entry per (window slot, query token)
            assert head.T.shape == (SMALL.gm, SMALL.e0)

    def test_rebuild_bit_identical(self):
        params = ModelParams(SMALL, seed=5)
        a = AttentionCache(params)
        b = AttentionCache(params)
        np.testing.assert_array_equal(a.pos_logits, b.pos_logits)
        np.testing.assert_array_equal(a.fixed_queries, b.fixed_queries)
        np.testing.assert_array_equal(a.eff_queries, b.eff_queries)

    def test_cached_logits_match_fresh_within_1e12(self):
        det = _detector(seed=6)
        rng = np.random.default_rng(7)
        for r in _readings(rng.normal(size=SMALL.lm + SMALL.gm + 5)):
            det.step(r)
        cache = det.cache
        got = cache.assemble_logits()

        # from-scratch logits over the live global window
        _, gm_read = det.stream.snapshot()
        gm_norm = normalize([r.power for r in gm_read], det.stats)
        p = det.params
        feats = gm_norm[:, None] @ p.embed_w.data + p.embed_b.data + p.pos_gm
        d = SMALL.C // SMALL.heads
        for k, (wq, wk) in enumerate(zip(p.enc1.cross_attn.wq, p.enc1.cross_attn.wk)):
            q = cache.fixed_queries @ wq.data
            key = feats @ wk.data
            fresh = q @ key.T / math.sqrt(d)
            np.testing.assert_allclose(got[k], fresh, atol=1e-12)

    def test_update_cost_independent_of_gm(self):
        costs = {}
        for gm in (16, 64):
            dims = ModelDims(C=8, hidden=8, heads=2, lm=4, gm=gm, e0=6, e1=3)
            cache = AttentionCache(ModelParams(dims, seed=8))
            cache.push(np.ones(8))
            costs[gm] = cache.update_madds
        assert costs[16] == costs[64] == 2 * 6 * 8  # heads * e0 * C

    def test_ring_oldest_entry_age(self):
        # after gm spills, the oldest ring slot belongs to the reading whose
        # relative offset is lm+gm-1
        det = _detector(seed=9)
        rng = np.random.default_rng(10)
        values = rng.normal(size=SMALL.lm + SMALL.gm)
        for r in _readings(values):
            det.step(r)
        cache = det.cache
        assert cache.ring_count == SMALL.gm
        oldest = cache.content_logits()[0]
        feat = det._embed_scalar(float(normalize(values[0], det.stats)))
        np.testing.assert_array_equal(oldest, cache.eff_queries @ feat)
        # and that slot pairs with the tau = lm+gm-1 positional row
        from evdetect.model import positional_encoding

        np.testing.assert_allclose(
            det.params.pos_gm[0], positional_encoding(SMALL.lm + SMALL.gm - 1, SMALL.C), atol=0
        )


def _windows(det):
    lm_read, gm_read = det.stream.snapshot()
    return tuple(normalize(np.array([r.power for r in w]), det.stats) for w in (lm_read, gm_read))


class TestFoldedForward:
    """The cached forward runs every attention on the cache's folded per-head
    products; it equals the plain forward to rounding."""

    @pytest.mark.parametrize("heads", [2, 1, 4])
    def test_cached_matches_plain_after_the_ring_wraps(self, heads):
        dims = ModelDims(heads=heads)
        det = _detector(dims, seed=40 + heads)
        rng = np.random.default_rng(41)
        readings = _readings(rng.normal(size=dims.lm + 3 * dims.gm))
        for k, r in enumerate(readings):
            det.step(r)
            if k >= dims.lm + dims.gm - 1:
                lm, gm = _windows(det)
                want = mtr_forward(lm, gm, det.params)
                np.testing.assert_allclose(mtr_forward(lm, gm, det.params, det.cache), want, rtol=0, atol=1e-12)
        # the last comparisons ran after the ring had wrapped twice
        assert len(readings) - dims.lm > 2 * dims.gm

    def test_rebuilt_after_adam_step_matches_new_plain_forward(self):
        params = ModelParams(ModelDims(), seed=42)
        rng = np.random.default_rng(43)
        lm, gm = rng.normal(size=8), rng.normal(size=32)

        def cached():
            cache = AttentionCache(params)
            for v in gm:
                cache.push(v * params.embed_w.data[0] + params.embed_b.data)
            return mtr_forward(lm, gm, params, cache)

        before = cached()
        adam_step(
            [params.vector],
            [rng.normal(size=params.vector.size)],
            AdamState.for_params([params.vector]),
            Hyper(learning_rate=1e-2),
        )
        after = cached()
        assert np.all(np.abs(after - before) > 1e-6)
        np.testing.assert_allclose(after, mtr_forward(lm, gm, params), rtol=0, atol=1e-12)


class TestDualRunEquivalence:
    def test_labels_and_scores_match(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(size=900), rng.normal(loc=6.0, size=30), rng.normal(size=300)])
        readings = _readings(values)
        det_cache = _detector(seed=12, cache=True, calibration_len=400)
        det_plain = _detector(seed=12, cache=False, calibration_len=400)
        for r in readings:
            a = det_cache.step(r)
            b = det_plain.step(r)
            assert a.label == b.label
            assert a.phase == b.phase
            if a.score is not None:
                assert abs(a.score - b.score) < 1e-9

    def test_anomalies_fire_on_injected_block(self):
        rng = np.random.default_rng(13)
        values = np.concatenate([rng.normal(size=800), np.full(40, 9.0), rng.normal(size=100)])
        det = _detector(seed=14, cache=True, calibration_len=400, q=1e-3)
        labels = [det.step(r).label for r in _readings(values)]
        assert sum(labels[800:840]) >= 20


class TestCheckpointResume:
    def test_resume_mid_stream_identical_events(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=1000)
        values[700:705] += 8.0
        readings = _readings(values)

        det_full = _detector(seed=16, calibration_len=300)
        full_events = [format_event(det_full.step(r)) for r in readings]

        det_a = _detector(seed=16, calibration_len=300)
        for r in readings[:600]:
            det_a.step(r)
        det_a.save("/tmp/engine_resume_test.npz")
        det_b = OnlineDetector.load("/tmp/engine_resume_test.npz")
        resumed = [format_event(det_b.step(r)) for r in readings[600:]]
        assert resumed == full_events[600:]

    def test_resume_during_warmup(self):
        det_a = _detector(seed=17)
        rng = np.random.default_rng(18)
        values = rng.normal(size=SMALL.lm + SMALL.gm + 200)
        readings = _readings(values)
        for r in readings[:5]:
            det_a.step(r)
        det_a.save("/tmp/engine_resume_warmup.npz")
        det_b = OnlineDetector.load("/tmp/engine_resume_warmup.npz")
        det_ref = _detector(seed=17)
        for r in readings[:5]:
            det_ref.step(r)
        for r in readings[5:]:
            assert format_event(det_b.step(r)) == format_event(det_ref.step(r))


RESUME_LEN = 320
RESUME_CALIB = 100
RESUME_WARMUP = SMALL.lm + SMALL.gm - 1


def _resume_detector(refit_stride, max_peaks):
    cfg = EngineConfig(
        lm=SMALL.lm,
        gm=SMALL.gm,
        q=1e-3,
        calibration_len=RESUME_CALIB,
        refit_stride=refit_stride,
        max_peaks=max_peaks,
    )
    return OnlineDetector(ModelParams(SMALL, seed=23), SeriesStats(mean=0.0, std=1.0, count=1), cfg)


def _resume_readings(constant):
    if constant:
        return _readings(np.full(RESUME_LEN, 0.5))
    values = np.random.default_rng(24).normal(size=RESUME_LEN)
    values[260:264] += 8.0
    return _readings(values)


@functools.lru_cache(maxsize=None)
def _uninterrupted(refit_stride, max_peaks, constant):
    det = _resume_detector(refit_stride, max_peaks)
    return [format_event(det.step(r)) for r in _resume_readings(constant)], det.spot


class TestResumeAtAnyCut:
    def test_stream_reaches_the_interesting_states(self):
        _, spot = _uninterrupted(1, 20, False)
        assert spot.n_peaks_total > 20 and len(spot.peaks) == 20
        assert _uninterrupted(1, None, True)[1].degenerate

    # the start, both sides of the end of warmup and of calibration, past the
    # injected anomalies and the end, plus any other cut
    @given(
        cut=st.sampled_from([0, 1, RESUME_WARMUP, RESUME_WARMUP + 1, RESUME_WARMUP + RESUME_CALIB])
        | st.sampled_from([RESUME_WARMUP + RESUME_CALIB + 1, 270, RESUME_LEN])
        | st.integers(0, RESUME_LEN),
        refit_stride=st.sampled_from([1, 3]),
        max_peaks=st.sampled_from([None, 20]),
        constant=st.booleans(),
    )
    def test_resumed_events_equal_uninterrupted(self, tmp_path_factory, cut, refit_stride, max_peaks, constant):
        readings = _resume_readings(constant)
        det = _resume_detector(refit_stride, max_peaks)
        head = [format_event(det.step(r)) for r in readings[:cut]]
        path = tmp_path_factory.getbasetemp() / "resume_any_cut.npz"
        det.save(path)
        with np.load(path) as npz:
            assert len(npz.files) <= 5
        resumed = OnlineDetector.load(path)
        assert resumed.spot == det.spot
        assert resumed.calib_scores == det.calib_scores
        tail = [format_event(resumed.step(r)) for r in readings[cut:]]
        assert head + tail == _uninterrupted(refit_stride, max_peaks, constant)[0]


class TestEventFormat:
    def test_stable_key_order_and_digits(self):
        ev = DetectionEvent(
            t=datetime(2018, 1, 2, 3, 4),
            score=0.123456789123,
            threshold=1.0 / 3.0,
            label=1,
            phase=DETECTING,
        )
        line = format_event(ev)
        assert line == '{"t":"2018-01-02T03:04:00","score":0.123456789,"threshold":0.333333333,"label":1,"phase":"detecting"}'

    def test_null_fields_during_warmup(self):
        ev = DetectionEvent(t=T0, score=None, threshold=None, label=0, phase=WARMUP)
        line = format_event(ev)
        assert '"score":null' in line and '"threshold":null' in line

    def test_error_field_appended(self):
        ev = DetectionEvent(t=T0, score=None, threshold=None, label=0, phase=WARMUP, error="out of order")
        assert line_is_json(format_event(ev))

    def test_replay_determinism_bytes(self):
        rng = np.random.default_rng(19)
        values = rng.normal(size=500)
        runs = []
        for _ in range(2):
            det = _detector(seed=20, calibration_len=200)
            runs.append("\n".join(format_event(det.step(r)) for r in _readings(values)))
        assert runs[0] == runs[1]


def line_is_json(line: str) -> bool:
    import json

    obj = json.loads(line)
    return set(obj) >= {"t", "score", "threshold", "label", "phase"}


@pytest.mark.slow
class TestLogitTimeSublinear:
    @staticmethod
    def _cache_at(gm, seed=21):
        dims = ModelDims(C=8, hidden=8, heads=2, lm=8, gm=gm, e0=16, e1=8)
        params = ModelParams(dims, seed=seed)
        cache = AttentionCache(params)
        rng = np.random.default_rng(gm)
        for _ in range(gm):
            cache.push(rng.normal(size=8))
        return params, cache

    def test_per_step_update_time_independent_of_gm(self):
        # the per-reading logit update is O(e0*C) regardless of the window size
        import time

        caches = [self._cache_at(gm)[1] for gm in (64, 256)]
        feat = np.random.default_rng(0).normal(size=8)
        best = [float("inf")] * len(caches)
        # the two sizes take turns inside each trial, so a slow stretch of a
        # shared host slows both alike; each keeps its best time
        for _ in range(7):
            for i, cache in enumerate(caches):
                start = time.perf_counter()
                for _ in range(2000):
                    cache.push(feat)
                best[i] = min(best[i], time.perf_counter() - start)

        t64, t256 = best
        assert t256 <= 1.5 * t64, f"per-step update grew {t256 / t64:.2f}x from gm=64 to 256"

    def test_cached_logits_beat_from_scratch(self):
        # assembling logits from the cache must beat recomputing them from the
        # window features (which additionally pays the key projections)
        import time

        params, cache = self._cache_at(256)
        rng = np.random.default_rng(1)
        gm_norm = rng.normal(size=256)

        def from_scratch():
            feats = gm_norm[:, None] @ params.embed_w.data + params.embed_b.data + params.pos_gm
            ap = params.enc1.cross_attn
            return [
                (cache.fixed_queries @ wq.data) @ (feats @ wk.data).T / 2.0
                for wq, wk in zip(ap.wq, ap.wk)
            ]

        def best_of(fn, reps=500):
            best = float("inf")
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(reps):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best

        t_cache = best_of(cache.assemble_logits)
        t_fresh = best_of(from_scratch)
        assert t_cache < t_fresh, f"cache {t_cache:.5f}s not faster than fresh {t_fresh:.5f}s"
