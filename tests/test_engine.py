"""Online-engine tests: phases, the folded (cached) forward, checkpoint
resume and the JSONL event contract."""

import copy
import functools
import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

# small calibration sets legitimately trigger the lowered-threshold warning
pytestmark = pytest.mark.filterwarnings("ignore::evdetect.spot.CalibrationWarning")

from evdetect import checkpoint as ckpt
from evdetect import engine
from evdetect.data import MAX_FILL_MINUTES, SeriesStats, normalize, sliding_windows
from evdetect.engine import (
    CALIBRATING,
    DETECTING,
    WARMUP,
    DetectionEvent,
    EngineConfig,
    OnlineDetector,
    anomaly_score,
    format_event,
)
from evdetect.memory import Reading
from evdetect.model import ModelDims, ModelParams, mtr_forward
from evdetect.nn import AdamState, Hyper, adam_step
from evdetect.spot import ANOMALY, pot_calibrate, spot_step

T0 = datetime(2018, 1, 1)
SMALL = ModelDims(C=8, hidden=8, heads=2, lm=4, gm=12, e0=6, e1=3)


def _readings(values):
    return [Reading(T0 + timedelta(minutes=i), float(v)) for i, v in enumerate(values)]


def _detector(dims=SMALL, seed=0, calibration_len=150, q=1e-3):
    params = ModelParams(dims, seed=seed)
    stats = SeriesStats(mean=0.0, std=1.0, count=1)
    cfg = EngineConfig(lm=dims.lm, gm=dims.gm, q=q, calibration_len=calibration_len)
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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"refit_stride": 0},
        {"refit_stride": -2},
        {"max_peaks": 0},
        {"max_peaks": 1},
        # a count that is not an integer
        {"max_peaks": 2.5},
        {"refit_stride": 1.5},
        {"calibration_len": 600.0},
        {"lm": 8.0},
    ],
)
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

    def test_a_reading_at_a_refused_minute_is_an_error_event(self):
        det = _detector()
        readings = _readings(np.random.default_rng(11).normal(size=30))
        for r in readings:
            det.step(r)
        t = readings[-1].t + timedelta(minutes=1)
        assert det.step(Reading(t, math.nan)).error is not None
        seen = det.stream.total_seen
        ev = det.step(Reading(t, 0.3))
        assert ev.error == f"reading at {t} is not newer than {t}" and ev.score is None
        assert det.stream.total_seen == seen and det.last_t == t

    def test_after_clear_windows_an_older_reading_is_an_error_event(self):
        det = _detector()
        readings = _readings(np.random.default_rng(12).normal(size=30))
        for r in readings:
            det.step(r)
        det.clear_windows()
        ev = det.step(readings[10])
        assert ev.error is not None and ev.phase == WARMUP
        assert not det.stream.readings and det.last_t == readings[-1].t

    @pytest.mark.parametrize("aware_first", [True, False], ids=["aware-then-naive", "naive-then-aware"])
    def test_a_reading_of_the_other_time_zone_kind_raises_value_error(self, aware_first):
        # as the CSV reader refuses mixed kinds within one file; `run` checks
        # before it measures the hole since `last_t`
        naive = _readings(np.random.default_rng(13).normal(size=40))
        aware = [r._replace(t=r.t.replace(tzinfo=timezone.utc)) for r in naive]
        first, then = (aware, naive) if aware_first else (naive, aware)
        det = _detector()
        for r in first[:30]:
            det.step(r)
        with pytest.raises(ValueError, match="naive and timezone-aware"):
            det.step(then[30])
        with pytest.raises(ValueError, match="naive and timezone-aware"):
            next(det.run(then[35:]))
        assert det.last_t == first[29].t and det.stream.total_seen == 30

    def test_non_finite_score_is_an_error_event(self, monkeypatch):
        det = _detector(calibration_len=100)
        readings = _readings(np.random.default_rng(4).normal(size=SMALL.lm + SMALL.gm + 120))
        for r in readings:
            det.step(r)
        spot, calib_scores = copy.deepcopy(det.spot), list(det.calib_scores)
        t = readings[-1].t + timedelta(minutes=1)
        # an accepted reading whose forward overflows
        monkeypatch.setattr(engine, "mtr_forward", lambda lm, *rest: np.full_like(lm, np.inf))
        ev = det.step(Reading(t, 1e60))
        assert ev == DetectionEvent(t, None, None, 0, DETECTING, "non-finite anomaly score")
        assert det.spot == spot and det.calib_scores == calib_scores
        assert det.stream.readings[-1] == Reading(t, 1e60)

    @pytest.mark.parametrize(
        "power, error",
        [
            (1e200, "out-of-range reading power 1e+200 (|z| > 1e+100)"),
            (-1e200, "out-of-range reading power -1e+200 (|z| > 1e+100)"),
            (1.000001e100, "out-of-range reading power 1.000001e+100 (|z| > 1e+100)"),
            (math.inf, "non-finite reading power inf"),
            (math.nan, "non-finite reading power nan"),
        ],
    )
    def test_huge_or_non_finite_reading_is_rejected(self, power, error):
        det = _detector(calibration_len=100)
        readings = _readings(np.random.default_rng(4).normal(size=SMALL.lm + SMALL.gm + 120))
        for r in readings:
            det.step(r)
        spot, seen = copy.deepcopy(det.spot), det.stream.total_seen
        t = readings[-1].t + timedelta(minutes=1)
        ev = det.step(Reading(t, power))
        assert ev == DetectionEvent(t, None, None, 0, DETECTING, error)
        assert det.spot == spot and det.stream.total_seen == seen

    def test_reading_at_z_1e99_is_scored(self):
        # the largest readings the guard lets through keep the forward finite
        det = _detector(calibration_len=100)
        rng = np.random.default_rng(5)
        readings = _readings(np.r_[rng.normal(size=SMALL.lm + SMALL.gm + 120), 1e99, rng.normal(size=SMALL.lm + SMALL.gm)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            events = [det.step(r) for r in readings]
        after = events[SMALL.lm + SMALL.gm + 120 :]
        assert all(e.error is None and math.isfinite(e.score) for e in after)
        assert after[0].score > 1e190

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


class TestRun:
    """`run` owns the gap rule: a hole of up to `MAX_FILL_MINUTES` missing
    minutes is stepped as filled readings of the windows' newest power, and a
    longer one clears the windows."""

    AT = SMALL.lm + SMALL.gm + 200  # detecting since calibration_len = 150 scores

    @classmethod
    def _holed(cls, hole):
        readings = _readings(np.random.default_rng(7).normal(size=cls.AT + 80))
        return readings[: cls.AT] + [r._replace(t=r.t + timedelta(minutes=hole)) for r in readings[cls.AT :]]

    @staticmethod
    def _fills(after, n, power):
        return [Reading(after + timedelta(minutes=j), power) for j in range(1, n + 1)]

    def test_a_hole_of_max_fill_minutes_repeats_the_newest_power(self):
        readings, at = self._holed(MAX_FILL_MINUTES), self.AT
        oracle = _detector()
        want = [oracle.step(r) for r in readings[:at] + self._fills(readings[at - 1].t, MAX_FILL_MINUTES, readings[at - 1].power) + readings[at:]]
        det = _detector()
        assert list(det.run(readings)) == want
        assert det.stream.readings == oracle.stream.readings and det.spot == oracle.spot

    def test_a_longer_hole_clears_the_windows(self):
        readings, at, span = self._holed(MAX_FILL_MINUTES + 1), self.AT, SMALL.lm + SMALL.gm
        oracle = _detector()
        want = [oracle.step(r) for r in readings[:at]]
        oracle.clear_windows()
        want += [oracle.step(r) for r in readings[at:]]
        events = list(_detector().run(readings))
        assert events == want
        assert [e.phase for e in events[at - 1 : at + span]] == [DETECTING] + [WARMUP] * (span - 1) + [DETECTING]

    def test_a_hole_is_measured_from_a_refused_reading(self):
        # the refused minute is not filled again; the fills repeat the power before it
        readings, at = self._holed(3), self.AT
        readings[at - 1] = readings[at - 1]._replace(power=math.nan)
        oracle = _detector()
        want = [oracle.step(r) for r in readings[:at] + self._fills(readings[at - 1].t, 3, readings[at - 2].power) + readings[at:]]
        assert [format_event(e) for e in _detector().run(readings)] == [format_event(e) for e in want]

    def test_a_hole_stays_unfilled_while_the_windows_hold_nothing(self):
        readings = _readings(np.random.default_rng(8).normal(size=60))
        readings = [readings[0]._replace(power=math.nan)] + readings[4:]
        det = _detector()
        assert [e.t for e in det.run(readings)] == [r.t for r in readings]
        assert list(det.stream.readings) == readings[1:][-(SMALL.lm + SMALL.gm) :]

    def test_step_keeps_the_newest_timestamp(self):
        det = _detector()
        readings = _readings(np.random.default_rng(9).normal(size=30))
        for r in readings:
            det.step(r)
        assert det.step(Reading(T0, 1.0)).error is not None
        assert det.last_t == readings[-1].t

    @pytest.mark.parametrize("saved", [True, False])
    def test_resume_at_a_hole_and_from_a_file_without_last_t(self, tmp_path, saved):
        # a file written before `last_t` was saved resumes from its newest reading
        readings, at = self._holed(5), self.AT
        whole = [format_event(e) for e in _detector().run(readings)]
        det = _detector()
        head = [format_event(e) for e in det.run(readings[:at])]
        det.save(tmp_path / "engine.npz")
        meta, arrays = ckpt.read_container(tmp_path / "engine.npz", ckpt.ENGINE_FORMAT)
        assert meta["stream"]["last_t"] == readings[at - 1].t.isoformat()
        if not saved:
            del meta["stream"]["last_t"]
            ckpt.write_container(tmp_path / "engine.npz", ckpt.ENGINE_FORMAT, meta, arrays)
        resumed = OnlineDetector.load(tmp_path / "engine.npz")
        assert resumed.last_t == readings[at - 1].t
        assert head + [format_event(e) for e in resumed.run(readings[at:])] == whole


class TestEnc1LogitFolds:
    """enc1's cross-attention logits over the global window, folded per model
    into a scale and an offset that a step applies to the window's readings."""

    def test_positional_logit_shape(self):
        scale, offset = ModelParams(SMALL, seed=4).folds().enc1_logits
        assert scale.shape == (SMALL.e0, SMALL.heads, 1)
        # per query token, its heads side by side: one positional entry per window slot
        assert offset.shape == (SMALL.e0, SMALL.heads, SMALL.gm)

    def test_rebuild_bit_identical(self):
        params = ModelParams(SMALL, seed=5)
        a, b = params.folds(), params.folds()
        assert a is not b  # a writable model folds its weights on each call
        np.testing.assert_array_equal(a.fixed_queries, b.fixed_queries)
        for x, y in zip(a.enc1_logits, b.enc1_logits):
            np.testing.assert_array_equal(x, y)

    def test_cached_logits_match_fresh_within_1e12(self):
        det = _detector(seed=6)
        rng = np.random.default_rng(7)
        for r in _readings(rng.normal(size=SMALL.lm + SMALL.gm + 5)):
            det.step(r)
        folds = det.params.folds()
        _, gm_read = det.stream.snapshot()
        gm_norm = normalize([r.power for r in gm_read], det.stats)
        scale, offset = folds.enc1_logits
        got = gm_norm * scale + offset
        # the benchmark's view indexes the heads first
        np.testing.assert_array_equal(det.cache.assemble_logits(), got.swapaxes(0, 1))

        # from-scratch logits over the live global window
        p = det.params
        feats = gm_norm[:, None] @ p.embed_w.data + p.embed_b.data + p.pos_gm
        d = SMALL.C // SMALL.heads
        for k, (wq, wk) in enumerate(zip(p.enc1.cross_attn.wq, p.enc1.cross_attn.wk)):
            q = folds.fixed_queries @ wq.data
            key = feats @ wk.data
            fresh = q @ key.T / math.sqrt(d)
            np.testing.assert_allclose(got[:, k], fresh, atol=1e-12)


def _windows(det):
    lm_read, gm_read = det.stream.snapshot()
    return tuple(normalize(np.array([r.power for r in w]), det.stats) for w in (lm_read, gm_read))


class TestFoldedForward:
    """The cached forward runs every attention on the model's folded per-head
    products; it equals the plain forward to rounding."""

    @pytest.mark.parametrize(
        "dims",
        [
            pytest.param(ModelDims(heads=2), id="2"),
            pytest.param(ModelDims(heads=1), id="1"),
            pytest.param(ModelDims(heads=4), id="4"),
            # an FFN wider than C, an odd head count, other query-token counts
            pytest.param(ModelDims(C=6, hidden=12, heads=3, e0=12, e1=4), id="C6-hidden12-heads3"),
        ],
    )
    def test_cached_matches_plain_after_the_window_slides(self, dims):
        det = _detector(dims, seed=40 + dims.heads)
        rng = np.random.default_rng(41)
        readings = _readings(rng.normal(size=dims.lm + 3 * dims.gm))
        for k, r in enumerate(readings):
            det.step(r)
            if k >= dims.lm + dims.gm - 1:
                lm, gm = _windows(det)
                want = mtr_forward(lm, gm, det.params)
                np.testing.assert_allclose(mtr_forward(lm, gm, det.params, det.params.folds()), want, rtol=0, atol=1e-12)
        # the last comparisons ran after the global window had turned over twice
        assert len(readings) - dims.lm > 2 * dims.gm

    def test_rebuilt_after_adam_step_matches_new_plain_forward(self):
        params = ModelParams(ModelDims(), seed=42)
        rng = np.random.default_rng(43)
        lm, gm = rng.normal(size=8), rng.normal(size=32)

        def cached():
            return mtr_forward(lm, gm, params, params.folds())

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
        # the cached detector against the batched plain forward over the same
        # windows, with SPOT driven by the reference scores
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(size=900), rng.normal(loc=6.0, size=30), rng.normal(size=300)])
        det = _detector(seed=12, calibration_len=400)
        events = [det.step(r) for r in _readings(values)][SMALL.lm + SMALL.gm - 1 :]
        w = sliding_windows(values, SMALL.lm, SMALL.gm)
        ref = np.mean((w.lm_windows - mtr_forward(w.lm_windows, w.gm_windows, det.params)) ** 2, axis=1)
        np.testing.assert_allclose([e.score for e in events], ref, rtol=0, atol=1e-12)
        spot = pot_calibrate(ref[:400], q=1e-3)
        want = [0] * 400 + [int(spot_step(spot, s) == ANOMALY) for s in ref[400:]]
        assert [e.label for e in events] == want
        assert [e.phase for e in events] == [CALIBRATING] * 400 + [DETECTING] * (len(ref) - 400)
        assert sum(want) > 0

    def test_anomalies_fire_on_injected_block(self):
        rng = np.random.default_rng(13)
        values = np.concatenate([rng.normal(size=800), np.full(40, 9.0), rng.normal(size=100)])
        det = _detector(seed=14, calibration_len=400, q=1e-3)
        labels = [det.step(r).label for r in _readings(values)]
        assert sum(labels[800:840]) >= 20


class TestCheckpointResume:
    def test_resume_mid_stream_identical_events(self, tmp_path):
        rng = np.random.default_rng(15)
        values = rng.normal(size=1000)
        values[700:705] += 8.0
        readings = _readings(values)

        det_full = _detector(seed=16, calibration_len=300)
        full_events = [format_event(det_full.step(r)) for r in readings]

        det_a = _detector(seed=16, calibration_len=300)
        for r in readings[:600]:
            det_a.step(r)
        det_a.save(tmp_path / "engine.npz")
        det_b = OnlineDetector.load(tmp_path / "engine.npz")
        resumed = [format_event(det_b.step(r)) for r in readings[600:]]
        assert resumed == full_events[600:]

    def test_loaded_peaks_are_an_owned_float64_array(self, tmp_path):
        # a view into the file's bytes would keep all of them alive
        det = _detector(seed=16, calibration_len=300)
        for r in _readings(np.random.default_rng(15).normal(size=600)):
            det.step(r)
        det.save(tmp_path / "engine.npz")
        peaks = OnlineDetector.load(tmp_path / "engine.npz").spot.peaks
        assert peaks.dtype == np.float64 and peaks.size == len(det.spot.peaks) > 0
        assert peaks.base is None and peaks.flags.writeable

    @pytest.mark.parametrize("switch", [True, False])
    def test_files_with_the_old_cache_switch_load_and_continue(self, tmp_path, switch):
        # older engine files carry `cache_enabled` in their config; every
        # detector now runs the cached forward, so the switch is read and ignored
        readings = _readings(np.random.default_rng(19).normal(size=600))
        det = _detector(seed=16, calibration_len=300)
        full = [format_event(det.step(r)) for r in readings]
        det = _detector(seed=16, calibration_len=300)
        for r in readings[:450]:
            det.step(r)
        det.save(tmp_path / "new.npz")
        meta, arrays = ckpt.read_container(tmp_path / "new.npz", ckpt.ENGINE_FORMAT)
        for key, path in (("cache_enabled", tmp_path / "old.npz"), ("cache_enable", tmp_path / "typo.npz")):
            ckpt.write_container(path, ckpt.ENGINE_FORMAT, {**meta, "config": {**meta["config"], key: switch}}, arrays)
        old = OnlineDetector.load(tmp_path / "old.npz")
        assert [format_event(old.step(r)) for r in readings[450:]] == full[450:]
        with pytest.raises(ValueError, match="malformed"):
            OnlineDetector.load(tmp_path / "typo.npz")

    def test_files_with_fill_flags_load_and_continue(self, tmp_path):
        # older engine files carry `stream.filled`; nothing reads the flags,
        # so a load ignores them
        readings = _readings(np.random.default_rng(20).normal(size=600))
        readings = readings[:440] + readings[443:]
        whole = [format_event(e) for e in _detector(seed=16, calibration_len=300).run(readings)]
        det = _detector(seed=16, calibration_len=300)
        head = [format_event(e) for e in det.run(readings[:447])]
        det.save(tmp_path / "new.npz")
        meta, arrays = ckpt.read_container(tmp_path / "new.npz", ckpt.ENGINE_FORMAT)
        assert "filled" not in meta["stream"]
        given = {r.t.isoformat() for r in readings}
        filled = [t not in given for t in meta["stream"]["t"]]
        assert sum(filled) == 3
        ckpt.write_container(tmp_path / "old.npz", ckpt.ENGINE_FORMAT, {**meta, "stream": {**meta["stream"], "filled": filled}}, arrays)
        old = OnlineDetector.load(tmp_path / "old.npz")
        assert head + [format_event(e) for e in old.run(readings[447:])] == whole

    def test_resume_during_warmup(self, tmp_path):
        det_a = _detector(seed=17)
        rng = np.random.default_rng(18)
        values = rng.normal(size=SMALL.lm + SMALL.gm + 200)
        readings = _readings(values)
        for r in readings[:5]:
            det_a.step(r)
        det_a.save(tmp_path / "engine.npz")
        det_b = OnlineDetector.load(tmp_path / "engine.npz")
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


RESTORE_LEN = RESUME_WARMUP + RESUME_CALIB + 30


@functools.lru_cache(maxsize=None)
def _restore_model(heads, e0):
    return ModelParams(ModelDims(C=8, hidden=8, heads=heads, lm=4, gm=12, e0=e0, e1=3), seed=40 + heads)


class TestLoadRestoresReplayState:
    """`OnlineDetector.load` restores the saved windows; its state equals, bit
    for bit, pushing the saved readings one at a time (the oracle below)."""

    @staticmethod
    def _replayed(det):
        oracle = OnlineDetector(det.params, det.stats, det.config)
        for r in det.stream.readings:
            oracle.stream.push(r)
        oracle.stream.total_seen = det.stream.total_seen
        return oracle

    # in warmup, with gm partly filled, both windows full, calibrating,
    # detecting, and after clear_windows() with 0 to lm+gm+4 readings since
    @given(
        cut=st.sampled_from([0, 1, SMALL.lm, SMALL.lm + 5, RESUME_WARMUP, RESUME_WARMUP + 1, RESTORE_LEN])
        | st.integers(0, RESTORE_LEN),
        since_clear=st.none() | st.sampled_from([0, 1, SMALL.lm + 1]) | st.integers(0, SMALL.lm + SMALL.gm + 4),
        heads=st.sampled_from([1, 2, 4]),
        e0=st.sampled_from([6, 11]),
    )
    def test_loaded_state_equals_per_reading_replay(self, tmp_path_factory, cut, since_clear, heads, e0):
        params = _restore_model(heads, e0)
        cfg = EngineConfig(lm=SMALL.lm, gm=SMALL.gm, q=1e-3, calibration_len=RESUME_CALIB)
        det = OnlineDetector(params, SeriesStats(mean=0.3, std=1.7, count=1), cfg)
        readings = _readings(np.random.default_rng(cut).normal(size=RESTORE_LEN + SMALL.lm + SMALL.gm + 4))
        for r in readings[:cut]:
            det.step(r)
        if since_clear is not None:
            det.clear_windows()
            for r in readings[cut : cut + since_clear]:
                det.step(r)
        path = tmp_path_factory.getbasetemp() / "restore.npz"
        det.save(path)
        loaded, oracle = OnlineDetector.load(path), self._replayed(det)

        assert loaded.stream.readings == oracle.stream.readings
        assert loaded.stream.snapshot() == oracle.stream.snapshot()
        assert loaded.stream.total_seen == oracle.stream.total_seen == det.stream.total_seen
        assert loaded.phase == det.phase
        assert loaded.spot == det.spot
        assert loaded.calib_scores == det.calib_scores


def _calibrated_detector(dims=SMALL, seed=30, n=RESUME_WARMUP + RESUME_CALIB + 30, calibration_len=RESUME_CALIB):
    det = OnlineDetector(
        ModelParams(dims, seed=seed),
        SeriesStats(mean=0.0, std=1.0, count=1),
        EngineConfig(lm=dims.lm, gm=dims.gm, q=1e-3, calibration_len=calibration_len),
    )
    for r in _readings(np.random.default_rng(seed + 1).normal(size=n)):
        det.step(r)
    # SPOT is fitted, and nothing keeps its calibration scores
    assert det.phase == DETECTING and det.calib_scores == []
    return det


class TestSharedModel:
    """Detectors of one model share its weights and folds, read-only; each
    owns only its stream windows and SPOT state."""

    @staticmethod
    def _loads(tmp_path, det, k=3):
        path = tmp_path / "shared.npz"
        det.save(path)
        return [OnlineDetector.load(path) for _ in range(k)]

    def test_loads_share_the_model_and_the_folds_not_the_meter_state(self, tmp_path):
        dets = self._loads(tmp_path, _calibrated_detector())
        first = dets[0]
        for det in dets[1:]:
            assert det.params is first.params
            for name in ("fixed_queries", "enc1_logits", "enc1_residual", "enc2_vo", "dec_head"):
                assert getattr(det.params.folds(), name) is getattr(first.params.folds(), name)
            assert det.stream is not first.stream and det.spot is not first.spot
            assert det.spot == first.spot and det.spot.peaks is not first.spot.peaks

    def test_shared_detectors_match_solo_ones(self, tmp_path):
        source = _calibrated_detector()
        dets = self._loads(tmp_path, source)
        # a deep copy shares the model and folds, and owns its meter state
        solos = [copy.deepcopy(source) for _ in dets]
        assert solos[0].params is dets[0].params
        assert solos[0].params.folds().enc1_logits is dets[0].params.folds().enc1_logits
        assert solos[0].stream is not source.stream
        t = source.stream.readings[-1].t
        streams = np.random.default_rng(31).normal(size=(len(dets), 150))
        streams[1, 60:64] += 8.0
        shared = [[] for _ in dets]
        for k in range(streams.shape[1]):  # lock-step ticks, as a fleet runs
            for i, det in enumerate(dets):
                shared[i].append(format_event(det.step(Reading(t + timedelta(minutes=k + 1), streams[i, k]))))
        for i, solo in enumerate(solos):
            alone = [format_event(solo.step(Reading(t + timedelta(minutes=k + 1), v))) for k, v in enumerate(streams[i])]
            assert shared[i] == alone
        assert shared[0] != shared[1]

    def test_one_ulp_weight_change_gets_its_own_model(self, tmp_path):
        det = _calibrated_detector()
        base = self._loads(tmp_path, det, k=1)[0]
        nudged = copy.deepcopy(det.params)
        nudged.vector[7] = np.nextafter(nudged.vector[7], np.inf)
        det = OnlineDetector(nudged, det.stats, det.config)
        path = tmp_path / "ulp.npz"
        det.save(path)
        other = OnlineDetector.load(path)
        assert other.params is not base.params
        assert other.params.vector[7] != base.params.vector[7]
        assert other.params.folds().dec_self[0] is not base.params.folds().dec_self[0]
        assert other.params.folds().dec_self[0] is det.params.folds().dec_self[0]

    def test_writes_to_the_callers_weights_never_reach_the_detector(self):
        # an in-place Adam step on the weights a detector was built from, mid-stream
        dims = ModelDims()
        params = ModelParams(dims, seed=33)
        untouched = copy.deepcopy(params)
        stats = SeriesStats(mean=0.0, std=1.0, count=1)
        cfg = EngineConfig(lm=dims.lm, gm=dims.gm, q=1e-3, calibration_len=100)
        det, twin = OnlineDetector(params, stats, cfg), OnlineDetector(untouched, stats, cfg)
        readings = _readings(np.random.default_rng(34).normal(size=400))
        for r in readings[:150]:
            det.step(r)
            twin.step(r)
        grads = [np.random.default_rng(35).normal(size=params.vector.size)]
        adam_step([params.vector], grads, AdamState.for_params([params.vector]), Hyper(learning_rate=1e-2))
        assert not np.array_equal(params.vector, untouched.vector)
        events = [format_event(det.step(r)) for r in readings[150:]]
        assert events == [format_event(twin.step(r)) for r in readings[150:]]
        assert DETECTING in events[-1]

    def test_shared_weights_and_folds_refuse_writes(self, tmp_path):
        det = self._loads(tmp_path, _calibrated_detector(), k=1)[0]
        with pytest.raises(ValueError, match="read-only"):
            det.params.vector[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            det.params.enc1.w1.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            det.params.enc1.cross_attn.wq_all[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            det.params.folds().enc1_logits[1][0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            det.params.folds().dec_cross[1][...] = 0.0

    def test_deep_copy_of_a_detector_keeps_the_read_only_model(self):
        det = _calibrated_detector()
        solo = copy.deepcopy(det)
        with pytest.raises(ValueError, match="read-only"):
            solo.params.vector[0] += 1e-2
        t = det.stream.readings[-1].t
        readings = [Reading(t + timedelta(minutes=k + 1), v) for k, v in enumerate(np.random.default_rng(36).normal(size=200))]
        assert [format_event(solo.step(r)) for r in readings] == [format_event(det.step(r)) for r in readings]

    def test_a_load_hashes_its_weights_once(self, tmp_path, monkeypatch):
        path = tmp_path / "hash.npz"
        _calibrated_detector().save(path)
        shared, calls = ModelParams.shared.__func__, []
        monkeypatch.setattr(ModelParams, "shared", classmethod(lambda cls, *a: calls.append(a) or shared(cls, *a)))
        for _ in range(3):
            OnlineDetector.load(path)
        assert len(calls) == 3

    def test_deep_copy_of_shared_params_is_writable(self, tmp_path):
        det = self._loads(tmp_path, _calibrated_detector(), k=1)[0]
        mine = copy.deepcopy(det.params)
        before = det.params.vector.copy()
        mine.vector[0] += 1.0
        mine.enc1.w1.data[0, 0] += 1.0
        np.testing.assert_array_equal(det.params.vector, before)

    def test_memos_hold_only_live_models(self, tmp_path):
        import gc
        import weakref

        dets = self._loads(tmp_path, _calibrated_detector(seed=32), k=2)
        model, folds = weakref.ref(dets[0].params), weakref.ref(dets[0].params.folds())
        del dets
        gc.collect()
        assert model() is None and folds() is None

    def test_loads_retain_only_meter_state(self, tmp_path):
        """Memory gate: each further load of one checkpoint (reference dims,
        1440 calibration scores) adds its stream and SPOT state and little
        else; a per-meter copy of the model (about 30 KiB), of the folds
        (55 KiB) or of the calibration scores (46 KiB) breaks the bound."""
        import gc
        import tracemalloc

        dims = ModelDims()
        det = _calibrated_detector(dims, n=dims.lm + dims.gm + 1440 + 60, calibration_len=1440)
        path = tmp_path / "gate.npz"
        det.save(path)
        del det
        keep = [OnlineDetector.load(path)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep += [OnlineDetector.load(path) for _ in range(9)]
            gc.collect()
            per_meter = (tracemalloc.get_traced_memory()[0] - before) / 9
        finally:
            tracemalloc.stop()
        # 8 KiB measured: the stream, SPOT and objects
        bound = 24 * 1024
        assert per_meter <= bound, f"{per_meter:.0f} B retained per loaded meter, bound {bound} B"


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
class TestLogitFoldSpeed:
    def test_cached_logits_beat_from_scratch(self):
        # assembling logits from the folds must beat recomputing them from the
        # window features (which additionally pays the key projections)
        import time

        params = ModelParams(ModelDims(C=8, hidden=8, heads=2, lm=8, gm=256, e0=16, e1=8), seed=21)
        folds = params.folds()
        scale, offset = folds.enc1_logits
        gm_norm = np.random.default_rng(1).normal(size=256)

        def from_scratch():
            feats = gm_norm[:, None] @ params.embed_w.data + params.embed_b.data + params.pos_gm
            ap = params.enc1.cross_attn
            return [
                (folds.fixed_queries @ wq.data) @ (feats @ wk.data).T / 2.0
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

        t_cache = best_of(lambda: gm_norm * scale + offset)
        t_fresh = best_of(from_scratch)
        assert t_cache < t_fresh, f"cache {t_cache:.5f}s not faster than fresh {t_fresh:.5f}s"
