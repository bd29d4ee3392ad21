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
from evdetect.model import ModelDims, ModelParams, _embed, folded_attention, mtr_forward, score_windows
from evdetect.nn import AdamState, Hyper, adam_step
from evdetect.spot import ANOMALY, pot_calibrate, spot_step

T0 = datetime(2018, 1, 1)
SMALL = ModelDims(C=8, hidden=8, heads=2, lm=4, gm=12, e0=6, e1=3)


def _readings(values):
    return [Reading(T0 + timedelta(minutes=i), float(v)) for i, v in enumerate(values)]


def _held(stream) -> list[Reading]:
    """The readings a stream holds, oldest first: its timestamps with the
    last len(times) entries of its power array."""
    return list(map(Reading, stream.times, stream.power[stream.power.size - len(stream.times) :].tolist()))


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
        # a bool is an int, but not a count
        {"refit_stride": True},
        {"calibration_len": True},
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
        assert not det.stream.times and det.last_t == readings[-1].t

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
        assert _held(det.stream)[-1] == Reading(t, 1e60)

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
        assert _held(det.stream) == _held(oracle.stream) and det.spot == oracle.spot

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
        assert _held(det.stream) == readings[1:][-(SMALL.lm + SMALL.gm) :]

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
    """enc1's cross-attention over the global window: its per-head queries
    and residual, folded per model, against the embedded window."""

    def test_positional_logit_shape(self):
        queries, residual, vo, ones = ModelParams(SMALL, seed=4).folds().enc1
        # per query token, its heads' rows in turn
        assert queries.shape == (SMALL.e0 * SMALL.heads, SMALL.C)
        assert residual.shape == (SMALL.e0, 2 * SMALL.C)
        # the heads' value-output products stacked, as `folded_attention` takes them
        assert vo.shape == (SMALL.heads * SMALL.C, 2 * SMALL.C)
        # ones of the memory's shape, the embedded global window's
        np.testing.assert_array_equal(ones, np.ones((SMALL.gm, SMALL.C)))

    def test_rebuild_bit_identical(self):
        params = ModelParams(SMALL, seed=5)
        a, b = params.folds(), params.folds()
        assert a is not b  # a writable model folds its weights on each call
        np.testing.assert_array_equal(a.fixed_queries, b.fixed_queries)
        for x, y in zip(a.enc1 + a.enc2, b.enc1 + b.enc2):
            np.testing.assert_array_equal(x, y)

    def test_cached_logits_match_fresh_within_1e12(self):
        det = _detector(seed=6)
        rng = np.random.default_rng(7)
        for r in _readings(rng.normal(size=SMALL.lm + SMALL.gm + 5)):
            det.step(r)
        folds = det.params.folds()
        _, gm_read = det.stream.snapshot()
        gm_norm = normalize([r.power for r in gm_read], det.stats)
        p = det.params
        # the step's logits, a row per memory entry and a column per query
        # and head, each query's heads in turn
        step = _embed(gm_norm, p.pos_gm, p).dot(folds.enc1[0].T)
        assert step.shape == (SMALL.gm, SMALL.e0 * SMALL.heads)
        got = step.T.reshape(SMALL.e0, SMALL.heads, SMALL.gm)
        # the benchmark's view indexes the heads first
        np.testing.assert_array_equal(det.cache.assemble_logits(), got.swapaxes(0, 1))

        # from-scratch logits over the live global window
        feats = gm_norm[:, None] @ p.embed_w.data + p.embed_b.data + p.pos_gm
        d = SMALL.C // SMALL.heads
        for k, (wq, wk) in enumerate(zip(p.enc1.cross_attn.wq, p.enc1.cross_attn.wk)):
            q = folds.fixed_queries @ wq.data
            key = feats @ wk.data
            fresh = q @ key.T / math.sqrt(d)
            np.testing.assert_allclose(got[:, k], fresh, atol=1e-12)


class TestFoldedAttention:
    """`folded_attention` against the explicit sum over heads,
    sum_h softmax(x qk_h m^T) m vo_h."""

    @pytest.mark.parametrize(
        "dims",
        [
            pytest.param(ModelDims(heads=2), id="2"),
            pytest.param(ModelDims(heads=1), id="1"),
            pytest.param(ModelDims(heads=4), id="4"),
            pytest.param(ModelDims(C=6, hidden=12, heads=3, e0=12, e1=4), id="C6-hidden12-heads3"),
        ],
    )
    @pytest.mark.parametrize("scale", [1.0, engine.MAX_ABS_Z], ids=["unit", "max-abs-z"])
    def test_matches_the_sum_over_heads_within_1e12(self, dims, scale):
        C, h, w = dims.C, dims.heads, 2 * dims.C
        rng = np.random.default_rng(50 + h)
        x = rng.normal(size=(dims.e0, C))
        qk, vo = rng.normal(size=(h, C, C)), rng.normal(size=(h, C, w))
        memory = scale * rng.uniform(-1.0, 1.0, size=(dims.gm, C))
        residual = rng.normal(size=(dims.e0, w))

        want = residual.copy()
        for qk_h, vo_h in zip(qk, vo):
            logits = x @ qk_h @ memory.T
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            want += (e / e.sum(axis=1, keepdims=True)) @ memory @ vo_h

        # each query's h rows in turn, the heads' vo stacked, and ones of the memory's shape
        queries = (x @ qk).swapaxes(0, 1).reshape(-1, C)
        got = folded_attention(memory, queries, residual, vo.reshape(h * C, w), np.ones_like(memory))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


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


@functools.lru_cache(maxsize=None)
def _shared_model(heads):
    dims = ModelDims(heads=heads)
    return ModelParams.shared(dims, ModelParams(dims, seed=46 + heads).vector)


# both windows of the reference dims, global first
SPAN = ModelDims().gm + ModelDims().lm


# window values: a few repeated ones, so windows hold ties and runs, and any
# others up to |z| = 1e6
_window_values = st.sampled_from([0.0, 1.0, -1.0, 2.5]) | st.floats(-1e6, 1e6, allow_nan=False)


class TestFastPathLayout:
    """The cached branch reads tables laid out for numpy's same-shape fast
    path; they must still give the plain forward's reconstruction."""

    # 1e99 sits just inside the engine's |z| bound: a logit that large makes
    # every softmax's max shift decide which weights survive
    @given(
        heads=st.sampled_from([1, 2, 4]),
        window=st.lists(_window_values, min_size=SPAN, max_size=SPAN),
        huge=st.none() | st.tuples(st.integers(0, SPAN - 1), st.sampled_from([1e99, -1e99])),
    )
    def test_cached_matches_plain_within_1e12(self, heads, window, huge):
        params = _shared_model(heads)
        values = np.array(window)
        if huge is not None:
            values[huge[0]] = huge[1]
        gm, lm = values[: params.dims.gm], values[params.dims.gm :]
        want = mtr_forward(lm, gm, params)
        assert np.all(np.isfinite(want))
        np.testing.assert_allclose(mtr_forward(lm, gm, params, params.folds()), want, rtol=0, atol=1e-12)

    @staticmethod
    def _arrays(folds):
        for name, value in vars(folds).items():
            for k, a in enumerate(value if isinstance(value, tuple) else (value,)):
                yield f"{name}[{k}]", a

    @pytest.mark.parametrize("writable", [False, True], ids=["shared", "writable-model"])
    def test_every_table_is_contiguous_and_refuses_writes(self, writable):
        params = ModelParams(ModelDims(), seed=47) if writable else _shared_model(2)
        for name, a in self._arrays(params.folds()):
            assert a.flags.c_contiguous, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_bias_tables_are_their_biases_tiled(self):
        params = _shared_model(2)
        dims, folds = params.dims, params.folds()
        C = dims.C

        def wide(bias, n):  # a norm's wide output: zeros under the centred half
            return np.tile(np.concatenate([np.zeros(C), bias]), (n, 1))

        for block, n, ffn in ((params.enc1, dims.e0, folds.enc1_ffn), (params.enc2, dims.e1, folds.enc2_ffn), (params.dec, dims.lm, folds.dec_ffn)):
            ln2_bias, _, b1, _, b2 = ffn
            np.testing.assert_array_equal(ln2_bias, wide(block.ln2.bias.data, n))
            np.testing.assert_array_equal(b1, np.tile(block.b1.data, (n, 1)))
            np.testing.assert_array_equal(b2, wide(block.b2.data, n))
        np.testing.assert_array_equal(folds.enc1_ln3[1], wide(params.enc1.ln3.bias.data, dims.e0))
        np.testing.assert_array_equal(folds.enc2_ln3[1], wide(params.enc2.ln3.bias.data, dims.e1))
        np.testing.assert_array_equal(folds.dec_ln1, wide(params.dec.ln1.bias.data, dims.lm))
        constant = params.dec.ln3.bias.data @ params.head_w.data + params.head_b.data
        np.testing.assert_array_equal(folds.dec_head[2], np.full(dims.lm, constant[0]))


@pytest.mark.parametrize("n", [1, 3])
def test_folded_forward_refuses_a_batch_naming_the_shapes(n):
    params = ModelParams(SMALL, seed=44)
    lm, gm = np.zeros((n, SMALL.lm)), np.zeros((n, SMALL.gm))
    with pytest.raises(ValueError, match=rf"one window.*local \({n}, {SMALL.lm}\).*global \({n}, {SMALL.gm}\)"):
        mtr_forward(lm, gm, params, params.folds())
    # one 1-D window alongside a batched one is refused as well
    with pytest.raises(ValueError, match=rf"local \({SMALL.lm},\)"):
        mtr_forward(lm[0], gm, params, params.folds())


@pytest.mark.parametrize("folded", [False, True], ids=["plain", "folded"])
@pytest.mark.parametrize(
    "lm_len, gm_len",
    [(None, SMALL.gm), (SMALL.lm, None), (SMALL.lm - 1, SMALL.gm), (SMALL.lm, SMALL.gm - 1)],
    ids=["scalar-local", "scalar-global", "local-one-short", "global-one-short"],
)
def test_forward_refuses_a_window_of_the_wrong_length(folded, lm_len, gm_len):
    # None stands for a 0-d window: a scalar has no length to compare
    params = ModelParams(SMALL, seed=45)
    lm, gm = (np.float64(1.0) if n is None else np.zeros(n) for n in (lm_len, gm_len))
    with pytest.raises(ValueError, match="^window lengths do not match model dims$"):
        mtr_forward(lm, gm, params, params.folds() if folded else None)


class TestDualRunEquivalence:
    def test_labels_and_scores_match(self):
        # the cached detector against the batched plain forward over the same
        # windows, with SPOT driven by the reference scores
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(size=900), rng.normal(loc=6.0, size=30), rng.normal(size=300)])
        det = _detector(seed=12, calibration_len=400)
        events = [det.step(r) for r in _readings(values)][SMALL.lm + SMALL.gm - 1 :]
        w = sliding_windows(values, SMALL.lm, SMALL.gm)
        ref = score_windows(w.lm_windows, w.gm_windows, det.params)
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
        for r in _held(det.stream):
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

        assert loaded.stream.times == oracle.stream.times
        assert loaded.stream.power.tobytes() == oracle.stream.power.tobytes()
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


class TestSpotCounts:
    """A load refuses SPOT counts that calibration and `spot_step` never
    leave, peaks held <= n_peaks_total <= k, naming the file and the field."""

    @staticmethod
    def _edited(tmp_path, det, edit):
        path = tmp_path / "counts.npz"
        det.save(path)
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        edit(meta["spot"], arrays)
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)
        return path

    @pytest.mark.parametrize("total", [lambda k: k + 1, lambda k: 10**6], ids=["k+1", "1e6"])
    def test_more_peaks_counted_than_scores_seen_is_refused(self, tmp_path, total):
        det = _calibrated_detector()
        k = det.spot.k
        path = self._edited(tmp_path, det, lambda spot, arrays: spot.update(n_peaks_total=total(k)))
        with pytest.raises(ValueError, match=rf"^{path}: spot n_peaks_total {total(k)} exceeds k {k}, the scores seen$"):
            OnlineDetector.load(path)

    def test_more_peaks_held_than_counted_is_refused(self, tmp_path):
        det = _calibrated_detector()
        n = det.spot.n_peaks_total
        path = self._edited(tmp_path, det, lambda spot, arrays: arrays.update(peaks=np.append(arrays["peaks"], 0.5)))
        with pytest.raises(ValueError, match=rf"^{path}: spot peaks holds {n + 1} excesses, more than n_peaks_total {n}$"):
            OnlineDetector.load(path)

    def test_counts_at_their_bounds_load_and_step(self, tmp_path):
        # every score a peak, and every peak counted still held
        det = _calibrated_detector()
        path = self._edited(tmp_path, det, lambda spot, arrays: spot.update(n_peaks_total=spot["k"]))
        loaded = OnlineDetector.load(path)
        assert loaded.spot.n_peaks_total == loaded.spot.k
        t = det.stream.times[-1]
        for k, v in enumerate(np.random.default_rng(37).normal(size=50)):
            assert loaded.step(Reading(t + timedelta(minutes=k + 1), v)).error is None

    def test_a_file_saved_at_calibration_may_hold_more_peaks_than_max_peaks(self, tmp_path):
        # calibration keeps every excess; only `spot_step` trims to max_peaks
        cfg = EngineConfig(lm=SMALL.lm, gm=SMALL.gm, q=1e-3, calibration_len=RESUME_CALIB, max_peaks=2)
        readings = _readings(np.random.default_rng(38).normal(size=RESUME_WARMUP + RESUME_CALIB + 60))
        whole = OnlineDetector(ModelParams(SMALL, seed=39), SeriesStats(mean=0.0, std=1.0, count=1), cfg)
        want = [format_event(whole.step(r)) for r in readings]
        det = OnlineDetector(ModelParams(SMALL, seed=39), SeriesStats(mean=0.0, std=1.0, count=1), cfg)
        cut = RESUME_WARMUP + RESUME_CALIB
        head = [format_event(det.step(r)) for r in readings[:cut]]
        assert det.phase == DETECTING and det.spot.peaks.size > det.spot.max_peaks
        det.save(tmp_path / "calibrated.npz")
        resumed = OnlineDetector.load(tmp_path / "calibrated.npz")
        assert head + [format_event(resumed.step(r)) for r in readings[cut:]] == want


class TestSavedPowers:
    """A load refuses a saved stream power that `step` refuses, naming the
    first one in the file's order."""

    @pytest.mark.parametrize(
        "bad, named",
        [
            pytest.param({0: math.nan}, "nan", id="nan-first"),
            pytest.param({-1: math.nan}, "nan", id="nan-last"),
            pytest.param({5: 1e200}, "1e+200", id="huge"),
            pytest.param({5: -1e200}, "-1e+200", id="huge-negative"),
            pytest.param({3: 1e200, 9: math.nan}, "1e+200", id="huge-before-nan"),
            pytest.param({3: math.nan, 9: -1e200}, "nan", id="nan-before-huge"),
        ],
    )
    def test_a_power_step_refuses_is_refused_by_name(self, tmp_path, bad, named):
        path = tmp_path / "powers.npz"
        _calibrated_detector().save(path)
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        arrays["power"] = arrays["power"].copy()
        for at, value in bad.items():
            arrays["power"][at] = value
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)
        with pytest.raises(ValueError) as refused:
            OnlineDetector.load(path)
        assert str(refused.value) == f"{path}: stream power {named} is not finite or has |z| > 1e+100"

    def test_powers_at_the_bound_load(self, tmp_path):
        # |z| = MAX_ABS_Z exactly is what `step` keeps; std 1 and mean 0 make z the power
        path = tmp_path / "edge.npz"
        det = _calibrated_detector()
        det.save(path)
        meta, arrays = ckpt.read_container(path, ckpt.ENGINE_FORMAT)
        arrays["power"] = arrays["power"].copy()
        arrays["power"][[0, -1]] = engine.MAX_ABS_Z, -engine.MAX_ABS_Z
        ckpt.write_container(path, ckpt.ENGINE_FORMAT, meta, arrays)
        assert OnlineDetector.load(path).stream.power.tobytes() == arrays["power"].tobytes()


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
            for name in ("fixed_queries", "enc1", "enc2", "dec_head"):
                assert getattr(det.params.folds(), name) is getattr(first.params.folds(), name)
            assert det.stream is not first.stream and det.spot is not first.spot
            assert det.spot == first.spot and det.spot.peaks is not first.spot.peaks

    def test_shared_detectors_match_solo_ones(self, tmp_path):
        source = _calibrated_detector()
        dets = self._loads(tmp_path, source)
        # a deep copy shares the model and folds, and owns its meter state
        solos = [copy.deepcopy(source) for _ in dets]
        assert solos[0].params is dets[0].params
        assert solos[0].params.folds().enc1 is dets[0].params.folds().enc1
        assert solos[0].stream is not source.stream
        t = source.stream.times[-1]
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

    def test_loads_of_two_models_in_turn_get_each_files_weights(self, tmp_path):
        # A, B, A: the model handed out last is not the one asked for
        files = {}
        for name, seed in (("a", 40), ("b", 41)):
            files[name] = tmp_path / f"{name}.npz"
            _calibrated_detector(seed=seed).save(files[name])
        order = ["a", "b", "a", "b", "b"]
        dets = [OnlineDetector.load(files[name]) for name in order]
        for name, det in zip(order, dets):
            _, arrays = ckpt.read_container(files[name], ckpt.ENGINE_FORMAT)
            assert det.params.vector.tobytes() == arrays["params"].tobytes(), name
        assert dets[0].params is dets[2].params and dets[1].params is dets[3].params is dets[4].params
        assert dets[0].params is not dets[1].params

    def test_threads_loading_two_models_and_a_corrupt_copy_see_their_own_files(self, tmp_path):
        # the last model handed out and the last member verified are read as
        # one tuple each, so no thread pairs one file's bytes with another's
        import sys
        import threading

        files = {}
        for name, seed in (("a", 40), ("b", 41)):
            files[name] = tmp_path / f"{name}.npz"
            _calibrated_detector(seed=seed).save(files[name])
        want = {name: ckpt.read_container(path, ckpt.ENGINE_FORMAT)[1]["params"].tobytes() for name, path in files.items()}
        raw = bytearray(files["a"].read_bytes())
        raw[raw.find(want["a"]) + 100] ^= 0x01
        files["flipped"] = tmp_path / "flipped.npz"
        files["flipped"].write_bytes(bytes(raw))
        faults = []

        def worker(k):
            for i in range(40):
                name = ("a", "b", "flipped")[(i + k) % 3]
                try:
                    det = OnlineDetector.load(files[name])
                except ValueError as exc:
                    if name != "flipped" or "bad CRC-32 for member params.npy" not in str(exc):
                        faults.append((name, str(exc)))
                    continue
                if name == "flipped" or det.params.vector.tobytes() != want[name]:
                    faults.append((name, "loaded another file's weights"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert faults == []

    def test_one_weight_vector_under_two_dims_gives_two_models(self):
        # lm and gm change no weight count, so only the dims tell these apart
        dims = ModelDims()
        vector = ModelParams(dims, seed=42).vector
        for other in (ModelDims(gm=dims.gm + 1), ModelDims(lm=dims.lm - 1)):
            first = ModelParams.shared(dims, vector)
            second = ModelParams.shared(other, vector)
            assert second is not first
            assert (first.dims, second.dims) == (dims, other)
            assert second.vector.tobytes() == first.vector.tobytes()
            assert ModelParams.shared(other, vector) is second and ModelParams.shared(dims, vector) is first

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
            det.params.folds().enc1[0][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            det.params.folds().enc2[1][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            det.params.folds().dec_cross[1][...] = 0.0

    def test_deep_copy_of_a_detector_keeps_the_read_only_model(self):
        det = _calibrated_detector()
        solo = copy.deepcopy(det)
        with pytest.raises(ValueError, match="read-only"):
            solo.params.vector[0] += 1e-2
        t = det.stream.times[-1]
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
        (about 85 KiB traced) or of the calibration scores (46 KiB) breaks
        the bound."""
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
