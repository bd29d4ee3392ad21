"""Acceptance gate: one test per criterion, each printing a PASS line with its
measured quantities. Budgets and tolerances are asserted, not aspirational.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import multiprocessing
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from evdetect.data import SynthConfig, fit_stats, normalize, sliding_windows, synth_household
from evdetect.engine import DETECTING, EngineConfig, OnlineDetector
from evdetect.evaluation import confusion, precision_recall_f1, roc_auc
from evdetect.memory import Reading, StreamState
from evdetect.model import ModelDims, ModelParams, _trd, mtr_forward, mtr_forward_t, self_attend
from evdetect.nn import Hyper, Tensor, grad_check
from evdetect.spot import ANOMALY, pot_calibrate, spot_step
from evdetect.training import train

REFERENCE_DIMS = ModelDims(C=8, hidden=8, heads=2, lm=8, gm=32, e0=16, e1=8)
T0 = datetime(2018, 1, 1)


def _passed(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {detail}")


def _readings(values):
    return [Reading(T0 + timedelta(minutes=i), float(v)) for i, v in enumerate(values)]


def test_c01_incremental_inference_equivalence():
    # the cached engine against the batched reference forward over the same
    # windows, with labels from SPOT driven by the reference scores
    started = time.perf_counter()
    series = synth_household(SynthConfig(days=7, seed=301))
    values = series.powers[:10_000]
    stats = fit_stats(values[:2000])
    params = ModelParams(REFERENCE_DIMS, seed=31)
    cfg = EngineConfig(lm=8, gm=32, q=1e-4, calibration_len=1440)
    det = OnlineDetector(params, stats, cfg)
    events = [det.step(r) for r in _readings(values)][cfg.lm + cfg.gm - 1 :]

    w = sliding_windows(normalize(values, stats), cfg.lm, cfg.gm)
    ref = np.mean((w.lm_windows - mtr_forward(w.lm_windows, w.gm_windows, params)) ** 2, axis=1)
    spot = pot_calibrate(ref[: cfg.calibration_len], q=cfg.q, init_level=cfg.init_level)
    want = [0] * cfg.calibration_len + [int(spot_step(spot, s) == ANOMALY) for s in ref[cfg.calibration_len :]]
    label_flips = sum(e.label != lab for e, lab in zip(events, want))
    max_score_diff = float(np.max(np.abs(np.array([e.score for e in events]) - ref)))
    elapsed = time.perf_counter() - started

    assert len(events) == len(ref)
    assert label_flips == 0
    assert max_score_diff <= 1e-12
    assert elapsed < 120.0
    _passed(1, f"10k readings, labels identical ({sum(want)} alarms), max score diff {max_score_diff:.2e}, {elapsed:.1f}s")


def test_c02_gradient_correctness_full_model():
    started = time.perf_counter()
    dims = ModelDims(C=4, hidden=4, heads=2, lm=2, gm=4, e0=3, e1=2)
    params = ModelParams(dims, seed=32)
    rng = np.random.default_rng(33)
    lm = Tensor(rng.normal(size=(1, 2)))
    gm = Tensor(rng.normal(size=(1, 4)))

    def loss():
        rec = mtr_forward_t(lm, gm, params)
        diff = rec - lm
        return (diff * diff).mean_all()

    err = grad_check(loss, params.parameters(), delta=1e-4)
    elapsed = time.perf_counter() - started
    assert err < 1e-4
    assert elapsed < 30.0
    n_params = sum(p.data.size for p in params.parameters())
    _passed(2, f"max relative gradient error {err:.2e} over {n_params} parameters, {elapsed:.1f}s")


def test_c03_gpd_parameter_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(34)
    u = rng.uniform(size=5000)
    heavy = (2.0 / 0.3) * ((1.0 - u) ** -0.3 - 1.0)  # inverse CDF of GPD(0.3, 2)
    from evdetect.spot import grimshaw_fit

    fit = grimshaw_fit(heavy)
    assert abs(fit.gamma_hat - 0.3) <= 0.08
    assert abs(fit.sigma_hat - 2.0) <= 0.2

    u2 = rng.uniform(size=5000)
    expo = -np.log1p(-u2)  # inverse CDF of Exp(1)
    fit_exp = grimshaw_fit(expo)
    assert -0.1 <= fit_exp.gamma_hat <= 0.1
    assert 0.9 <= fit_exp.sigma_hat <= 1.1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(
        3,
        f"GPD(0.3,2): gamma {fit.gamma_hat:.3f}, sigma {fit.sigma_hat:.3f}; "
        f"Exp(1): gamma {fit_exp.gamma_hat:.3f}, {elapsed:.1f}s",
    )


def test_c04_quantile_formula():
    from evdetect.spot import GpdFit, gpd_quantile

    z_heavy = gpd_quantile(10.0, GpdFit(0.5, 2.0, 200), q=0.001, n=10000)
    z_limit = gpd_quantile(10.0, GpdFit(0.0, 2.0, 200), q=0.001, n=10000)
    assert abs(z_heavy - 23.8885) <= 1e-3
    assert abs(z_limit - 15.9915) <= 1e-3
    _passed(4, f"z_q heavy {z_heavy:.4f} (want 23.8885), log-limit {z_limit:.4f} (want 15.9915)")


def test_c05_spot_behavioral_and_replay():
    started = time.perf_counter()
    rng = np.random.default_rng(35)
    calib = rng.normal(size=2000)
    clean = rng.normal(size=10_000)
    spike_pos = set(int(i) for i in rng.choice(10_000, size=20, replace=False))
    spike_value = 10.0 * 3.0902  # 10x the 99.9% quantile of the score law

    state = pot_calibrate(calib, q=1e-4)
    spikes_caught = 0
    clean_alarms = 0
    traj_with = []
    for i in range(10_000):
        x = spike_value if i in spike_pos else float(clean[i])
        cls = spot_step(state, x)
        if cls == ANOMALY:
            if i in spike_pos:
                spikes_caught += 1
            else:
                clean_alarms += 1
        if i not in spike_pos:
            traj_with.append(state.z_q)

    state2 = pot_calibrate(calib, q=1e-4)
    traj_without = []
    for i in range(10_000):
        if i in spike_pos:
            continue
        spot_step(state2, float(clean[i]))
        traj_without.append(state2.z_q)

    elapsed = time.perf_counter() - started
    assert spikes_caught >= 19
    assert clean_alarms <= 0.005 * (10_000 - 20)
    assert traj_with == traj_without  # anomalies provably never mutate the fit
    assert elapsed < 60.0
    _passed(
        5,
        f"{spikes_caught}/20 spikes flagged, {clean_alarms} clean alarms "
        f"({clean_alarms / 9980:.4%}), replay trajectories identical, {elapsed:.1f}s",
    )


def test_c06_end_to_end_synthetic_detection():
    started = time.perf_counter()
    train_series = synth_household(SynthConfig(days=14, session_rate=0.0, seed=101))
    stats = fit_stats(train_series.powers)
    windows = sliding_windows(normalize(train_series.powers, stats), 8, 32, stride=3)
    params, report = train(
        windows, Hyper(learning_rate=1e-3, epochs=20, batch_size=64), seed=7, dims=REFERENCE_DIMS
    )

    detect_series = synth_household(SynthConfig(days=28, seed=202))
    labels = detect_series.labels
    guard = 8 + 32 - 1 + 1440
    assert labels[:guard].sum() == 0, "calibration prefix must be session-free"
    assert labels.sum() > 1000, "detection window must contain charging sessions"

    det = OnlineDetector(params, stats, EngineConfig(lm=8, gm=32, q=1e-4, calibration_len=1440))
    truth, preds, scores = [], [], []
    for i, r in enumerate(detect_series.iter_readings()):
        ev = det.step(r)
        if ev.phase == DETECTING:
            truth.append(int(labels[i]))
            preds.append(ev.label)
            scores.append(ev.score)

    p, r, f1 = precision_recall_f1(confusion(truth, preds))
    auc = roc_auc(truth, np.asarray(scores))
    elapsed = time.perf_counter() - started
    assert f1 >= 0.80
    assert auc >= 0.90
    assert elapsed < 600.0
    _passed(
        6,
        f"2wk train (loss {report.initial_loss:.3f}->{report.final_loss:.4f}), 4wk stream: "
        f"P {p:.3f} R {r:.3f} F1 {f1:.3f} AUC {auc:.4f}, {elapsed:.0f}s",
    )


def test_c07_throughput_headroom():
    series = synth_household(SynthConfig(days=3, seed=302))
    stats = fit_stats(series.powers[:1000])
    params = ModelParams(REFERENCE_DIMS, seed=36)
    det = OnlineDetector(params, stats, EngineConfig(lm=8, gm=32, q=1e-4, calibration_len=500))
    readings = _readings(series.powers)
    for r in readings[:600]:  # warm up into the detecting phase
        det.step(r)
    started = time.perf_counter()
    n = 2000
    for r in readings[600 : 600 + n]:
        det.step(r)
    mean_latency = (time.perf_counter() - started) / n
    assert mean_latency <= 0.12
    _passed(7, f"mean detect-step latency {mean_latency * 1000:.2f} ms (budget 120 ms)")


def test_c08_metrics_against_bruteforce_oracles():
    rng = np.random.default_rng(37)
    worst_auc_diff = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 150))
        labels = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties

        c = confusion(labels, preds)
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for y, q in zip(labels, preds):
            tally[("t" if y == q else "f") + ("p" if q == 1 else "n")] += 1
        assert (c.tp, c.fp, c.fn, c.tn) == (tally["tp"], tally["fp"], tally["fn"], tally["tn"])

        p, r, f1 = precision_recall_f1(c)
        assert p == (tally["tp"] / (tally["tp"] + tally["fp"]) if tally["tp"] + tally["fp"] else 0.0)
        assert r == (tally["tp"] / (tally["tp"] + tally["fn"]) if tally["tp"] + tally["fn"] else 0.0)

        if 0 < labels.sum() < n:
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            oracle = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)
            worst_auc_diff = max(worst_auc_diff, abs(roc_auc(labels, scores) - oracle))
    assert worst_auc_diff < 1e-12

    f1_published = 2 * 0.865 * 0.883 / (0.865 + 0.883)
    assert abs(f1_published - 0.874) < 1e-3
    _passed(
        8,
        f"1000 random vectors exact, worst AUC-oracle diff {worst_auc_diff:.1e}, "
        f"(0.865, 0.883) -> F1 {f1_published:.4f}",
    )


def test_c09_fifo_memory_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(38)
    checked = 0
    for _ in range(10_000):
        lm = int(rng.integers(1, 7))
        gm = int(rng.integers(lm + 1, 14))
        n = int(rng.integers(0, lm + gm + 25))
        state = StreamState(lm, gm)
        seq = [Reading(T0 + timedelta(minutes=i), float(rng.integers(0, 100))) for i in range(n)]
        for r in seq:
            state.push(r)
        snap = state.snapshot()
        if n < lm + gm:
            assert snap is None
        else:
            lm_win, gm_win = snap
            assert gm_win + lm_win == seq[-(lm + gm) :]
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 3000
    _passed(9, f"10000 random push sequences match the trailing-slice oracle, {elapsed:.1f}s")


def _encode(feats, p):
    """The array encoder inference runs: enc1 over the global window, then enc2."""
    stage1 = _trd(self_attend(p.enc1_queries.data, p.enc1), feats, p.enc1)
    return _trd(self_attend(p.enc2_queries.data, p.enc2), stage1, p.enc2)


def _c10_fit() -> tuple[float, float]:
    """Slope and R^2 of a straight line through the encoder's best wall time
    at each gm point."""

    def encoder(gm, C=128):
        dims = ModelDims(C=C, hidden=16, heads=2, lm=8, gm=gm, e0=8, e1=4)
        params = ModelParams(dims, seed=39)
        feats = np.random.default_rng(gm).normal(size=(gm, C))
        _encode(feats, params)
        return params, feats

    gms = np.array([32, 64, 128, 256])
    encoders = [encoder(int(g)) for g in gms]
    reps, trials = 20, 35
    times = np.full(len(gms), np.inf)
    # the gm points take turns inside each trial, so a slow stretch of a shared
    # host slows every point alike, and each point keeps its best time of all
    # trials so far; when the host changes speed mid-round, a further round
    # lets every point reach the new floor (timing is noisy; any clean fit
    # suffices)
    for _ in range(3):
        for _ in range(trials):
            for i, (params, feats) in enumerate(encoders):
                start = time.perf_counter()
                for _ in range(reps):
                    _encode(feats, params)
                times[i] = min(times[i], (time.perf_counter() - start) / reps)
        slope, intercept = np.polyfit(gms, times, 1)
        pred = slope * gms + intercept
        r2 = 1.0 - np.sum((times - pred) ** 2) / np.sum((times - times.mean()) ** 2)
        if r2 >= 0.98:
            break
    return float(slope), float(r2)


def test_c10_encoder_scaling_is_affine(monkeypatch):
    # OpenBLAS starts its threads only past a matrix-size threshold, so with
    # several threads the larger gm points bend the line by however busy the
    # other cores are; a child started with one BLAS thread times the
    # encoder's own work
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        slope, r2 = pool.apply(_c10_fit)
    assert slope > 0
    assert r2 >= 0.98
    _passed(10, f"array encoder wall-time affine over gm in {{32,64,128,256}}, R^2 = {r2:.4f}")
