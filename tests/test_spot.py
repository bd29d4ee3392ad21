"""Tail-fitting and streaming-threshold tests.

Recovery tests draw from known distributions via explicit inverse-CDF
samplers (the oracle), then check the fitted parameters against the truth.
Equivalence tests hold `grimshaw_fit`'s one-broadcast bracket scan to the
per-bracket scalar scan kept here as the reference, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from evdetect import spot
from evdetect.spot import (
    ANOMALY,
    GAMMA_ZERO,
    MIN_PEAKS,
    NORMAL,
    PEAK,
    CalibrationWarning,
    GpdFit,
    SpotDomainError,
    gpd_log_likelihood,
    gpd_quantile,
    grimshaw_fit,
    pot_calibrate,
    spot_step,
)


def gpd_inverse_cdf(u: np.ndarray, gamma: float, sigma: float) -> np.ndarray:
    """Oracle sampler: invert F(x) = 1 - (1 + gamma x / sigma)^(-1/gamma)."""
    if gamma == 0.0:
        return -sigma * np.log1p(-u)
    return (sigma / gamma) * ((1.0 - u) ** -gamma - 1.0)


def _oracle_w(theta: float, y: np.ndarray) -> float:
    z = 1.0 + theta * y
    u = np.mean(1.0 / z)
    v = 1.0 + np.mean(np.log(z))
    return u * v - 1.0


def oracle_grimshaw_fit(excesses, brackets: int = 20, theta_tol: float = 1e-10) -> GpdFit:
    """Reference fit: evaluates u*v - 1 at both ends of every span, one scalar call each."""
    y = np.asarray(excesses, dtype=np.float64)
    if y.size < 2:
        raise SpotDomainError("need at least two excesses to fit")
    if np.any(y <= 0):
        raise SpotDomainError("excesses must be positive")

    y_max = float(y.max())
    y_mean = float(y.mean())
    best_gamma, best_sigma = 0.0, y_mean
    if np.ptp(y) == 0.0:
        return GpdFit(best_gamma, best_sigma, int(y.size))
    best_ll = gpd_log_likelihood(best_gamma, best_sigma, y)

    lo = -1.0 / y_max + 1e-8
    if lo >= 0.0:
        lo = -0.5 / y_max
    hi = 10.0 / y_mean
    dead_zone = 1e-7 / y_mean
    edges = np.linspace(lo, hi, brackets + 1)

    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        spans = [(a, b)]
        if a < 0.0 < b:
            spans = [(a, -dead_zone), (dead_zone, b)]
        for s_lo, s_hi in spans:
            if s_lo >= s_hi:
                continue
            w_lo, w_hi = _oracle_w(s_lo, y), _oracle_w(s_hi, y)
            if w_lo == 0.0:
                roots.append(s_lo)
            elif w_lo * w_hi < 0.0:
                roots.append(float(brentq(_oracle_w, s_lo, s_hi, args=(y,), xtol=theta_tol)))

    for theta in roots:
        if abs(theta) < dead_zone:
            continue
        gamma = float(np.mean(np.log1p(theta * y)))
        sigma = gamma / theta
        if sigma <= 0 or abs(gamma) < GAMMA_ZERO:
            continue
        try:
            ll = gpd_log_likelihood(gamma, sigma, y)
        except SpotDomainError:
            continue
        if ll > best_ll:
            best_gamma, best_sigma, best_ll = gamma, sigma, ll

    return GpdFit(best_gamma, best_sigma, int(y.size))


class TestLogLikelihood:
    def test_exponential_limit_single_point(self):
        assert gpd_log_likelihood(0.0, 1.0, [1.0]) == pytest.approx(-1.0)

    def test_direct_substitution(self):
        # -(1+1)*log(2), N_h=1, log sigma = 0
        assert gpd_log_likelihood(1.0, 1.0, [1.0]) == pytest.approx(-2.0 * math.log(2.0), abs=1e-5)
        assert gpd_log_likelihood(1.0, 1.0, [1.0]) == pytest.approx(-1.38629, abs=1e-5)

    def test_domain_violations_raise(self):
        with pytest.raises(SpotDomainError):
            gpd_log_likelihood(0.5, 0.0, [1.0])
        with pytest.raises(SpotDomainError):
            gpd_log_likelihood(0.5, 1.0, [-1.0])
        with pytest.raises(SpotDomainError):
            gpd_log_likelihood(-2.0, 1.0, [1.0])  # 1 + gamma*y/sigma <= 0
        with pytest.raises(SpotDomainError):
            gpd_log_likelihood(0.5, 1.0, [])

    @pytest.mark.parametrize(
        "gamma, sigma, y, message",
        [
            (math.nan, 1.0, [1.0, 2.0], "gamma must not be NaN"),
            (0.5, math.inf, [1.0, 2.0], "sigma must be finite and positive"),
            (0.5, math.nan, [1.0, 2.0], "sigma must be finite and positive"),
            (0.5, 1.0, [1.0, math.nan], "excesses must be positive"),
            (0.0, 1.0, [1.0, math.inf], "excesses must be finite"),
        ],
        ids=["nan-gamma", "inf-sigma", "nan-sigma", "nan-excess", "inf-excess"],
    )
    def test_non_finite_arguments_raise(self, gamma, sigma, y, message):
        with pytest.raises(SpotDomainError, match=message):
            gpd_log_likelihood(gamma, sigma, y)

    def test_optimum_beats_random_feasible_points(self):
        rng = np.random.default_rng(100)
        y = gpd_inverse_cdf(rng.uniform(size=800), 0.2, 1.5)
        fit = grimshaw_fit(y)
        best = gpd_log_likelihood(fit.gamma_hat, fit.sigma_hat, y)
        tried = 0
        while tried < 100:
            gamma = rng.uniform(-0.4, 1.5)
            sigma = rng.uniform(0.3, 4.0)
            try:
                ll = gpd_log_likelihood(gamma, sigma, y)
            except SpotDomainError:
                continue
            tried += 1
            assert best >= ll


class TestGrimshaw:
    def test_recovers_exponential(self):
        rng = np.random.default_rng(7)
        y = gpd_inverse_cdf(rng.uniform(size=5000), 0.0, 1.0)  # Exp(1)
        fit = grimshaw_fit(y)
        assert -0.1 <= fit.gamma_hat <= 0.1
        assert 0.9 <= fit.sigma_hat <= 1.1

    def test_recovers_heavy_tail(self):
        rng = np.random.default_rng(8)
        y = gpd_inverse_cdf(rng.uniform(size=5000), 0.3, 2.0)
        fit = grimshaw_fit(y)
        assert fit.gamma_hat == pytest.approx(0.3, abs=0.08)
        assert fit.sigma_hat == pytest.approx(2.0, abs=0.2)
        assert fit.n_excesses == 5000

    def test_recovers_bounded_tail(self):
        rng = np.random.default_rng(9)
        y = gpd_inverse_cdf(rng.uniform(size=5000), -0.2, 1.0)
        fit = grimshaw_fit(y)
        assert fit.gamma_hat == pytest.approx(-0.2, abs=0.08)

    def test_constant_excesses_fallback(self):
        fit = grimshaw_fit([2.5] * 20)
        assert fit.gamma_hat == 0.0
        assert fit.sigma_hat == pytest.approx(2.5)

    def test_rejects_degenerate_input(self):
        with pytest.raises(SpotDomainError):
            grimshaw_fit([1.0])
        with pytest.raises(SpotDomainError):
            grimshaw_fit([1.0, -1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(SpotDomainError):
                grimshaw_fit([1.0, bad])

    def test_local_optimality_on_grid(self):
        rng = np.random.default_rng(10)
        y = gpd_inverse_cdf(rng.uniform(size=2000), 0.25, 1.0)
        fit = grimshaw_fit(y)
        best = gpd_log_likelihood(fit.gamma_hat, fit.sigma_hat, y)
        for gamma in np.linspace(0.9 * fit.gamma_hat, 1.1 * fit.gamma_hat, 11):
            for sigma in np.linspace(0.9 * fit.sigma_hat, 1.1 * fit.sigma_hat, 11):
                try:
                    ll = gpd_log_likelihood(float(gamma), float(sigma), y)
                except SpotDomainError:
                    continue
                assert best >= ll - 1e-9


class TestQuantile:
    def test_hand_computed(self):
        fit = GpdFit(gamma_hat=0.5, sigma_hat=2.0, n_excesses=200)
        z = gpd_quantile(10.0, fit, q=0.001, n=10000)
        assert z == pytest.approx(23.8885, abs=1e-3)

    def test_log_limit(self):
        fit = GpdFit(gamma_hat=0.0, sigma_hat=2.0, n_excesses=200)
        z = gpd_quantile(10.0, fit, q=0.001, n=10000)
        assert z == pytest.approx(15.9915, abs=1e-3)

    def test_boundary_q_equals_rate(self):
        fit = GpdFit(gamma_hat=0.5, sigma_hat=2.0, n_excesses=200)
        with pytest.raises(SpotDomainError):
            gpd_quantile(10.0, fit, q=200 / 10000, n=10000)
        # approaching the boundary from below converges to h
        z = gpd_quantile(10.0, fit, q=200 / 10000 - 1e-12, n=10000)
        assert z == pytest.approx(10.0, abs=1e-6)

    def test_monotone_in_q_and_sigma(self):
        n = 10000
        base = GpdFit(0.3, 2.0, 200)
        qs = [1e-5, 1e-4, 1e-3, 1e-2]
        zs = [gpd_quantile(5.0, base, q, n) for q in qs]
        assert all(a > b for a, b in zip(zs, zs[1:]))  # strictly decreasing in q
        sigmas = [0.5, 1.0, 2.0, 4.0]
        zs = [gpd_quantile(5.0, GpdFit(0.3, s, 200), 1e-3, n) for s in sigmas]
        assert all(a < b for a, b in zip(zs, zs[1:]))  # increasing in sigma


class TestCalibration:
    def test_normal_scores_threshold_behaves(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=1000)
        state = pot_calibrate(scores, q=1e-3)
        assert state.z_q > state.h > 0
        fresh = rng.normal(size=1000)
        assert int(np.sum(fresh > state.z_q)) <= 4

    def test_constant_scores_degenerate(self):
        with pytest.warns(CalibrationWarning):
            state = pot_calibrate(np.full(500, 3.0), q=1e-4)
        assert state.degenerate
        assert state.h == 3.0
        assert state.z_q > state.h

    def test_peak_count_at_level(self):
        rng = np.random.default_rng(12)
        scores = rng.permutation(np.arange(5000, dtype=float))
        state = pot_calibrate(scores, q=1e-4, init_level=0.98)
        assert len(state.peaks) == 100
        assert state.k == 5000

    def test_too_few_scores_rejected(self):
        with pytest.raises(ValueError):
            pot_calibrate(np.arange(50, dtype=float), q=1e-4)

    @pytest.mark.parametrize("q", [0.0, 1.0, -1e-4, 1.5])
    def test_out_of_range_q_rejected(self, q):
        scores = np.random.default_rng(13).normal(size=500)
        with pytest.raises(ValueError, match="q must lie in"):
            pot_calibrate(scores, q=q)

    @pytest.mark.parametrize("init_level", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_out_of_range_init_level_rejected(self, init_level):
        scores = np.random.default_rng(13).normal(size=500)
        with pytest.raises(ValueError, match="init_level must lie in"):
            pot_calibrate(scores, q=1e-4, init_level=init_level)

    def test_thin_tail_lowers_threshold(self):
        # heavy ties above the 0.98 quantile leave too few strict excesses
        scores = np.concatenate([np.linspace(0, 1, 195), np.full(5, 2.0)])
        scores = np.tile(scores, 3)
        with pytest.warns(CalibrationWarning):
            state = pot_calibrate(scores, q=1e-4)
        assert len(state.peaks) >= MIN_PEAKS == 10


class TestSpotStep:
    @staticmethod
    def _calibrated(seed=13, n=1000, q=1e-3):
        rng = np.random.default_rng(seed)
        return pot_calibrate(rng.normal(size=n), q=q)

    def test_boundary_exactly_zq_is_peak(self):
        state = self._calibrated()
        assert spot_step(state, state.z_q) == PEAK

    def test_below_h_only_increments_k(self):
        state = self._calibrated()
        snapshot = (state.h, state.z_q, list(state.peaks), state.fit.gamma_hat, state.fit.sigma_hat, state.k)
        cls = spot_step(state, state.h - 1.0)
        assert cls == NORMAL
        assert (state.h, state.z_q, list(state.peaks), state.fit.gamma_hat, state.fit.sigma_hat) == snapshot[:5]
        assert state.k == snapshot[5] + 1

    def test_anomaly_never_mutates_fit(self):
        state = self._calibrated()
        snapshot = (state.h, state.z_q, list(state.peaks), state.fit.gamma_hat, state.fit.sigma_hat, state.k)
        assert spot_step(state, state.z_q * 50.0) == ANOMALY
        assert (state.h, state.z_q, list(state.peaks), state.fit.gamma_hat, state.fit.sigma_hat, state.k) == snapshot

    def test_peak_updates_fit_and_threshold_stays_above_h(self):
        state = self._calibrated()
        rng = np.random.default_rng(14)
        for x in rng.normal(size=3000):
            spot_step(state, float(x))
            assert state.z_q > state.h

    def test_spike_stream_detection(self):
        rng = np.random.default_rng(15)
        clean = rng.normal(size=12000)
        state = pot_calibrate(clean[:2000], q=1e-4)
        stream = clean[2000:].copy()
        spike_value = 10.0 * 3.0902  # 10x the 99.9% standard-normal quantile
        spike_pos = rng.choice(stream.size, size=20, replace=False)
        stream[spike_pos] = spike_value
        hits = 0
        false_alarms = 0
        for i, x in enumerate(stream):
            cls = spot_step(state, float(x))
            if cls == ANOMALY:
                if i in set(spike_pos):
                    hits += 1
                else:
                    false_alarms += 1
        assert hits >= 19
        assert false_alarms <= 0.005 * (stream.size - 20)

    def test_replay_without_anomalies_identical_thresholds(self):
        rng = np.random.default_rng(16)
        clean = rng.normal(size=4000)
        spikes = {500: 40.0, 1500: 55.0, 2500: 60.0}
        with_anomalies = clean.copy()
        for idx, v in spikes.items():
            with_anomalies[idx] = v

        state_a = pot_calibrate(clean[:1000], q=1e-4)
        traj_a = []
        for i, x in enumerate(with_anomalies[1000:], start=1000):
            spot_step(state_a, float(x))
            if i not in spikes:
                traj_a.append(state_a.z_q)

        state_b = pot_calibrate(clean[:1000], q=1e-4)
        traj_b = []
        for i, x in enumerate(clean[1000:], start=1000):
            if i in spikes:
                continue
            spot_step(state_b, float(x))
            traj_b.append(state_b.z_q)

        assert traj_a == traj_b  # bit-exact: anomalies leave no trace

    def test_refit_stride_skips_refits_but_counts(self):
        rng = np.random.default_rng(17)
        state = pot_calibrate(rng.normal(size=1000), q=1e-3, refit_stride=5)
        gamma0 = state.fit.gamma_hat
        peaks_seen = 0
        for x in rng.normal(size=4000):
            if spot_step(state, float(x)) == PEAK:
                peaks_seen += 1
                if peaks_seen == 1:
                    assert state.fit.gamma_hat == gamma0  # not refit yet
                    assert state.fit.n_excesses == state.n_peaks_total
        assert peaks_seen > 5

    def test_peak_cap_bounds_memory(self):
        rng = np.random.default_rng(18)
        state = pot_calibrate(rng.normal(size=1000), q=1e-3, max_peaks=30)
        for x in rng.normal(loc=2.0, size=2000):
            spot_step(state, float(x))
        assert len(state.peaks) <= 30
        assert state.n_peaks_total > 30


def test_no_warnings_in_normal_calibration():
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pot_calibrate(rng.normal(size=2000), q=1e-4)


def oracle_initial_threshold(scores: np.ndarray, init_level: float) -> tuple[float, bool, int | None]:
    """The walk down the order statistics that `_initial_threshold`'s closed
    form replaced: (h, degenerate, the index its warning names or None)."""
    n = scores.size
    s = np.sort(scores)
    idx = min(max(math.ceil(init_level * n) - 1, 0), n - 1)
    if np.count_nonzero(scores > s[idx]) >= MIN_PEAKS:
        return float(s[idx]), False, None
    idx = min(idx, n - MIN_PEAKS - 1)
    while idx >= 0 and np.count_nonzero(scores > s[idx]) < MIN_PEAKS:
        idx -= 1
    if idx < 0:
        return float(s[-1]), True, None
    return float(s[idx]), False, idx


@st.composite
def calibration_sets(draw):
    """Calibration scores with and without ties at the top: normal draws,
    small integers, near-constant values and rounded gamma draws."""
    kind = draw(st.sampled_from(["normal", "integers", "near-constant", "rounded-gamma"]))
    n = draw(st.integers(100, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "integers":
        return rng.integers(0, draw(st.integers(1, 12)), size=n).astype(np.float64)
    if kind == "near-constant":
        # a few scores below the constant, and up to twice MIN_PEAKS above it
        down, up = draw(st.integers(0, 3)), draw(st.integers(0, 2 * MIN_PEAKS))
        x = np.full(n, 3.0)
        spots = rng.choice(n, size=down + up, replace=False)
        x[spots[:down]] -= 1.0
        x[spots[down:]] += rng.choice([1e-9, 1.0, 2.0], size=up)
        return x
    return np.round(rng.gamma(2.0, 1.0, size=n), draw(st.integers(0, 2)))


class TestInitialThresholdClosedForm:
    """`_initial_threshold` picks the walk's order statistic, flag and warning."""

    @settings(max_examples=500, deadline=None)
    @given(scores=calibration_sets(), init_level=st.floats(0.01, 0.999))
    def test_matches_the_walk(self, scores, init_level):
        h, degenerate, warned_idx = oracle_initial_threshold(scores, init_level)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = spot._initial_threshold(scores, init_level)
        assert got == (h, degenerate)
        messages = [str(w.message) for w in caught if issubclass(w.category, CalibrationWarning)]
        if warned_idx is None:
            assert messages == []
        else:
            want = f"initial threshold lowered to the {(warned_idx + 1) / scores.size:.3f} quantile to collect"
            assert len(messages) == 1 and messages[0].startswith(want)


def _snap(gamma: float) -> float:
    """Shapes this close to 0 would overflow sigma/gamma; sample the exponential limit instead."""
    return 0.0 if abs(gamma) < 1e-3 else gamma


@st.composite
def excess_sets(draw):
    """Positive excess sets, n from 2 to a few thousand: GPD tails from bounded to
    infinite-mean, heavy tails, two-scale mixtures and lognormals (these spread
    the roots over the whole bracket grid), rounded values, ties, and short
    lists of arbitrary floats."""
    kind = draw(st.sampled_from(["gpd", "heavy", "mixture", "lognormal", "rounded", "ties", "floats"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=60)))
    n = draw(st.sampled_from([2, 3, 5]) | st.integers(2, 300) | st.integers(300, 4000))
    gamma = draw(st.floats(0.8, 1.5) if kind == "heavy" else st.floats(-0.9, 2.0))
    sigma = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = gpd_inverse_cdf(rng.uniform(size=n), _snap(gamma), sigma)
    if kind == "mixture":
        wide = sigma * 10.0 ** draw(st.floats(0.5, 3.0))
        y[: n // 2] = gpd_inverse_cdf(rng.uniform(size=n // 2), _snap(draw(st.floats(-0.5, 0.5))), wide)
    elif kind == "lognormal":
        y = sigma * rng.lognormal(0.0, draw(st.floats(0.1, 3.0)), size=n)
    elif kind == "rounded":
        step = sigma * 10.0 ** -draw(st.integers(0, 3))
        y = (np.floor(y / step) + 1.0) * step
    elif kind == "ties":
        y = rng.choice(y[: draw(st.integers(2, 6))], size=n)
    return np.maximum(y, 1e-12)


class TestBroadcastScanEquivalence:
    """The one-broadcast bracket scan reproduces the per-bracket scalar scan bit for bit."""

    @settings(max_examples=800)
    @given(y=excess_sets())
    def test_fit_bit_identical_to_scalar_scan(self, y):
        got, want = grimshaw_fit(y), oracle_grimshaw_fit(y)
        assert (got.gamma_hat, got.sigma_hat, got.n_excesses) == (want.gamma_hat, want.sigma_hat, want.n_excesses)

    def test_block_boundaries_bit_identical(self, monkeypatch):
        # one row per block, a ragged last block, and one block for the whole grid
        rng = np.random.default_rng(20)
        y = gpd_inverse_cdf(rng.uniform(size=3000), 0.25, 1.0)
        want = oracle_grimshaw_fit(y)
        for block in (1, 3000 * 5, 1 << 30):
            monkeypatch.setattr(spot, "_GRID_BLOCK", block)
            got = grimshaw_fit(y)
            assert (got.gamma_hat, got.sigma_hat) == (want.gamma_hat, want.sigma_hat)

    @pytest.mark.parametrize("gamma, step", [(0.25, 0.0), (-0.3, 0.0), (1.2, 0.01)])
    @pytest.mark.parametrize("n", [10_000, 40_000])
    def test_large_fits_bit_identical(self, n, gamma, step):
        # at the default block size, 10k excesses run in blocks of 3 rows and 40k in
        # single rows; each row sums more than numpy's 8192-element reduction buffer
        y = gpd_inverse_cdf(np.random.default_rng(n).uniform(size=n), gamma, 1.0)
        if step:
            y = (np.floor(y / step) + 1.0) * step
        assert spot._GRID_BLOCK // n in (3, 0)
        got, want = grimshaw_fit(y), oracle_grimshaw_fit(y)
        assert (got.gamma_hat, got.sigma_hat, got.n_excesses) == (want.gamma_hat, want.sigma_hat, want.n_excesses)

    @staticmethod
    def _stream(n=100_000, seed=21):
        """Gamma-distributed scores with a daily cycle, a slow drift and bursts."""
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        x = rng.gamma(2.0, 1.0, size=n) * (1.0 + 0.1 * np.sin(2 * np.pi * t / 1440) + 0.05 * t / n)
        for start in rng.choice(n - 60, size=40, replace=False):
            x[start : start + int(rng.integers(5, 60))] *= rng.uniform(1.5, 6.0)
        return x

    @staticmethod
    def _run(x, refit_stride, max_peaks):
        state = pot_calibrate(x[:2000], q=1e-4, init_level=0.95, refit_stride=refit_stride, max_peaks=max_peaks)
        z_q, labels = [], []
        for v in x[2000:]:
            labels.append(spot_step(state, float(v)))
            z_q.append(state.z_q)
        return z_q, labels, state

    @pytest.mark.parametrize("max_peaks", [None, 50])
    @pytest.mark.parametrize("refit_stride", [1, 3])
    def test_long_stream_thresholds_and_labels_identical(self, monkeypatch, refit_stride, max_peaks):
        x = self._stream()
        z_q, labels, state = self._run(x, refit_stride, max_peaks)
        monkeypatch.setattr(spot, "grimshaw_fit", oracle_grimshaw_fit)
        want_z_q, want_labels, _ = self._run(x, refit_stride, max_peaks)
        assert z_q == want_z_q
        assert labels == want_labels
        assert labels.count(ANOMALY) > 0 and state.n_peaks_total > 1000


def _bracket_grid(y: np.ndarray) -> tuple[list[float], float]:
    """The bracket edges and dead zone `grimshaw_fit` builds for y, so a test can
    check that its input reaches the corner it is named after."""
    lo = -1.0 / y.max() + 1e-8
    if lo >= 0.0:
        lo = -0.5 / y.max()
    return np.linspace(lo, 10.0 / y.mean(), spot.BRACKETS + 1).tolist(), 1e-7 / y.mean()


class TestSpanAssemblyCorners:
    """Corners of the span assembly, each held to the scalar scan bit for bit."""

    @staticmethod
    def _assert_matches_oracle(y):
        got, want = grimshaw_fit(y), oracle_grimshaw_fit(y)
        assert (got.gamma_hat, got.sigma_hat, got.n_excesses) == (want.gamma_hat, want.sigma_hat, want.n_excesses)

    def test_grid_edge_exactly_at_zero(self):
        # hi = 19 * |lo|, so the second edge is 0.0: the bracket around 0 is not
        # split, and 0.0 is the lower end of a span where u*v - 1 is exactly 0
        y = np.array([3.0, 0.1578948315789503])
        edges, _ = _bracket_grid(y)
        assert edges[1] == 0.0
        self._assert_matches_oracle(y)

    def test_lower_end_when_y_max_reaches_1e8(self):
        rng = np.random.default_rng(22)
        y = gpd_inverse_cdf(rng.uniform(size=200), 0.4, 1e7)
        y[0] = 2e8
        assert -1.0 / y.max() + 1e-8 >= 0.0
        self._assert_matches_oracle(y)

    def test_negative_half_span_dropped(self):
        # -1/y_max + 1e-8 is about -1e-15 while the dead zone is 3e-15, so the
        # first bracket keeps only its half above the dead zone
        y = np.array([99_999_990.0, 1.0, 2.0])
        edges, dead_zone = _bracket_grid(y)
        assert edges[0] < 0.0 < edges[1] and edges[0] >= -dead_zone
        self._assert_matches_oracle(y)

    @pytest.mark.parametrize("y", [[1.0, 3.0], [0.25, 1e4], [5.0, 5.0 + 1e-12]], ids=["1-3", "wide", "near-tie"])
    def test_exactly_two_excesses(self, y):
        self._assert_matches_oracle(np.array(y))

    @pytest.mark.parametrize("y", [[2.5] * 20, [0.1] * 3, [7.0, 7.0]], ids=["2.5x20", "0.1x3", "7x2"])
    def test_all_equal_excesses(self, y):
        self._assert_matches_oracle(np.array(y))

    @pytest.mark.parametrize(
        "y, lower_end_overflows", [([1e-310, 2e-310], True), ([1e-308, 2e-308], False)], ids=["both-ends", "upper-end"]
    )
    def test_bracket_range_overflow_gives_the_exponential_fit(self, y, lower_end_overflows):
        # the range [-1/max(y), 10/mean(y)] overflows: there is no grid to search
        y = np.array(y)
        assert math.isinf(10.0 / float(y.mean()))
        assert math.isinf(-1.0 / float(y.max())) == lower_end_overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grimshaw_fit(y) == GpdFit(0.0, float(np.mean(y)), 2)

    def test_root_on_a_grid_point(self):
        # u*v - 1 rounds to exactly 0.0 at the dead zone's upper end, which is the
        # lower end of a span, so that point is taken as a root without brentq
        y = gpd_inverse_cdf(np.random.default_rng(1).uniform(size=100), 0.2, 1.0)
        _, dead_zone = _bracket_grid(y)
        assert spot._grimshaw_w(dead_zone, y) == 0.0
        self._assert_matches_oracle(y)
        assert grimshaw_fit(y).gamma_hat != 0.0  # that root, not the exponential fit, wins (a known quirk)


@pytest.mark.parametrize("n", [2, 97, 8192, 20_000])
def test_grid_row_equals_scalar_call(n):
    """`_grimshaw_w`'s docstring: a grid row and a scalar call give the same bits."""
    rng = np.random.default_rng(n)
    y = gpd_inverse_cdf(rng.uniform(size=n), 0.3, 2.0)
    edges, _ = _bracket_grid(y)
    thetas = np.array(edges[1:] + [1e-9, -1e-9])
    rows = spot._grimshaw_w(thetas[:, None], y)
    assert rows.tolist() == [float(spot._grimshaw_w(t, y)) for t in thetas.tolist()]
