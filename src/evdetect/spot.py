"""Streaming peak-over-threshold anomaly thresholding.

Calibration picks an initial threshold h as a high empirical quantile of a
batch of scores, fits a generalized Pareto distribution to the excesses above
h by maximum likelihood (Grimshaw's one-dimensional reduction), and derives an
extreme quantile z_q as the anomaly threshold. While streaming, scores above
z_q are anomalies and never touch the fit; scores in (h, z_q] are peaks that
extend the excess set and refresh the fit and threshold; everything else only
advances the observation counter.

A refit is exact, not warm-started: every fit scans Grimshaw's whole bracket
grid in one broadcast (see grimshaw_fit), so a new higher-likelihood root in
another bracket is never missed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

GAMMA_ZERO = 1e-8
# Grimshaw's root search: equal brackets over the theta range, and brentq's tolerance
BRACKETS = 20
THETA_TOL = 1e-10
# the fewest excesses over the initial threshold a calibration fits a GPD to
MIN_PEAKS = 10
# Largest (points, n) block of the bracket grid evaluated in one broadcast. With
# temporaries much past 256 KB, one big broadcast measured slower than
# evaluating the points one at a time.
_GRID_BLOCK = 1 << 15

NORMAL = "normal"
PEAK = "peak"
ANOMALY = "anomaly"


class SpotDomainError(ValueError):
    """Raised on arguments outside the GPD/quantile domain."""


class CalibrationWarning(UserWarning):
    """Degenerate or thin-tailed calibration input."""


@dataclass
class GpdFit:
    """Fitted tail: shape gamma_hat, scale sigma_hat (> 0), excess count."""

    gamma_hat: float
    sigma_hat: float
    n_excesses: int


def gpd_log_likelihood(gamma: float, sigma: float, excesses) -> float:
    """Log-likelihood of positive excesses under GPD(gamma, sigma).

    Uses the exponential-limit form when |gamma| is below GAMMA_ZERO. Raises
    SpotDomainError instead of returning NaN for infeasible arguments.
    """
    y = np.asarray(excesses, dtype=np.float64)
    if y.size == 0:
        raise SpotDomainError("no excesses")
    if sigma <= 0:
        raise SpotDomainError(f"sigma must be positive, got {sigma}")
    if np.any(y <= 0):
        raise SpotDomainError("excesses must be positive")
    if abs(gamma) < GAMMA_ZERO:
        return float(-y.size * math.log(sigma) - y.sum() / sigma)
    z = 1.0 + (gamma / sigma) * y
    if np.any(z <= 0):
        raise SpotDomainError("1 + (gamma/sigma)*y must stay positive")
    return float(-y.size * math.log(sigma) - (1.0 + 1.0 / gamma) * np.log(z).sum())


def _grimshaw_w(theta, y: np.ndarray):
    """u(theta)*v(theta) - 1; its roots are the candidate MLE critical points.

    theta is a scalar or a (points, 1) column. The means reduce along the last
    axis as np.add.reduce(...) / n, which is np.mean's arithmetic, so a grid
    row and a scalar call at the same theta give the same bits.
    """
    n = y.shape[-1]
    z = 1.0 + theta * y
    u = np.add.reduce(1.0 / z, axis=-1) / n
    v = 1.0 + np.add.reduce(np.log(z), axis=-1) / n
    return u * v - 1.0


def grimshaw_fit(excesses) -> GpdFit:
    """Maximum-likelihood GPD fit via the one-dimensional reduction.

    The two-parameter problem is reduced to finding roots of u(theta)*v(theta)=1
    in theta = gamma/sigma; each root maps back through gamma = v(theta)-1,
    sigma = gamma/theta. theta = 0 (the exponential solution gamma=0,
    sigma=mean) is always a candidate; the candidate with the highest
    log-likelihood wins.

    Roots are searched over `BRACKETS` equal brackets spanning
    [-1/max(y), 10/mean(y)], the one around 0 split to skip the trivial double
    root there. u*v - 1 is evaluated once at every distinct span endpoint, in
    one broadcast over a (points, n) array (row blocks once n is large), and
    brentq runs only inside spans where it changes sign.
    """
    y = np.asarray(excesses, dtype=np.float64)
    if y.size < 2:
        raise SpotDomainError("need at least two excesses to fit")
    if not np.all(y > 0):
        raise SpotDomainError("excesses must be positive")
    y_max = float(y.max())
    if not math.isfinite(y_max):
        raise SpotDomainError("excesses must be finite")

    y_mean = float(y.mean())
    best_gamma, best_sigma = 0.0, y_mean
    if np.ptp(y) == 0.0:
        # all-equal excesses: the reduction is degenerate
        return GpdFit(best_gamma, best_sigma, int(y.size))
    best_ll = gpd_log_likelihood(best_gamma, best_sigma, y)

    lo = -1.0 / y_max + 1e-8
    if lo >= 0.0:
        lo = -0.5 / y_max
    hi = 10.0 / y_mean
    dead_zone = 1e-7 / y_mean  # skip the trivial double root at theta = 0
    edges = np.linspace(lo, hi, BRACKETS + 1).tolist()

    spans = []
    for a, b in zip(edges[:-1], edges[1:]):
        if a < 0.0 < b:
            spans += [(a, -dead_zone), (dead_zone, b)]
        else:
            spans.append((a, b))
    spans = [(a, b) for a, b in spans if a < b]
    points = np.unique(spans)
    rows = max(1, _GRID_BLOCK // y.size)
    w = np.concatenate([_grimshaw_w(points[i : i + rows, None], y) for i in range(0, points.size, rows)])
    w_lo, w_hi = w[np.searchsorted(points, spans)].T

    roots: list[float] = []
    for i in np.flatnonzero((w_lo == 0.0) | (w_lo * w_hi < 0.0)):
        s_lo, s_hi = spans[i]
        if w_lo[i] == 0.0:
            roots.append(s_lo)
        else:
            roots.append(float(brentq(_grimshaw_w, s_lo, s_hi, args=(y,), xtol=THETA_TOL)))

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


def gpd_quantile(h: float, fit: GpdFit, q: float, n: int) -> float:
    """Extreme quantile z_q implied by the fitted tail over threshold h.

    Requires 0 < q < N_h/n so the quantile lies above h.
    """
    if fit.n_excesses <= 0 or n < fit.n_excesses:
        raise SpotDomainError("need 0 < N_h <= n observations")
    if not (0.0 < q < fit.n_excesses / n):
        raise SpotDomainError(f"q must lie in (0, N_h/n) = (0, {fit.n_excesses / n:g}), got {q}")
    r = q * n / fit.n_excesses
    if abs(fit.gamma_hat) < GAMMA_ZERO:
        return h + fit.sigma_hat * math.log(1.0 / r)
    return h + (fit.sigma_hat / fit.gamma_hat) * (r**-fit.gamma_hat - 1.0)


# ---------------------------------------------------------------------------
# Streaming state
# ---------------------------------------------------------------------------


@dataclass
class SpotState:
    """Live thresholding state for one stream of scores; `peaks` is a float64 array, oldest first."""

    q: float
    h: float
    z_q: float
    fit: GpdFit
    peaks: np.ndarray = field(default_factory=lambda: np.empty(0))
    k: int = 0
    n_peaks_total: int = 0
    refit_stride: int = 1
    max_peaks: int | None = None
    degenerate: bool = False
    _since_refit: int = 0

    def __eq__(self, other):
        if not isinstance(other, SpotState):
            return NotImplemented
        return {**vars(self), "peaks": None} == {**vars(other), "peaks": None} and np.array_equal(self.peaks, other.peaks)


def _initial_threshold(scores: np.ndarray, init_level: float) -> tuple[float, bool]:
    """Empirical init_level-quantile, lowered if needed to yield >= MIN_PEAKS excesses."""
    n = scores.size
    s = np.sort(scores)
    idx = min(max(math.ceil(init_level * n) - 1, 0), n - 1)
    # exactly the order statistics below index m have MIN_PEAKS or more scores above them
    m = int(np.searchsorted(s, s[n - MIN_PEAKS]))
    if idx < m:
        return float(s[idx]), False
    if m == 0:
        return float(s[-1]), True  # constant (or near-constant) scores
    warnings.warn(
        f"initial threshold lowered to the {m / n:.3f} quantile to collect {MIN_PEAKS} peaks",
        CalibrationWarning,
        stacklevel=3,
    )
    return float(s[m - 1]), False


def pot_calibrate(
    scores,
    q: float = 1e-4,
    init_level: float = 0.98,
    refit_stride: int = 1,
    max_peaks: int | None = None,
) -> SpotState:
    """Fit the initial threshold pair (h, z_q) from a batch of calibration scores."""
    x = np.asarray(scores, dtype=np.float64)
    if x.size < 100:
        raise ValueError(f"need at least 100 calibration scores, got {x.size}")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if not (0.0 < init_level < 1.0):
        raise ValueError(f"init_level must lie in (0, 1), got {init_level}")
    if not np.all(np.isfinite(x)):
        raise ValueError("calibration scores must be finite")

    h, degenerate = _initial_threshold(x, init_level)
    peaks = x[x > h] - h
    if degenerate:
        margin = max(1e-9, 1e-6 * abs(h))
        warnings.warn("constant calibration scores; using h + tiny margin", CalibrationWarning, stacklevel=2)
        fit, z_q = GpdFit(0.0, margin, 0), h + margin
    else:
        fit = grimshaw_fit(peaks)
        z_q = gpd_quantile(h, fit, q, x.size)
    return SpotState(
        q=q,
        h=h,
        z_q=z_q,
        fit=fit,
        peaks=peaks,
        k=x.size,
        n_peaks_total=peaks.size,
        refit_stride=refit_stride,
        max_peaks=max_peaks,
        degenerate=degenerate,
    )


def spot_step(state: SpotState, x: float) -> str:
    """Classify one score and update the state per the streaming PoT rules.

    Anomalies (x > z_q) leave the state untouched; peaks (h < x <= z_q) extend
    the excess set, refresh the fit (every `refit_stride` peaks) and recompute
    z_q; normal points only advance k.
    """
    if x > state.z_q:
        return ANOMALY
    state.k += 1
    if not x > state.h:
        return NORMAL
    state.peaks = np.append(state.peaks, x - state.h)
    if state.max_peaks is not None:
        state.peaks = state.peaks[-state.max_peaks :]
    state.n_peaks_total += 1
    state._since_refit += 1
    # a degenerate state refits on every peak, from its second one on
    if state._since_refit >= state.refit_stride or state.degenerate:
        state._since_refit = 0
        if state.peaks.size >= 2:
            state.fit = grimshaw_fit(state.peaks)
            state.degenerate = False
    if not state.degenerate:
        state.fit = replace(state.fit, n_excesses=state.n_peaks_total)
        # recompute only while q stays in the quantile's domain; otherwise the
        # previous threshold is kept rather than crashing mid-stream
        if 0.0 < state.q < state.fit.n_excesses / state.k:
            state.z_q = gpd_quantile(state.h, state.fit, state.q, state.k)
    return PEAK
