"""Streaming peak-over-threshold anomaly thresholding.

Calibration picks an initial threshold h as a high empirical quantile of a
batch of scores, fits a generalized Pareto distribution to the excesses above
h by maximum likelihood (Grimshaw's one-dimensional reduction), and derives an
extreme quantile z_q as the anomaly threshold. While streaming, scores above
z_q are anomalies and never touch the fit; scores in (h, z_q] are peaks that
extend the excess set and refresh the fit and threshold; everything else only
advances the observation counter.

A refit scans Grimshaw's whole bracket grid in one broadcast (see
grimshaw_fit), so a new higher-likelihood root in another bracket is never
missed. Only the root search inside a span is warm-started: Newton's method
starts from the previous fit's theta = gamma_hat/sigma_hat when that lies in
the span. The previous fit is read from the state alone, so a detector
resumed from a file refits as an uninterrupted one does.

Every peak reading refits, and a refit spends its time on Grimshaw's
arithmetic alone; grimshaw_fit gives the split of a fit's time. Refits do not
set the p99 of a streamed reading's latency by themselves. On `perfbench`'s
`replay` (seed 1, two passes of its four households, detecting readings,
three runs on a shared 2-core Xeon) peak readings are 2.2% of the readings
and take about 2.4 times an ordinary reading's median, 110 µs of it in the
fit. Ordinary readings' own p99 is 2.2-2.3 times their p50 (200-217 µs
against 93-95 µs), and taking each reading's fit time out lowers the pooled
p99 from 235-246 µs to 201-219 µs: refits add 12-19% to it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

GAMMA_ZERO = 1e-8
# Grimshaw's root search: equal brackets over the theta range, and a root's
# tolerance THETA_TOL + _THETA_RTOL*|theta| (scipy's brentq's, at its default rtol)
BRACKETS = 20
THETA_TOL = 1e-10
_THETA_RTOL = 4.0 * sys.float_info.epsilon
# the most values one root search takes; bisection alone narrows any span of
# the grid to the root tolerance in at most about 75
_ROOT_STEPS = 200
# the fewest excesses over the initial threshold a calibration fits a GPD to
MIN_PEAKS = 10
# the fewest scores a calibration takes
MIN_CALIBRATION = 100
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
    SpotDomainError instead of returning NaN for infeasible arguments: no
    excesses, one that is not finite and positive, a NaN gamma, a sigma that
    is not finite and positive, or 1 + (gamma/sigma)*y <= 0 anywhere.
    """
    y = np.asarray(excesses, dtype=np.float64).ravel()
    if y.size == 0:
        raise SpotDomainError("no excesses")
    if not 0.0 < sigma < math.inf:
        raise SpotDomainError(f"sigma must be finite and positive, got {sigma}")
    if math.isnan(gamma):
        raise SpotDomainError("gamma must not be NaN")
    _excess_range(y)
    ll = _log_likelihood(gamma, sigma, y)
    if ll is None:
        raise SpotDomainError("1 + (gamma/sigma)*y must stay positive")
    return ll


def _excess_range(y: np.ndarray) -> tuple[float, float]:
    """(min, max) of a non-empty 1-D excess array; refuses one that is not positive and finite."""
    y_min, y_max = float(np.minimum.reduce(y)), float(np.maximum.reduce(y))
    if not y_min > 0.0:  # a NaN excess lands here too
        raise SpotDomainError("excesses must be positive")
    if not y_max < math.inf:
        raise SpotDomainError("excesses must be finite")
    return y_min, y_max


def _log_likelihood(gamma: float, sigma: float, y: np.ndarray) -> float | None:
    """gpd_log_likelihood's arithmetic, on excesses `_excess_range` has passed.

    None where 1 + (gamma/sigma)*y is not positive throughout (or is NaN).
    """
    n = y.size
    if abs(gamma) < GAMMA_ZERO:
        return -n * math.log(sigma) - float(np.add.reduce(y)) / sigma
    z = 1.0 + (gamma / sigma) * y
    if not np.minimum.reduce(z) > 0.0:
        return None
    return -n * math.log(sigma) - (1.0 + 1.0 / gamma) * float(np.add.reduce(np.log(z)))


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


def _bracket_edges(lo: float, hi: float) -> list[float]:
    """np.linspace(lo, hi, BRACKETS + 1).tolist(), bit for bit: lo + i*step, then hi itself."""
    step = (hi - lo) / BRACKETS
    return [lo + i * step for i in range(BRACKETS)] + [hi]


def _grimshaw_root(y: np.ndarray, lo: float, hi: float, w_lo: float, start: float | None) -> float:
    """A root of u*v - 1 in the span (lo, hi), where it changes sign; w_lo is its value at lo.

    Newton's method, with u' = -mean(y/z^2) and v' = mean(y/z) for
    z = 1 + theta*y, from `start` when that lies inside the span and from the
    midpoint otherwise. Each value narrows the span to the part where the sign
    still changes, and a step that would leave it (or a zero derivative)
    bisects it instead. Once a Newton step is within the root tolerance
    tol = THETA_TOL + 4 eps |theta| (brentq's), theta is returned only if
    u*v - 1 changes sign between it and a probe at theta +- tol, toward the
    span's other end, or if that end is nearer than the probe; a probe that
    finds no change (rounding noise misled Newton) bisects. At most
    `_ROOT_STEPS` values are taken, so the search cannot raise. Values are
    `_grimshaw_w`'s arithmetic, bit for bit.
    """
    n = y.size
    lo_negative = w_lo < 0.0
    theta = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    probed = None  # the converged iterate that a probe at theta checks
    for _ in range(_ROOT_STEPS):
        z = 1.0 + theta * y
        r = 1.0 / z
        u = float(np.add.reduce(r)) / n
        v = 1.0 + float(np.add.reduce(np.log(z))) / n
        w = u * v - 1.0
        if w == 0.0:
            return theta
        if (w < 0.0) == lo_negative:
            lo = theta
        else:
            hi = theta
        if probed is not None:
            if probed in (lo, hi):
                return probed  # the sign changes between it and the probe
            probed, theta = None, 0.5 * (lo + hi)
            continue
        yr = y * r
        slope = u * float(np.add.reduce(yr)) / n - v * float(np.add.reduce(yr * r)) / n
        dx = w / slope if slope else math.nan  # NaN bisects
        tol = THETA_TOL + _THETA_RTOL * abs(theta)
        if abs(dx) <= tol:
            probe = theta + tol if theta == lo else theta - tol
            if not lo < probe < hi:
                return theta  # the span's other end, within tol, has the other sign
            probed, theta = theta, probe
            continue
        theta -= dx
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    return theta


def grimshaw_fit(excesses, start: float | None = None) -> GpdFit:
    """Maximum-likelihood GPD fit via the one-dimensional reduction.

    The two-parameter problem is reduced to finding roots of u(theta)*v(theta)=1
    in theta = gamma/sigma; each root maps back through gamma = v(theta)-1,
    sigma = gamma/theta. theta = 0 (the exponential solution gamma=0,
    sigma=mean) is always a candidate; the candidate with the highest
    log-likelihood wins.

    Roots are searched over `BRACKETS` equal brackets spanning
    [-1/max(y), 10/mean(y)], the one around 0 split to skip the trivial double
    root there. The edges are np.linspace's arithmetic, bit for bit. u*v - 1
    is evaluated once at every distinct span endpoint, in one broadcast over a
    (points, n) array (row blocks once n is large), and `_grimshaw_root` runs
    only inside spans where it changes sign, from `start` (a previous fit's
    theta) in the span that holds it. Excesses so small (below about 6e-308)
    that the range's width overflows get the exponential fit, with no grid
    built.

    The excesses are checked once; the exponential candidate and every root
    are then scored with `_log_likelihood`, which skips those checks, and the
    span ends are indexed while the spans are built. On the excess sets of
    the benchmark's seed-1 replay streams (385 refits of 28 to 153 excesses,
    0.83 roots per fit), a fit from the previous fit's theta takes about
    83 µs, against 103 µs from the spans' midpoints and 126 µs with scipy's
    brentq in each span (medians of 21 interleaved rounds, 2-core Xeon,
    numpy 2.4). Of those 83 µs the root search takes 37 (5.6 values of
    u*v - 1 per root, the last a probe, against brentq's 13.7), the grid
    broadcast 19, and the checks, the edges, the span loop and the
    likelihoods the remaining 27.
    """
    y = np.asarray(excesses, dtype=np.float64)
    n = y.size
    if n < 2:
        raise SpotDomainError("need at least two excesses to fit")
    y_min, y_max = _excess_range(y)
    y_mean = float(np.add.reduce(y)) / n  # np.mean's arithmetic
    if y_max == y_min:
        # all-equal excesses: the reduction is degenerate
        return GpdFit(0.0, y_mean, n)
    best_gamma, best_sigma, best_ll = 0.0, y_mean, _log_likelihood(0.0, y_mean, y)

    lo = -1.0 / y_max + 1e-8
    if lo >= 0.0:
        lo = -0.5 / y_max
    hi = 10.0 / y_mean
    if math.isinf(hi - lo):
        # excesses below about 6e-308: the range overflows, so there is no grid
        return GpdFit(best_gamma, best_sigma, n)
    dead_zone = 1e-7 / y_mean  # skip the trivial double root at theta = 0
    edges = _bracket_edges(lo, hi)

    # each span, with the indexes of its two ends among the distinct endpoints
    index: dict[float, int] = {}
    spans = []
    for a, b in zip(edges, edges[1:]):
        for s_lo, s_hi in ((a, -dead_zone), (dead_zone, b)) if a < 0.0 < b else ((a, b),):
            if s_lo < s_hi:
                spans.append((s_lo, s_hi, index.setdefault(s_lo, len(index)), index.setdefault(s_hi, len(index))))
    points = np.array(list(index))
    rows = max(1, _GRID_BLOCK // n)
    w: list[float] = []
    for i in range(0, points.size, rows):
        w += _grimshaw_w(points[i : i + rows, None], y).tolist()

    for s_lo, s_hi, i_lo, i_hi in spans:
        if w[i_lo] == 0.0:
            theta = s_lo
        elif w[i_lo] * w[i_hi] < 0.0:
            theta = _grimshaw_root(y, s_lo, s_hi, w[i_lo], start)
        else:
            continue
        if abs(theta) < dead_zone:
            continue
        gamma = float(np.add.reduce(np.log1p(theta * y))) / n  # np.mean's arithmetic
        sigma = gamma / theta
        if sigma <= 0 or abs(gamma) < GAMMA_ZERO:
            continue
        ll = _log_likelihood(gamma, sigma, y)
        if ll is not None and ll > best_ll:
            best_gamma, best_sigma, best_ll = gamma, sigma, ll

    return GpdFit(best_gamma, best_sigma, n)


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
    if x.size < MIN_CALIBRATION:
        raise ValueError(f"need at least {MIN_CALIBRATION} calibration scores, got {x.size}")
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
    the excess set, refresh the fit (every `refit_stride` peaks, its root
    search starting from the previous fit's theta) and recompute z_q; normal
    points only advance k.
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
            # the previous fit's theta; a loaded state's sigma_hat is only known to be finite
            fit = state.fit
            state.fit = grimshaw_fit(state.peaks, fit.gamma_hat / fit.sigma_hat if fit.sigma_hat > 0.0 else None)
            state.degenerate = False
    if not state.degenerate:
        state.fit = replace(state.fit, n_excesses=state.n_peaks_total)
        # recompute only while q stays in the quantile's domain; otherwise the
        # previous threshold is kept rather than crashing mid-stream
        if 0.0 < state.q < state.fit.n_excesses / state.k:
            state.z_q = gpd_quantile(state.h, state.fit, state.q, state.k)
    return PEAK
