"""Smart-meter data handling: CSV ingestion, z-score normalization,
sliding-window construction and a labeled synthetic household generator for
experiments without access to real feeder data.

CSV schema: header ``timestamp,power_kw`` with an optional ``label`` column;
timestamps are ISO-8601 on a strictly increasing minute grid. One incremental
reader, `iter_meter_csv`, parses every source and leaves holes as they are:
`detect` streams files and stdin through it into `OnlineDetector.run`, which
decides what a hole means, and `read_meter_csv` collects it into a
`MeterSeries`, filling holes of up to `MAX_FILL_MINUTES` missing minutes.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .memory import Reading

MINUTE = timedelta(minutes=1)
# the longest hole, in missing minutes, that is filled from the reading before it
MAX_FILL_MINUTES = 60


class CsvFormatError(ValueError):
    """Malformed meter CSV; message carries the offending line number."""


class NormalizationWarning(UserWarning):
    pass


@dataclass
class SeriesStats:
    """Mean/std (population) of a training series, used for z-scoring."""

    mean: float
    std: float
    count: int


@dataclass
class MeterSeries:
    """Columnar meter series: minute timestamps, powers, labels.

    `segments` are (start, end) index ranges of contiguous data; a new segment
    starts wherever a gap was too long to forward-fill.
    """

    timestamps: list[datetime]
    powers: np.ndarray
    labels: np.ndarray | None = None
    segments: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamps)

    def iter_readings(self):
        for t, p in zip(self.timestamps, self.powers):
            yield Reading(t, float(p))


def iter_meter_csv(fh):
    """Read a meter CSV incrementally from an open text stream.

    Checks the header, then yields ``(lineno, t, power, label)`` for every
    row; `label` is None without a label column. A non-finite power is passed
    on and holes are left as they are; unsorted, off-grid or malformed rows
    raise CsvFormatError naming the line and quoting the row.
    """
    header = fh.readline().strip()
    cols = header.split(",")
    if cols[:2] != ["timestamp", "power_kw"] or cols[2:] not in ([], ["label"]):
        raise CsvFormatError(f"line 1: expected header 'timestamp,power_kw[,label]', got {header!r}")
    n_cols = len(cols)
    prev_t = None
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise CsvFormatError(f"line {lineno}: expected {n_cols} fields, got {len(parts)}: {line!r}")
        try:
            t = datetime.fromisoformat(parts[0])
        except ValueError:
            raise CsvFormatError(f"line {lineno}: bad timestamp in {line!r}") from None
        try:
            power = float(parts[1])
        except ValueError:
            raise CsvFormatError(f"line {lineno}: bad power in {line!r}") from None
        label = None
        if n_cols == 3:
            if parts[2] not in ("0", "1"):
                raise CsvFormatError(f"line {lineno}: label must be 0 or 1 in {line!r}")
            label = int(parts[2])

        try:
            step = MINUTE if prev_t is None else t - prev_t
        except TypeError:
            raise CsvFormatError(f"line {lineno}: naive and timezone-aware timestamps mixed at {line!r}") from None
        if step != MINUTE:
            if step <= timedelta(0):
                raise CsvFormatError(f"line {lineno}: timestamps not strictly increasing at {line!r}")
            if step % MINUTE:
                raise CsvFormatError(f"line {lineno}: timestamp off the minute grid in {line!r}")
        yield lineno, t, power, label
        prev_t = t


def read_meter_csv(source, refuse_non_finite: bool = True) -> MeterSeries:
    """Collect `iter_meter_csv` from a path or an open text stream.

    A hole of up to `MAX_FILL_MINUTES` missing minutes is filled with the row
    before it; a longer one closes the current segment and opens a new one.
    A series must be clean, so a non-finite power raises CsvFormatError with
    its line number, unless `refuse_non_finite` is off (for reading labels).
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return read_meter_csv(fh, refuse_non_finite)

    timestamps, powers, labels, starts = [], [], [], [0]
    for lineno, t, power, label in iter_meter_csv(source):
        if refuse_non_finite and not math.isfinite(power):
            raise CsvFormatError(f"line {lineno}: non-finite power")
        if timestamps and (missing := (t - timestamps[-1]) // MINUTE - 1):
            if missing > MAX_FILL_MINUTES:
                starts.append(len(timestamps))
            else:
                timestamps += [timestamps[-1] + j * MINUTE for j in range(1, missing + 1)]
                powers += [powers[-1]] * missing
                labels += [labels[-1]] * missing
        timestamps.append(t)
        powers.append(power)
        labels.append(label)

    if not timestamps:
        raise CsvFormatError("no data rows")
    return MeterSeries(
        timestamps=timestamps,
        powers=np.asarray(powers, dtype=np.float64),
        labels=None if labels[0] is None else np.asarray(labels, dtype=np.int64),
        segments=list(zip(starts, starts[1:] + [len(timestamps)])),
    )


def write_meter_csv(path, series: MeterSeries) -> None:
    """Write a MeterSeries back out; lossless at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_meter_csv(series))


def format_meter_csv(series: MeterSeries) -> str:
    buf = io.StringIO()
    has_label = series.labels is not None
    buf.write("timestamp,power_kw,label\n" if has_label else "timestamp,power_kw\n")
    for i, (t, p) in enumerate(zip(series.timestamps, series.powers)):
        if has_label:
            buf.write(f"{t.isoformat()},{p:.9g},{int(series.labels[i])}\n")
        else:
            buf.write(f"{t.isoformat()},{p:.9g}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def fit_stats(values) -> SeriesStats:
    """Population mean/std of a training series; std falls back to 1 when zero."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot fit statistics on an empty series")
    mean = float(x.mean())
    std = float(x.std())
    if std <= 0.0:
        warnings.warn("constant series: falling back to std=1", NormalizationWarning, stacklevel=2)
        std = 1.0
    return SeriesStats(mean=mean, std=std, count=int(x.size))


def normalize(values, stats: SeriesStats) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - stats.mean) / stats.std


# ---------------------------------------------------------------------------
# Sliding windows
# ---------------------------------------------------------------------------


@dataclass
class WindowBatch:
    """Paired context/target windows; row i of gm_windows immediately precedes
    row i of lm_windows in the source series."""

    lm_windows: np.ndarray
    gm_windows: np.ndarray

    def __len__(self) -> int:
        return self.lm_windows.shape[0]


def sliding_windows(values, lm: int, gm: int, stride: int = 1) -> WindowBatch:
    """All (global, local) window pairs at the given stride."""
    x = np.asarray(values, dtype=np.float64)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    span = lm + gm
    if x.size < span:
        raise ValueError(f"series of {x.size} too short for window span {span}")
    windows = np.lib.stride_tricks.sliding_window_view(x, span)[::stride]
    return WindowBatch(lm_windows=windows[:, gm:].copy(), gm_windows=windows[:, :gm].copy())


# ---------------------------------------------------------------------------
# Synthetic household
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseProfile:
    """Smooth double-peak daily load shape plus Gaussian noise (all kW)."""

    base_kw: float = 0.4
    morning_kw: float = 0.6
    evening_kw: float = 1.0
    morning_hour: float = 7.5
    evening_hour: float = 19.0
    width_hours: float = 1.5
    noise_kw: float = 0.05


@dataclass(frozen=True)
class SynthConfig:
    days: int = 7
    base_profile: BaseProfile = BaseProfile()
    ev_power: float = 3.3
    session_rate: float = 1.0 / 1.5  # expected charging sessions per day
    duration_minutes: tuple[int, int] = (60, 240)
    seed: int = 0
    start: datetime = datetime(2018, 1, 1)

    def __post_init__(self):
        if self.ev_power <= 0:
            raise ValueError("ev_power must be positive")
        if self.duration_minutes[0] < 15 or self.duration_minutes[0] > self.duration_minutes[1]:
            raise ValueError("durations must be >= 15 minutes and ordered")
        if self.session_rate < 0:
            raise ValueError("session_rate must be nonnegative")


def synth_household(cfg: SynthConfig) -> MeterSeries:
    """Generate a labeled synthetic meter series, deterministic per seed.

    Rectangular charging blocks of `ev_power` kW start at Poisson-arriving
    times (non-overlapping) with uniform durations; labels are 1 exactly
    during sessions.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.days * 1440
    minute_of_day = np.arange(n) % 1440.0
    hours = minute_of_day / 60.0
    prof = cfg.base_profile

    def bump(center: float, amp: float) -> np.ndarray:
        # wrap-around distance so the evening peak decays smoothly past midnight
        d = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
        return amp * np.exp(-0.5 * (d / prof.width_hours) ** 2)

    power = prof.base_kw + bump(prof.morning_hour, prof.morning_kw) + bump(prof.evening_hour, prof.evening_kw)
    power = power + rng.normal(0.0, prof.noise_kw, size=n)

    labels = np.zeros(n, dtype=np.int64)
    if cfg.session_rate > 0:
        mean_gap = 1440.0 / cfg.session_rate
        t = 0
        while True:
            t += max(1, int(round(rng.exponential(mean_gap))))
            if t >= n:
                break
            dur = int(rng.integers(cfg.duration_minutes[0], cfg.duration_minutes[1] + 1))
            end = min(t + dur, n)
            labels[t:end] = 1
            power[t:end] += cfg.ev_power
            t = end

    power = np.maximum(power, 0.0)
    timestamps = [cfg.start + i * MINUTE for i in range(n)]
    return MeterSeries(
        timestamps=timestamps,
        powers=power,
        labels=labels,
        segments=[(0, n)],
    )


def non_ev_segments(series: MeterSeries, min_len: int = 1) -> list[tuple[int, int]]:
    """Contiguous index ranges that are inside a data segment and labeled non-EV."""
    out: list[tuple[int, int]] = []
    labels = series.labels
    for seg_start, seg_end in series.segments:
        if labels is None:
            runs = [(seg_start, seg_end)]
        else:
            # a run of non-EV rows starts and ends where the padded mask flips
            mask = np.concatenate(([False], labels[seg_start:seg_end] == 0, [False]))
            edges = (seg_start + np.flatnonzero(np.diff(mask))).tolist()
            runs = zip(edges[::2], edges[1::2])
        out.extend((i, j) for i, j in runs if j - i >= min_len)
    return out
