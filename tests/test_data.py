"""CSV ingestion, normalization, windowing and synthetic-generator tests."""

import io
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evdetect import data as data_module
from evdetect.data import (
    CsvFormatError,
    MeterSeries,
    NormalizationWarning,
    SynthConfig,
    fit_stats,
    format_meter_csv,
    iter_meter_csv,
    non_ev_segments,
    normalize,
    read_meter_csv,
    sliding_windows,
    synth_household,
)


def _csv(text: str):
    return read_meter_csv(io.StringIO(text))


class TestReadCsv:
    def test_two_row_file(self):
        series = _csv("timestamp,power_kw\n2018-01-01T00:00,1.5\n2018-01-01T00:01,2.5\n")
        assert len(series) == 2
        assert series.powers.tolist() == [1.5, 2.5]
        assert series.labels is None
        assert series.segments == [(0, 2)]

    def test_label_column_preserved(self):
        series = _csv("timestamp,power_kw,label\n2018-01-01T00:00,1.0,0\n2018-01-01T00:01,4.3,1\n")
        assert series.labels.tolist() == [0, 1]

    def test_gap_forward_filled(self):
        series = _csv("timestamp,power_kw\n2018-01-01T00:00,1.0\n2018-01-01T00:02,2.0\n")
        assert len(series) == 3
        assert series.powers.tolist() == [1.0, 1.0, 2.0]
        assert series.timestamps[1] == datetime(2018, 1, 1, 0, 1)

    def test_long_gap_splits_segments(self):
        rows = ["timestamp,power_kw", "2018-01-01T00:00,1.0", "2018-01-01T02:00,2.0", "2018-01-01T02:01,3.0"]
        series = _csv("\n".join(rows) + "\n")
        assert len(series) == 3  # nothing filled across the 2-hour gap
        assert series.segments == [(0, 1), (1, 3)]

    def test_unsorted_rejected(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            _csv("timestamp,power_kw\n2018-01-01T00:01,1.0\n2018-01-01T00:00,2.0\n")

    def test_malformed_row_has_line_number(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            _csv("timestamp,power_kw\nnot-a-time,1.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            _csv("timestamp,power_kw\n2018-01-01T00:00,1.0\n2018-01-01T00:01,oops\n")

    def test_bad_header_rejected(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            _csv("time,watts\n2018-01-01T00:00,1.0\n")

    def test_round_trip_lossless(self):
        rng = np.random.default_rng(0)
        n = 200
        t0 = datetime(2018, 1, 1)
        series = MeterSeries(
            timestamps=[t0 + timedelta(minutes=i) for i in range(n)],
            powers=rng.uniform(0, 10, size=n).round(6),
            labels=rng.integers(0, 2, size=n),
            segments=[(0, n)],
        )
        text = format_meter_csv(series)
        back = _csv(text)
        np.testing.assert_array_equal(back.powers, series.powers)
        np.testing.assert_array_equal(back.labels, series.labels)
        assert back.timestamps == series.timestamps

    def test_off_grid_rejected_with_row(self):
        with pytest.raises(CsvFormatError, match=r"line 3: .*'2018-01-01T00:01:30,2.0'"):
            _csv("timestamp,power_kw\n2018-01-01T00:00,1.0\n2018-01-01T00:01:30,2.0\n")

    def test_mixed_naive_and_aware_timestamps_rejected(self):
        with pytest.raises(CsvFormatError, match="line 3: naive and timezone-aware"):
            _csv("timestamp,power_kw\n2018-01-01T00:00,1.0\n2018-01-01T00:01+00:00,2.0\n")

    def test_non_finite_power_rejected(self):
        with pytest.raises(CsvFormatError, match="line 3: non-finite power"):
            _csv("timestamp,power_kw\n2018-01-01T00:00,1.0\n2018-01-01T00:01,inf\n")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("2018-01-01T00:00,1.0\n2018-01-01T00:00,2.0\n", " line 3: timestamps not strictly increasing at "),
            ("2018-01-01T00:00,1.0\n2018-01-01T00:01,nan\n", " line 3: non-finite power"),
            ("", ": no data rows"),
        ],
        ids=["unsorted", "non-finite", "empty"],
    )
    def test_errors_from_a_path_name_it(self, tmp_path, body, message):
        path = tmp_path / "meter.csv"
        path.write_text("timestamp,power_kw\n" + body)
        with pytest.raises(CsvFormatError) as excinfo:
            read_meter_csv(path)
        assert str(excinfo.value).startswith(f"{path}{message}")

    def test_iter_names_a_given_source(self):
        with pytest.raises(CsvFormatError, match="^stdin line 1: expected header"):
            list(iter_meter_csv(io.StringIO("time,watts\n"), "stdin"))

    def test_iter_passes_non_finite_and_yields_no_fill_rows(self):
        # filling is the reader's caller's: `read_meter_csv` or `OnlineDetector.run`
        text = "timestamp,power_kw,label\n2018-01-01T00:00,1.0,0\n2018-01-01T00:01,nan,1\n2018-01-01T02:04,2.0,0\n"
        rows = list(iter_meter_csv(io.StringIO(text)))
        assert [len(r) for r in rows] == [4, 4, 4]
        assert [r[0] for r in rows] == [2, 3, 4]
        assert [r[1] for r in rows] == [datetime(2018, 1, 1, 0, 0), datetime(2018, 1, 1, 0, 1), datetime(2018, 1, 1, 2, 4)]
        np.testing.assert_array_equal([r[2] for r in rows], [1.0, np.nan, 2.0])
        assert [r[3] for r in rows] == [0, 1, 0]

    @given(st.data())
    def test_matches_slicing_oracle(self, data):
        n = data.draw(st.integers(1, 500), label="n")
        max_fill = data.draw(st.sampled_from([60, 0, 7]), label="max_fill")
        # gaps of exactly max_fill and max_fill + 1 minutes sit on the segment boundary
        lengths = st.one_of(st.sampled_from([max(1, max_fill), max_fill + 1]), st.integers(1, 150))
        keep = np.ones(n, dtype=bool)
        for start, length in data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), lengths), max_size=5), label="dropped runs"
        ):
            keep[start : start + length] = False
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        powers = rng.uniform(0.0, 5.0, size=n).round(3)
        labels = rng.integers(0, 2, size=n)
        t0 = datetime(2018, 1, 1)
        text = "timestamp,power_kw,label\n" + "".join(
            f"{(t0 + timedelta(minutes=int(i))).isoformat()},{powers[i]},{labels[i]}\n" for i in np.flatnonzero(keep)
        )
        if not keep.any():
            with pytest.raises(CsvFormatError, match="no data rows"):
                _csv(text)
            return
        with mock.patch.object(data_module, "MAX_FILL_MINUTES", max_fill):
            series = read_meter_csv(io.StringIO(text))

        kept = np.flatnonzero(keep)
        runs = np.split(kept, np.flatnonzero(np.diff(kept) - 1 > max_fill) + 1)
        minutes = np.concatenate([np.arange(run[0], run[-1] + 1) for run in runs])
        source = kept[np.searchsorted(kept, minutes, side="right") - 1]
        ends = np.cumsum([run[-1] - run[0] + 1 for run in runs])
        starts = np.r_[0, ends[:-1]]
        assert series.timestamps == [t0 + timedelta(minutes=int(m)) for m in minutes]
        np.testing.assert_array_equal(series.powers, powers[source])
        np.testing.assert_array_equal(series.labels, labels[source])
        assert series.segments == list(zip(starts.tolist(), ends.tolist()))

    @pytest.mark.slow
    def test_full_year_scale_parse(self):
        # comparable to the largest per-household test split (522146 rows)
        n = 522146
        t0 = datetime(2018, 1, 1)
        buf = io.StringIO()
        buf.write("timestamp,power_kw\n")
        t = t0
        for i in range(n):
            buf.write(f"{t.isoformat()},{(i % 37) * 0.1:.3f}\n")
            t += timedelta(minutes=1)
        buf.seek(0)
        series = read_meter_csv(buf)
        assert len(series) == n
        assert series.segments == [(0, n)]


class TestStats:
    def test_constant_series_fallback(self):
        with pytest.warns(NormalizationWarning):
            stats = fit_stats([1.0, 1.0, 1.0])
        assert stats.mean == 1.0 and stats.std == 1.0
        np.testing.assert_array_equal(normalize([1.0, 1.0, 1.0], stats), [0.0, 0.0, 0.0])

    def test_population_std(self):
        stats = fit_stats([0.0, 2.0])
        np.testing.assert_allclose(normalize([0.0, 2.0], stats), [-1.0, 1.0])

    def test_normalized_moments(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=5.0, scale=3.0, size=10_000)
        stats = fit_stats(x)
        z = normalize(x, stats)
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-6


class TestSlidingWindows:
    def test_counting_formula(self):
        batch = sliding_windows(np.arange(100.0), lm=8, gm=32, stride=1)
        assert len(batch) == 61

    def test_single_window_boundary(self):
        batch = sliding_windows(np.arange(40.0), lm=8, gm=32, stride=1)
        assert len(batch) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            sliding_windows(np.arange(39.0), lm=8, gm=32)

    def test_rows_match_slicing_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        for stride in (1, 3, 7):
            batch = sliding_windows(x, lm=5, gm=11, stride=stride)
            for i in range(len(batch)):
                s = i * stride
                joined = np.concatenate([batch.gm_windows[i], batch.lm_windows[i]])
                np.testing.assert_array_equal(joined, x[s : s + 16])


class TestSynth:
    def test_no_sessions_when_rate_zero(self):
        series = synth_household(SynthConfig(days=3, session_rate=0.0, seed=4))
        assert series.labels.sum() == 0
        assert len(series) == 3 * 1440

    def test_separability_self_check(self):
        cfg = SynthConfig(days=30, seed=5)
        series = synth_household(cfg)
        labels = series.labels
        assert labels.sum() > 0
        good_days = 0
        for day in range(cfg.days):
            sl = slice(day * 1440, (day + 1) * 1440)
            lab, pw = labels[sl], series.powers[sl]
            if lab.sum() == 0:
                good_days += 1
                continue
            if pw[lab == 1].min() >= pw[lab == 0].max() + 1.0:
                good_days += 1
        assert good_days >= 0.99 * cfg.days

    def test_deterministic_per_seed(self):
        a = synth_household(SynthConfig(days=5, seed=6))
        b = synth_household(SynthConfig(days=5, seed=6))
        assert format_meter_csv(a) == format_meter_csv(b)
        c = synth_household(SynthConfig(days=5, seed=7))
        assert format_meter_csv(a) != format_meter_csv(c)

    def test_durations_within_bounds(self):
        series = synth_household(SynthConfig(days=60, seed=8, duration_minutes=(30, 45)))
        runs = []
        run = 0
        for lab in series.labels:
            if lab:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        assert runs and all(15 <= r <= 45 for r in runs)  # end-clipping can shorten

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(ev_power=0.0)
        with pytest.raises(ValueError):
            SynthConfig(duration_minutes=(10, 60))
        for field, value in (("days", 2.5), ("seed", 1.5), ("duration_minutes", (60.5, 240)), ("duration_minutes", (60, 240.0))):
            with pytest.raises(ValueError, match=f"^{field} must be (an integer|integers), got "):
                SynthConfig(**{field: value})
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SynthConfig(seed=-1)
        for value in ((60,), (60, 120, 240), (), 60):
            with pytest.raises(ValueError, match=r"^duration_minutes must hold two integers \(shortest, longest\), got "):
                SynthConfig(duration_minutes=value)


def _non_ev_segments_oracle(series: MeterSeries, min_len: int = 1) -> list[tuple[int, int]]:
    """`non_ev_segments` as a row-by-row scan."""
    out = []
    labels = series.labels
    for seg_start, seg_end in series.segments:
        if labels is None:
            if seg_end - seg_start >= min_len:
                out.append((seg_start, seg_end))
            continue
        i = seg_start
        while i < seg_end:
            if labels[i] == 0:
                j = i
                while j < seg_end and labels[j] == 0:
                    j += 1
                if j - i >= min_len:
                    out.append((i, j))
                i = j
            else:
                i += 1
    return out


class TestNonEvSegments:
    @given(st.data())
    def test_matches_scan_oracle(self, data):
        n = data.draw(st.integers(0, 200), label="n")
        labels = data.draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
        cuts = sorted(data.draw(st.sets(st.integers(0, n)), label="segment bounds"))
        series = MeterSeries(
            timestamps=[datetime(2018, 1, 1) + timedelta(minutes=i) for i in range(n)],
            powers=np.zeros(n),
            labels=None if labels is None else np.array(labels, dtype=np.int64),
            segments=list(zip(cuts, cuts[1:])),
        )
        min_len = data.draw(st.integers(-1, 30), label="min_len")
        got = non_ev_segments(series, min_len=min_len)
        assert got == _non_ev_segments_oracle(series, min_len=min_len)
        assert all(type(i) is int and type(j) is int for i, j in got)

    def test_splits_on_labels_and_segments(self):
        n = 50
        labels = np.zeros(n, dtype=np.int64)
        labels[10:15] = 1
        series = MeterSeries(
            timestamps=[datetime(2018, 1, 1) + timedelta(minutes=i) for i in range(n)],
            powers=np.zeros(n),
            labels=labels,
            segments=[(0, 30), (30, 50)],
        )
        assert non_ev_segments(series) == [(0, 10), (15, 30), (30, 50)]
        assert non_ev_segments(series, min_len=16) == [(30, 50)]


def test_window_count_matches_stream_snapshots():
    # cross-module consistency with the FIFO engine
    from evdetect.memory import Reading, StreamState

    rng = np.random.default_rng(9)
    x = rng.normal(size=120)
    lm, gm = 4, 9
    batch = sliding_windows(x, lm, gm, stride=1)
    state = StreamState(lm, gm)
    t0 = datetime(2018, 1, 1)
    complete = 0
    for i, v in enumerate(x):
        state.push(Reading(t0 + timedelta(minutes=i), float(v)))
        if state.snapshot() is not None:
            complete += 1
    assert complete == len(batch)
