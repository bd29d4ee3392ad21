"""The two workloads, untraced, with their correctness checks.

Each `run_*` function takes a directory written by `gen.py`, measures for
about `seconds` of wall time and returns a `Result`. `metrics` holds the
contract's end-to-end metrics (see BENCHMARK.json and README.md for what each
one means on each workload); `named` holds the same measurements under the
names a reader of the workload would use, plus the quality numbers.

Loops are closed: the next reading (replay) or tick (fleet) starts when the
previous one has finished. Both workloads repeat an identical unit of work (a
cycle of passes over the households; a fleet round) and start another only
while the previous one's duration says it would end within `seconds`, beyond
the minimum count.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from common import Checks, HostSpeed, Ops, compare_scored, median, peak_rss_mb, tail, tail_percentile  # before numpy
import numpy as np
from evdetect import (
    OnlineDetector,
    Reading,
    confusion,
    format_event,
    load_model,
    mtr_forward,
    normalize,
    pot_calibrate,
    precision_recall_f1,
    read_meter_csv,
    roc_auc,
    sliding_windows,
    spot_step,
)
from evdetect.engine import DETECTING, WARMUP
from evdetect.spot import ANOMALY
from gen import Sizes, calibration_guard, engine_config

# C06 acceptance floors for detection quality.
F1_FLOOR = 0.80
AUC_FLOOR = 0.90
# Engine equivalence tolerance on scores (acceptance test C01 measures ~3e-15).
SCORE_TOL = 1e-9

REPLAY_SETUPS_PER_PASS = 3
FLEET_ROUND_TICKS = 50
FLEET_MIN_ROUNDS = 2  # p90 of tick time needs ten ticks beyond it: 100 ticks
FLEET_SAMPLE_METERS = 4
# host-speed samples (about 20 ms each) inside every unit of work
SPEED_EVERY_READINGS = 500
SPEED_EVERY_TICKS = 4

MINUTE = timedelta(minutes=1)


@dataclass
class Result:
    metrics: dict[str, float]
    named: dict[str, tuple[float, str]]
    samples: dict[str, list]
    sizes: dict = field(default_factory=dict)


def load_inputs(inp: str) -> tuple[dict, Sizes]:
    with open(os.path.join(inp, "inputs.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    return info, Sizes(**info["sizes"])


def _keep_going(started: float, last: float, seconds: float) -> bool:
    """True while another unit of duration `last` fits before `seconds` elapse."""
    return time.perf_counter() - started + last <= seconds


def _report_exception(where: str) -> None:
    print(f"perfbench: exception in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# replay: one meter's CSV streamed through the engine, events to a file
# ---------------------------------------------------------------------------


def replay_pass(det: OnlineDetector, csv_path: str, events_path: str, ops: Ops, speed: HostSpeed):
    """One `evdetect detect`-style pass. Returns the series, the per-reading
    detecting-phase latencies (ns) with the host-speed stretch each fell in,
    the (phase, score, threshold, label) of every reading, and the time spent
    sampling the host's speed."""
    lat_ns: list[int] = []
    stretch: list[int] = []
    out: list[tuple] = []
    paused = 0.0
    series = read_meter_csv(csv_path)
    with open(events_path, "w", encoding="utf-8") as fh:
        for i, reading in enumerate(series.iter_readings()):
            if i % SPEED_EVERY_READINGS == 0:
                paused += speed.sample()
            started = time.perf_counter_ns()
            try:
                ev = det.step(reading)
                if ev.phase != WARMUP:
                    fh.write(format_event(ev) + "\n")
            except Exception:
                ops.add("step", failed=1)
                _report_exception("replay step")
                out.append((None, None, None, 0))
                continue
            done = time.perf_counter_ns()
            ops.add("step", failed=int(ev.error is not None))
            if ev.phase == DETECTING:
                lat_ns.append(done - started)
                stretch.append(i // SPEED_EVERY_READINGS)
            out.append((ev.phase, ev.score, ev.threshold, ev.label))
    return series, lat_ns, stretch, out, paused


def reference_replay(series, params, stats, cfg) -> tuple[list[float], list[int]]:
    """Scores from one batched cache-off `mtr_forward` over every window of the
    series, and labels from SPOT driven by those scores."""
    x = normalize(series.powers, stats)
    w = sliding_windows(x, cfg.lm, cfg.gm, stride=1)
    rec = mtr_forward(w.lm_windows, w.gm_windows, params)
    scores = [float(s) for s in np.mean((w.lm_windows - rec) ** 2, axis=1)]
    spot = pot_calibrate(
        scores[: cfg.calibration_len],
        q=cfg.q,
        init_level=cfg.init_level,
        refit_stride=cfg.refit_stride,
        max_peaks=cfg.max_peaks,
    )
    labels = [0] * cfg.calibration_len + [
        int(spot_step(spot, s) == ANOMALY) for s in scores[cfg.calibration_len :]
    ]
    return scores, labels


def highest_tail(name: str, values: list[float], unit: str) -> dict[str, tuple[float, str]]:
    """The highest percentile with ten samples beyond it, and the sample count."""
    p = tail_percentile(len(values))
    out = {f"{name}_samples": (len(values), "count")}
    if p is not None:
        out[f"{name}_p{p:g}"] = (tail(values, p), unit)
    return out


def detection_quality(truth, labels, scores) -> dict[str, float]:
    p, r, f1 = precision_recall_f1(confusion(truth, labels))
    return {"precision": p, "recall": r, "f1": f1, "auc": roc_auc(truth, np.asarray(scores))}


def replay_paths(inp: str) -> list[str]:
    return sorted(os.path.join(inp, n) for n in os.listdir(inp) if n.startswith("meter-") and n.endswith(".csv"))


def run_replay(inp: str, seconds: float, checks: Checks, ops: Ops) -> Result:
    """Cycles of one pass per household, each pass with a fresh detector: one
    cycle, then more while the last one's duration fits before `seconds`.
    Every cycle does the same work, so the latency distribution does not
    depend on speed; F1 pools the first cycle. Times are also rescaled by each
    pass's host-speed factor (see `common.HostSpeed`)."""
    info, sizes = load_inputs(inp)
    cfg = engine_config(sizes)
    model_path = os.path.join(inp, "model.npz")
    csv_paths = replay_paths(inp)
    events_path = os.path.join(inp, "events.jsonl")

    # per pass: raw values, and the same rescaled by the pass's host-speed factor
    setups, rates, lat_ns, factors = [], [], [], []
    nominal = {"setup_s": [], "rates": [], "lat_ms": []}
    passes: list[tuple[int, list]] = []
    series_of = {}
    speed = HostSpeed()
    started = time.perf_counter()
    last = 0.0
    while not passes or _keep_going(started, last, seconds):
        c0 = time.perf_counter()
        for j, csv_path in enumerate(csv_paths):
            since = len(speed.samples)
            pass_setups = []
            for _ in range(REPLAY_SETUPS_PER_PASS):
                s0 = time.perf_counter()
                params, stats = load_model(model_path)
                det = OnlineDetector(params, stats, cfg)
                pass_setups.append(time.perf_counter() - s0)
            t1 = time.perf_counter()
            series, lat, stretch, out, paused = replay_pass(det, csv_path, events_path, ops, speed)
            rate = len(series) / (time.perf_counter() - t1 - paused)
            fs = speed.factors(since)
            f = len(fs) / sum(1.0 / x for x in fs)  # nominal over the pass's mean kernel time
            factors.append(f)
            setups.extend(pass_setups)
            rates.append(rate)
            lat_ns.extend(lat)
            nominal["setup_s"].extend(v * fs[0] for v in pass_setups)
            nominal["rates"].append(rate / f)
            nominal["lat_ms"].extend(v / 1e6 * fs[b] for v, b in zip(lat, stretch))
            passes.append((j, out))
            series_of.setdefault(j, series)
        last = time.perf_counter() - c0
    rss = peak_rss_mb()

    first = {}
    for j, out in passes:
        first.setdefault(j, out)
    repeats_ok = all(out == first[j] for j, out in passes)
    checks.record("replay.passes_identical", repeats_ok, f"{len(passes)} passes over {len(first)} households")
    with open(events_path, encoding="utf-8") as fh:
        file_labels = [json.loads(line)["label"] for line in fh]
    emitted = [o for o in passes[-1][1] if o[0] not in (WARMUP, None)]
    checks.record(
        "replay.events_file",
        file_labels == [o[3] for o in emitted],
        f"{len(file_labels)} lines for {len(emitted)} events",
    )

    guard = calibration_guard(sizes)
    truth, labels, scores = [], [], []
    for j, out in sorted(first.items()):
        series = series_of[j]
        ref_scores, ref_labels = reference_replay(series, params, stats, cfg)
        scored = out[sizes.lm + sizes.gm - 1 :]
        worst, problems = compare_scored(
            ref_scores, ref_labels, [o[1] for o in scored], [o[3] for o in scored], SCORE_TOL
        )
        checks.record(
            f"replay.meter_{j}_cache_vs_batched_forward",
            not problems,
            f"max score diff {worst:.2e} over {len(scored)} windows; " + "; ".join(problems),
        )
        phases_ok = all(o[0] == DETECTING for o in out[guard:]) and all(o[0] != DETECTING for o in out[:guard])
        checks.record(f"replay.meter_{j}_phases", phases_ok, f"detecting from reading {guard}")
        truth.extend(series.labels[guard:])
        labels.extend(o[3] for o in out[guard:])
        scores.extend(o[1] for o in out[guard:])

    q = detection_quality(truth, labels, scores)
    checks.record("replay.f1_floor", q["f1"] >= F1_FLOOR, f"F1 {q['f1']:.4f} (floor {F1_FLOOR})")
    checks.record("replay.auc_floor", q["auc"] >= AUC_FLOOR, f"AUC {q['auc']:.4f} (floor {AUC_FLOOR})")

    lat_ms = [v / 1e6 for v in lat_ns]
    p50, p99 = median(lat_ms), tail(lat_ms, 99.0)
    setup_s, rps = median(setups), median(rates)
    return Result(
        metrics={
            "setup_s": median(nominal["setup_s"]),
            "readings_per_s": median(nominal["rates"]),
            "latency_ms_p50": median(nominal["lat_ms"]),
            "latency_ms_tail": tail(nominal["lat_ms"], 99.0),
            "f1": q["f1"],
            "peak_rss_mb": rss,
        },
        named={
            "host_speed_factor": (median(factors), "ratio"),
            "setup_s": (setup_s, "s"),
            "readings_per_s": (rps, "1/s"),
            "reading_ms_p50": (p50, "ms"),
            "reading_ms_p99": (p99, "ms"),
            **highest_tail("reading_ms", lat_ms, "ms"),
            "f1": (q["f1"], "ratio"),
            "auc": (q["auc"], "ratio"),
            "precision": (q["precision"], "ratio"),
            "recall": (q["recall"], "ratio"),
            "peak_rss_mb": (rss, "MB"),
        },
        samples={
            "setup_s": setups,
            "pass_readings_per_s": rates,
            "reading_ns": lat_ns,
            "pass_host_speed_factor": factors,
            "host_speed_s": speed.samples,
        },
        sizes={
            "households": len(csv_paths),
            "readings_per_household": len(series),
            "detecting_readings_pooled": len(truth),
            "passes": len(passes),
        },
    )


# ---------------------------------------------------------------------------
# fleet: many meters resumed from engine checkpoints, lock-step minute ticks
# ---------------------------------------------------------------------------


def fleet_paths(inp: str) -> list[str]:
    engines = os.path.join(inp, "engines")
    return [os.path.join(engines, n) for n in sorted(os.listdir(engines))]


def load_fleet(paths: list[str], ops: Ops) -> list[OnlineDetector]:
    dets = []
    for p in paths:
        try:
            dets.append(OnlineDetector.load(p))
        except Exception:
            ops.add("load", failed=1)
            _report_exception(f"loading {p}")
            raise
        ops.add("load")
    return dets


def fleet_readings(inp: str):
    with np.load(os.path.join(inp, "fleet.npz")) as npz:
        powers, labels, start = npz["powers"], npz["labels"], datetime.fromisoformat(str(npz["start"]))
    return powers, labels, start


def tick_readings(powers: np.ndarray, start: datetime, k: int) -> list[Reading]:
    t = start + k * MINUTE
    return [Reading(t, float(p)) for p in powers[:, k]]


def event_tuple(ev) -> tuple:
    return (ev.t, ev.score, ev.threshold, ev.label, ev.phase, ev.error)


def sample_meters(seed: int, m: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(m, size=min(FLEET_SAMPLE_METERS, m), replace=False))


def fleet_round(paths: list[str], powers: np.ndarray, start: datetime, ops: Ops, speed: HostSpeed):
    """Restart the fleet from its checkpoints and run the round's ticks.
    Returns the set-up time, the per-tick times (ns) and the events by tick."""
    speed.sample()
    t0 = time.perf_counter()
    dets = load_fleet(paths, ops)
    setup_s = time.perf_counter() - t0
    tick_ns, events = [], []
    for k in range(FLEET_ROUND_TICKS):
        if k % SPEED_EVERY_TICKS == 0:
            speed.sample()
        row = tick_readings(powers, start, k)
        evs = []
        t0 = time.perf_counter_ns()
        for det, reading in zip(dets, row):
            try:
                evs.append(det.step(reading))
            except Exception:
                evs.append(None)
        tick_ns.append(time.perf_counter_ns() - t0)
        for ev in evs:
            ops.add("step", failed=int(ev is None or ev.error is not None))
        events.append([None if ev is None else event_tuple(ev) for ev in evs])
    return setup_s, tick_ns, events


def run_fleet(inp: str, seconds: float, checks: Checks, ops: Ops) -> Result:
    """Rounds of: load every meter's checkpoint, then the same ticks in
    lock-step. At least two rounds, then more until `seconds`; every round does
    the same work, so the tick distribution does not depend on speed. Times
    are also rescaled by each round's host-speed factor."""
    info, _ = load_inputs(inp)
    paths = fleet_paths(inp)
    powers, truth, start = fleet_readings(inp)
    m = powers.shape[0]
    if powers.shape[1] < FLEET_ROUND_TICKS:
        raise ValueError(f"fleet input has {powers.shape[1]} ticks, a round needs {FLEET_ROUND_TICKS}")

    # per round: raw values, and the same rescaled by the round's host-speed factor
    setups, tick_ns, factors, rounds_ok = [], [], [], True
    nominal = {"setup_s": [], "tick_ms": []}
    first = None
    speed = HostSpeed()
    started = time.perf_counter()
    last = 0.0
    while len(setups) < FLEET_MIN_ROUNDS or _keep_going(started, last, seconds):
        t0 = time.perf_counter()
        since = len(speed.samples)
        setup_s, ticks, events = fleet_round(paths, powers, start, ops, speed)
        last = time.perf_counter() - t0
        # stretch 0 is the load; stretch 1 + k // SPEED_EVERY_TICKS holds tick k
        fs = speed.factors(since)
        factors.append(len(fs) / sum(1.0 / x for x in fs))
        setups.append(setup_s)
        tick_ns.extend(ticks)
        nominal["setup_s"].append(setup_s * fs[0])
        nominal["tick_ms"].extend(v / 1e6 * fs[1 + k // SPEED_EVERY_TICKS] for k, v in enumerate(ticks))
        if first is None:
            first = events
        else:
            rounds_ok &= events == first
        del events
    rss = peak_rss_mb()

    checks.record("fleet.rounds_identical", rounds_ok, f"{len(setups)} restarts from the checkpoints")
    flat = [ev for tick in first for ev in tick]
    checks.record(
        "fleet.phases", all(ev is not None and ev[4] == DETECTING for ev in flat), "every resumed meter is detecting"
    )
    for i in sample_meters(info["seed"], m):
        solo = OnlineDetector.load(paths[i])
        ref = [event_tuple(solo.step(tick_readings(powers[i : i + 1], start, k)[0])) for k in range(FLEET_ROUND_TICKS)]
        same = ref == [tick[i] for tick in first]
        checks.record(f"fleet.meter_{i}_matches_standalone", same, f"{FLEET_ROUND_TICKS} events")

    # events are tick-major; transpose to meter-major to line up with `truth`
    labels = [first[k][i][3] for i in range(m) for k in range(FLEET_ROUND_TICKS)]
    scores = [first[k][i][1] for i in range(m) for k in range(FLEET_ROUND_TICKS)]
    q = detection_quality(truth[:, :FLEET_ROUND_TICKS].ravel(), labels, scores)
    tick_ms = [v / 1e6 for v in tick_ns]
    rps = m * len(tick_ns) / (sum(tick_ns) / 1e9)
    setup_s, p50, p90 = median(setups), median(tick_ms), tail(tick_ms, 90.0)
    return Result(
        metrics={
            "setup_s": median(nominal["setup_s"]),
            "readings_per_s": m * len(tick_ns) / (sum(nominal["tick_ms"]) / 1e3),
            "latency_ms_p50": median(nominal["tick_ms"]),
            "latency_ms_tail": tail(nominal["tick_ms"], 90.0),
            "f1": q["f1"],
            "peak_rss_mb": rss,
        },
        named={
            "host_speed_factor": (median(factors), "ratio"),
            "setup_s": (setup_s, "s"),
            "readings_per_s": (rps, "1/s"),
            "tick_ms_p50": (p50, "ms"),
            "tick_ms_p90": (p90, "ms"),
            **highest_tail("tick_ms", tick_ms, "ms"),
            "f1": (q["f1"], "ratio"),
            "auc": (q["auc"], "ratio"),
            "peak_rss_mb": (rss, "MB"),
        },
        samples={
            "setup_s": setups,
            "tick_ns": tick_ns,
            "round_host_speed_factor": factors,
            "host_speed_s": speed.samples,
        },
        sizes={"meters": m, "ticks_per_round": FLEET_ROUND_TICKS, "rounds": len(setups)},
    )


RUNNERS = {"replay": run_replay, "fleet": run_fleet}
