"""The layer-by-layer traced run (`--trace 1`).

Spans are recorded only here, in the benchmark's own code, around calls into
the public functions of each evdetect module; nothing in `src/evdetect` is
patched or instrumented. For the replay and fleet workloads, `LayerPath`
recomposes `OnlineDetector.step` from those calls, in the engine's order:

    StreamState.push -> AttentionCache.push -> StreamState.snapshot
    -> window arrays -> AttentionCache.assemble_logits -> enc1 (cached)
    -> trd_forward (enc2) -> decode_local (dec) -> anomaly_score
    -> pot_calibrate / spot_step -> format_event

and the black-box `OnlineDetector.step` is timed next to it on the same
readings. For training, the batch loop of `train()` is recomposed from
`reconstruction_loss_t`, `Tensor.backward` and `adam_step`, next to a
black-box `train()` call. The run then checks that the recomposed path
computes what the engine computes (scores within 1e-9 and identical labels;
for training an identical loss trajectory), which is what makes its per-layer
times an attribution of the engine's time.

A traced run first measures the named workload untraced, then traced, and
reports the difference as the tracing overhead. The contract asks every traced
run for every per-layer metric, so the other workload and two epochs of
training are then traced briefly as well; a metric comes from the named
workload whenever that workload exercises the layer.
"""

from __future__ import annotations

import gzip
import json
import os
import time

import common
import numpy as np
from common import Checks, Ops, compare_scored, median
from evdetect import (
    AdamState,
    DetectionEvent,
    Hyper,
    ModelDims,
    ModelParams,
    OnlineDetector,
    Tensor,
    WindowBatch,
    adam_step,
    anomaly_score,
    fit_stats,
    format_event,
    load_model,
    mtr_forward,
    normalize,
    pot_calibrate,
    read_meter_csv,
    sliding_windows,
    spot_step,
    train,
)
from evdetect.engine import CALIBRATING, DETECTING, WARMUP
from evdetect.model import LN_EPS, decode_local, embed_window, trd_forward
from evdetect.nn import layer_norm, linear_forward, no_grad, relu, softmax_rows
from evdetect.spot import ANOMALY, PEAK
from evdetect.training import reconstruction_loss, reconstruction_loss_t
import workloads
from workloads import (
    FLEET_ROUND_TICKS,
    SCORE_TOL,
    Result,
    engine_config,
    fleet_paths,
    fleet_readings,
    load_inputs,
    replay_paths,
    tick_readings,
)

WORKLOAD_ORDER = ("replay", "fleet", "train")
# the untraced run's raw (not rescaled) median, per reading or per tick
RAW_P50 = {"replay": "reading_ms_p50", "fleet": "tick_ms_p50"}
# Time the cache-off single-window forward on every n-th scored reading.
FORWARD_EVERY = 4
SECONDARY_FLEET_TICKS = 20
TRAIN_EPOCHS = 2  # with `patience` = epochs, so early stopping cannot cut it short
TRAIN_LR = 1e-3


class Tracer:
    """In-memory spans: name, start and end (ns), parent span and request id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rids: list[int] = []
        self._open: list[int] = []

    def begin(self, name: str, rid: int) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.rids.append(rid)
        self.ends.append(-1)
        self._open.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def end(self, i: int, name: str | None = None) -> None:
        self.ends[i] = time.perf_counter_ns()
        if self._open.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")
        if name is not None:
            self.names[i] = name

    def durations(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def write(self, fh, workload: str) -> None:
        for row in zip(self.names, self.starts, self.ends, self.parents, self.rids):
            fh.write(json.dumps({"workload": workload, "name": row[0], "start_ns": row[1], "end_ns": row[2],
                                 "parent": row[3], "rid": row[4]}) + "\n")


def us(ns_values) -> list[float]:
    return [v / 1e3 for v in ns_values]


def ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


# ---------------------------------------------------------------------------
# the engine step, recomposed
# ---------------------------------------------------------------------------


class LayerPath:
    """`OnlineDetector.step` recomposed from public layer calls, with spans.

    `det` serves only as the holder of the stream buffers, attention cache and
    threshold state (a fresh detector, or one resumed with `OnlineDetector.load`);
    its `step` is never called.
    """

    def __init__(self, det: OnlineDetector):
        if det.cache is None:
            raise ValueError("the traced path follows the cache-on engine")
        self.det = det
        self.peaks = self.refits = self.anomalies = 0
        self.lm_norm = self.gm_norm = None

    def _enc1_cached(self, gm_norm: np.ndarray, logits: np.ndarray) -> np.ndarray:
        p = self.det.params
        enc1 = p.enc1
        gm_feats = gm_norm[:, None] @ p.embed_w.data + p.embed_b.data + p.pos_gm
        heads = [softmax_rows(logits[k]) @ (gm_feats @ wv.data) for k, wv in enumerate(enc1.cross_attn.wv)]
        cross = np.concatenate(heads, axis=-1) @ enc1.cross_attn.wo.data
        x2 = layer_norm(self.det.cache.fixed_queries + cross, enc1.ln2.gain.data, enc1.ln2.bias.data, LN_EPS)
        ffn = linear_forward(relu(linear_forward(x2, enc1.w1.data, enc1.b1.data)), enc1.w2.data, enc1.b2.data)
        return layer_norm(x2 + ffn, enc1.ln3.gain.data, enc1.ln3.bias.data, LN_EPS)

    def step(self, reading, rid: int, tr: Tracer) -> tuple:
        """One reading; returns (phase, score, threshold, label)."""
        det = self.det
        p, stats, cfg = det.params, det.stats, det.config

        s = tr.begin("memory.push", rid)
        spilled = det.stream.push(reading)
        tr.end(s)
        if spilled is not None:
            s = tr.begin("engine.cache_push", rid)
            det.cache.push((spilled.power - stats.mean) / stats.std * p.embed_w.data[0] + p.embed_b.data)
            tr.end(s)
        s = tr.begin("memory.snapshot", rid)
        snap = det.stream.snapshot()
        tr.end(s)
        if snap is None:
            return (WARMUP, None, None, 0)

        s = tr.begin("engine.window_build", rid)
        lm_norm = normalize(np.array([r.power for r in snap[0]]), stats)
        gm_norm = normalize(np.array([r.power for r in snap[1]]), stats)
        tr.end(s)
        self.lm_norm, self.gm_norm = lm_norm, gm_norm

        s = tr.begin("engine.cache_assemble", rid)
        logits = det.cache.assemble_logits()
        tr.end(s)
        s = tr.begin("model.enc1", rid)
        enc1_out = self._enc1_cached(gm_norm, logits)
        tr.end(s)
        with no_grad():
            s = tr.begin("model.enc2", rid)
            encoded = trd_forward(p.enc2_queries, Tensor(enc1_out), p.enc2)
            tr.end(s)
            s = tr.begin("model.dec", rid)
            rec = decode_local(embed_window(Tensor(lm_norm), p.pos_lm, p), encoded, p).data
            tr.end(s)
        s = tr.begin("engine.score", rid)
        score = anomaly_score(lm_norm, rec)
        tr.end(s)

        if det.spot is None:
            det.calib_scores.append(score)
            if len(det.calib_scores) >= cfg.calibration_len:
                s = tr.begin("spot.calibrate", rid)
                det.spot = pot_calibrate(
                    det.calib_scores,
                    q=cfg.q,
                    init_level=cfg.init_level,
                    refit_stride=cfg.refit_stride,
                    max_peaks=cfg.max_peaks,
                )
                tr.end(s)
            return (CALIBRATING, score, None, 0)

        threshold = det.spot.z_q
        s = tr.begin("spot.step", rid)
        cls = spot_step(det.spot, score)
        tr.end(s, f"spot.{cls}_step")
        if cls == PEAK:
            self.peaks += 1
            self.refits += det.spot._since_refit == 0
        elif cls == ANOMALY:
            self.anomalies += 1
        return (DETECTING, score, threshold, int(cls == ANOMALY))


def recomposition_check(checks: Checks, name: str, engine_out: list[tuple], layer_out: list[tuple]) -> None:
    """Engine and recomposed path agree: same phases, scores within 1e-9, same labels."""
    worst, problems = compare_scored(
        [o[1] for o in engine_out], [o[3] for o in engine_out],
        [o[1] for o in layer_out], [o[3] for o in layer_out],
        SCORE_TOL,
    )
    if [o[0] for o in engine_out] != [o[0] for o in layer_out]:
        problems.append("phases differ")
    checks.record(name, not problems, f"max score diff {worst:.2e} over {len(engine_out)} readings; " + "; ".join(problems))


def event_out(ev) -> tuple:
    return (ev.phase, ev.score, ev.threshold, ev.label)


def tick_sums(tr: Tracer, name: str) -> list[int]:
    """Total duration of the `name` spans of each request id, in id order."""
    sums: dict[int, int] = {}
    for n, s, e, rid in zip(tr.names, tr.starts, tr.ends, tr.rids):
        if n == name:
            sums[rid] = sums.get(rid, 0) + e - s
    return [sums[k] for k in sorted(sums)]


def summarize(specs: dict[str, tuple]) -> dict[str, float]:
    """`{metric: (samples, statistic)}` -> `{metric: value}`, leaving out metrics
    with no samples (a short secondary run may see no SPOT peak, say); the
    merged result must still hold every metric, or the run fails."""
    return {name: stat(values) for name, (values, stat) in specs.items() if len(values)}


def p99(values) -> float:
    # reported at p99 as named in the layer map; the sample count is in the results file
    return float(np.percentile(values, 99))


def stream_metrics(tr: Tracer, detecting: set[int] | None) -> dict[str, float]:
    """Per-reading layer metrics shared by replay and fleet; the black-box step
    is summarised over detecting-phase readings (`None`: every reading)."""
    step = [
        e - st
        for n, st, e, rid in zip(tr.names, tr.starts, tr.ends, tr.rids)
        if n == "engine.step" and (detecting is None or rid in detecting)
    ]
    selfs = tr.self_times()
    root_self = [selfs[i] for i, n in enumerate(tr.names) if n == "reading"]
    return summarize(
        {
            "memory.push_us_p50": (us(tr.durations("memory.push")), median),
            "memory.snapshot_us_p50": (us(tr.durations("memory.snapshot")), median),
            "engine.step_us_p50": (us(step), median),
            "engine.step_us_p99": (us(step), lambda v: common.tail(v, 99.0)),
            "engine.cache_push_us_p50": (us(tr.durations("engine.cache_push")), median),
            "engine.window_build_us_p50": (us(tr.durations("engine.window_build")), median),
            "engine.cache_assemble_us_p50": (us(tr.durations("engine.cache_assemble")), median),
            "engine.score_us_p50": (us(tr.durations("engine.score")), median),
            "engine.unattributed_us_p50": (us(root_self), median),
            "model.enc1_us_p50": (us(tr.durations("model.enc1")), median),
            "model.enc2_us_p50": (us(tr.durations("model.enc2")), median),
            "model.dec_us_p50": (us(tr.durations("model.dec")), median),
            "spot.normal_step_us_p50": (us(tr.durations("spot.normal_step")), median),
            "spot.peak_step_ms_p50": (ms(tr.durations("spot.peak_step")), median),
            "spot.peak_step_ms_p99": (ms(tr.durations("spot.peak_step")), p99),
            "spot.anomaly_step_us_p50": (us(tr.durations("spot.anomaly_step")), median),
        }
    )


# ---------------------------------------------------------------------------
# replay, traced
# ---------------------------------------------------------------------------


def traced_replay(inp: str, seconds: float, checks: Checks, ops: Ops, tr: Tracer) -> dict:
    info, sizes = load_inputs(inp)
    cfg = engine_config(sizes)
    model_path = os.path.join(inp, "model.npz")
    events_path = os.path.join(inp, "events-traced.jsonl")
    csv_paths = replay_paths(inp)

    detecting: set[int] = set()
    counts = None
    reading_ns: list[int] = []
    started = time.perf_counter()
    rid = 0
    n_pass = 0
    while n_pass == 0 or time.perf_counter() - started < seconds:
        s = tr.begin("checkpoint.model_load", n_pass)
        params, stats = load_model(model_path)
        tr.end(s)
        engine = OnlineDetector(params, stats, cfg)
        path = LayerPath(OnlineDetector(params, stats, cfg))
        s = tr.begin("data.read_csv", n_pass)
        series = read_meter_csv(csv_paths[n_pass % len(csv_paths)])
        tr.end(s)
        engine_out, layer_out = [], []
        with open(events_path, "w", encoding="utf-8") as fh:
            for reading in series.iter_readings():
                s = tr.begin("engine.step", rid)
                ev = engine.step(reading)
                tr.end(s)
                ops.add("step", failed=int(ev.error is not None))
                root = tr.begin("reading", rid)
                out = path.step(reading, rid, tr)
                if out[0] != WARMUP:
                    s = tr.begin("engine.format_event", rid)
                    fh.write(format_event(DetectionEvent(reading.t, out[1], out[2], out[3], out[0])) + "\n")
                    tr.end(s)
                tr.end(root)
                if out[0] == DETECTING:
                    detecting.add(rid)
                    reading_ns.append(tr.ends[root] - tr.starts[root])
                if out[1] is not None and rid % FORWARD_EVERY == 0:
                    s = tr.begin("model.forward", rid)
                    mtr_forward(path.lm_norm, path.gm_norm, params)
                    tr.end(s)
                engine_out.append(event_out(ev))
                layer_out.append(out)
                rid += 1
        recomposition_check(checks, f"trace.replay_pass{n_pass}_recomposes_engine", engine_out, layer_out)
        if counts is None:
            counts = {
                "spot.peaks": path.peaks,
                "spot.refits": path.refits,
                "spot.anomalies": path.anomalies,
                "spot.peak_list_len": len(path.det.spot.peaks),
            }
        n_pass += 1

    out = stream_metrics(tr, detecting)
    out.update(counts)
    out.update(
        summarize(
            {
                "data.read_csv_ms": (ms(tr.durations("data.read_csv")), median),
                "checkpoint.model_load_ms": (ms(tr.durations("checkpoint.model_load")), median),
                "engine.format_event_us_p50": (us(tr.durations("engine.format_event")), median),
                "model.forward_us_p50": (us(tr.durations("model.forward")), median),
                "spot.calibrate_ms": (ms(tr.durations("spot.calibrate")), median),
            }
        )
    )
    out["_traced_latency_ms_p50"] = median(ms(reading_ns))
    return out


# ---------------------------------------------------------------------------
# fleet, traced
# ---------------------------------------------------------------------------


def traced_fleet(inp: str, n_ticks: int, checks: Checks, ops: Ops, tr: Tracer) -> dict:
    paths = fleet_paths(inp)
    powers, _, start = fleet_readings(inp)
    m = powers.shape[0]

    engines, layers = [], []
    for i, p in enumerate(paths):
        s = tr.begin("engine.load", i)
        engines.append(OnlineDetector.load(p))
        tr.end(s)
        ops.add("load")
        layers.append(LayerPath(OnlineDetector.load(p)))
    params = engines[0].params

    engine_out = [[] for _ in range(m)]
    layer_out = [[] for _ in range(m)]
    batch_problems: list[str] = []
    batch_worst = 0.0
    for k in range(n_ticks):
        row = tick_readings(powers, start, k)
        tick = tr.begin("tick", k)
        for i, reading in enumerate(row):
            s = tr.begin("engine.step", k)
            ev = engines[i].step(reading)
            tr.end(s)
            ops.add("step", failed=int(ev.error is not None))
            root = tr.begin("reading", k)
            out = layers[i].step(reading, k, tr)
            tr.end(root)
            engine_out[i].append(event_out(ev))
            layer_out[i].append(out)
        tr.end(tick)
        lm = np.stack([lp.lm_norm for lp in layers])
        gm = np.stack([lp.gm_norm for lp in layers])
        s = tr.begin("model.forward_batch", k)
        rec = mtr_forward(lm, gm, params)
        tr.end(s)
        batched = np.mean((lm - rec) ** 2, axis=1)
        diff = float(np.max(np.abs(batched - [lo[-1][1] for lo in layer_out])))
        batch_worst = max(batch_worst, diff)
        if not diff <= SCORE_TOL:
            batch_problems.append(f"tick {k}: batched forward differs by {diff:.3g}")
    recomposition_check(
        checks, "trace.fleet_recomposes_engine", [o for e in engine_out for o in e], [o for lo in layer_out for o in lo]
    )
    checks.record(
        "trace.fleet_batched_forward_matches",
        not batch_problems,
        f"max diff {batch_worst:.2e} over {n_ticks} ticks of {m} windows; " + "; ".join(batch_problems[:3]),
    )

    out = stream_metrics(tr, None)
    out.update(
        {
            "engine.load_ms_p50": median(ms(tr.durations("engine.load"))),
            "checkpoint.engine_bytes": median([os.path.getsize(p) for p in paths]),
            "model.forward_batch_us_per_window": median(us(tr.durations("model.forward_batch"))) / m,
        }
    )
    out["_traced_latency_ms_p50"] = median(ms(tick_sums(tr, "reading")))
    return out


# ---------------------------------------------------------------------------
# train, traced
# ---------------------------------------------------------------------------


def traced_train(inp: str, epochs: int, checks: Checks, ops: Ops, tr: Tracer) -> dict:
    info, sizes = load_inputs(inp)
    seed = info["derived_seeds"]["model"]
    with np.load(os.path.join(inp, "train.npz")) as npz:
        powers = npz["powers"]
    s = tr.begin("data.sliding_windows", 0)
    windows = sliding_windows(normalize(powers, fit_stats(powers)), sizes.lm, sizes.gm, stride=sizes.train_stride)
    tr.end(s)
    hyper = Hyper(learning_rate=TRAIN_LR, epochs=epochs)
    dims = ModelDims(lm=sizes.lm, gm=sizes.gm)

    s = tr.begin("training.train", 0)
    _, report = train(windows, hyper, seed=seed, params=ModelParams(dims, seed=seed), patience=epochs)
    tr.end(s)
    ops.add("epoch", attempted=epochs)

    params = ModelParams(dims, seed=seed)
    rng = np.random.default_rng(seed)
    tensors = params.parameters()
    opt_params = [t.data for t in tensors]
    state = AdamState.for_params(opt_params)
    s = tr.begin("training.eval_loss", 0)
    initial = reconstruction_loss(windows, params)
    tr.end(s)
    n = len(windows)
    losses, epoch_ns = [], []
    b = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        first_batch = len(tr.names)
        for lo in range(0, n, hyper.batch_size):
            idx = order[lo : lo + hyper.batch_size]
            root = tr.begin("training.batch", b)
            batch = WindowBatch(windows.lm_windows[idx], windows.gm_windows[idx])
            params.zero_grad()
            s = tr.begin("nn.forward", b)
            loss = reconstruction_loss_t(batch, params)
            tr.end(s)
            s = tr.begin("nn.backward", b)
            loss.backward()
            tr.end(s)
            grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
            s = tr.begin("nn.adam", b)
            adam_step(opt_params, grads, state, hyper)
            tr.end(s)
            tr.end(root)
            total += float(loss.data) * len(idx)
            b += 1
        losses.append(total / n)
        epoch_ns.append(sum(e - st for nm, st, e in zip(tr.names[first_batch:], tr.starts[first_batch:],
                                                          tr.ends[first_batch:]) if nm == "training.batch"))
    s = tr.begin("training.eval_loss", 1)
    final = reconstruction_loss(windows, params)
    tr.end(s)
    same = losses == report.epoch_losses and initial == report.initial_loss and final == report.final_loss
    checks.record(
        "trace.train_recomposes_loss_trajectory",
        same,
        f"{epochs} epochs; final loss {final!r} vs train() {report.final_loss!r}",
    )
    checks.record("trace.train_loss_decreases", final < initial, f"{initial:.6g} -> {final:.6g}")
    return {
        "data.sliding_windows_ms": median(ms(tr.durations("data.sliding_windows"))),
        "nn.forward_ms_p50": median(ms(tr.durations("nn.forward"))),
        "nn.backward_ms_p50": median(ms(tr.durations("nn.backward"))),
        "nn.adam_ms_p50": median(ms(tr.durations("nn.adam"))),
        "training.batch_ms_p50": median(ms(tr.durations("training.batch"))),
        "training.eval_loss_ms": median(ms(tr.durations("training.eval_loss"))),
        "training.windows": n,
        "_traced_latency_ms_p50": median(ms(epoch_ns)),
    }


# ---------------------------------------------------------------------------


def run(workload: str, inp: str, seconds: float, checks: Checks, ops: Ops, spans_path: str) -> Result:
    """Untraced run of `workload`, then traced runs: the named workload for
    about `seconds`, then the other workload briefly and `train()` for
    `TRAIN_EPOCHS` epochs."""
    untraced = workloads.RUNNERS[workload](inp, seconds, checks, ops)
    tracers = {w: Tracer() for w in WORKLOAD_ORDER}
    layer: dict[str, dict] = {}
    for w in (workload, *[x for x in WORKLOAD_ORDER if x != workload]):
        named = w == workload
        if w == "replay":
            layer[w] = traced_replay(inp, seconds if named else 0.0, checks, ops, tracers[w])
        elif w == "fleet":
            ticks = FLEET_ROUND_TICKS if named else SECONDARY_FLEET_TICKS
            layer[w] = traced_fleet(inp, ticks, checks, ops, tracers[w])
        else:
            layer[w] = traced_train(inp, TRAIN_EPOCHS, checks, ops, tracers[w])

    metrics: dict[str, float] = {}
    for w in (workload, *WORKLOAD_ORDER):
        for key, value in layer[w].items():
            if not key.startswith("_"):
                metrics.setdefault(key, float(value))
    traced_p50 = layer[workload]["_traced_latency_ms_p50"]
    untraced_p50 = untraced.named[RAW_P50[workload]][0]  # raw, like the traced value
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)

    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for w, tr in tracers.items():
            tr.write(fh, w)
    return Result(
        metrics=metrics,
        named={
            **{f"untraced.{k}": v for k, v in untraced.named.items()},
            "traced.latency_ms_p50": (traced_p50, "ms"),
            "untraced.latency_ms_p50": (untraced_p50, "ms"),
            "trace.overhead_pct": (metrics["trace.overhead_pct"], "%"),
        },
        samples={
            "untraced": untraced.samples,
            "span_counts": {w: len(t.names) for w, t in tracers.items()},
            "spot.peak_step_samples": {w: len(t.durations("spot.peak_step")) for w, t in tracers.items()},
        },
        sizes=untraced.sizes,
    )
