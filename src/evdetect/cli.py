"""Command-line interface: train, detect, eval, synth and standalone spot.

Configuration precedence is flags > config file > built-in defaults. The
config file is flat ``key = value`` text; keys match the long flag names with
dashes or underscores, ``#`` starts a comment.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from datetime import datetime

import numpy as np

from .checkpoint import load_model, save_model
from .data import (
    BaseProfile,
    CsvFormatError,
    SynthConfig,
    WindowBatch,
    fit_stats,
    iter_meter_csv,
    non_ev_segments,
    normalize,
    read_meter_csv,
    sliding_windows,
    synth_household,
    write_meter_csv,
)
from .engine import CALIBRATING, DETECTING, WARMUP, EngineConfig, OnlineDetector, format_event
from .evaluation import confusion, precision_recall_f1, roc_auc
from .memory import Reading
from .model import ModelDims
from .nn import Hyper
from .spot import ANOMALY, pot_calibrate, spot_step
from .training import MAX_TRAIN_MINUTES, train


def load_config_file(path) -> dict[str, str]:
    """Parse flat `key = value` config lines; later keys override earlier ones."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _defaults(cls, fields: dict[str, str]) -> dict:
    """{flag dest: default} for the flags that set the fields of dataclass `cls`
    named by `fields`: each such setting takes the field's default and type."""
    return {dest: getattr(cls, name) for dest, name in fields.items()}


def _build(cls, fields: dict[str, str], cfg: dict, **extra):
    return cls(**{name: cfg[dest] for dest, name in fields.items()}, **extra)


def _resolve(args: argparse.Namespace, defaults: dict, parser: argparse.ArgumentParser) -> tuple[dict, set]:
    """Merge flag values, config-file entries and built-in defaults; also return
    the keys a flag or entry set. A config value takes its default's type."""
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            parser.error(f"config file not found: {args.config}")
        try:
            file_cfg = load_config_file(args.config)
        except ValueError as exc:
            parser.error(str(exc))
        # one file may serve both train and detect, so each ignores the other's keys
        unknown = sorted(set(file_cfg) - set(TRAIN_DEFAULTS) - set(DETECT_DEFAULTS))
        if unknown:
            parser.error(f"{args.config}: unknown config key {', '.join(unknown)}")
    resolved = {}
    for dest, default in defaults.items():
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            resolved[dest] = flag_value
        elif dest in file_cfg:
            try:
                resolved[dest] = type(default)(file_cfg[dest])
            except ValueError as exc:
                parser.error(f"config key {dest}: {exc}")
        else:
            resolved[dest] = default
    return resolved, {dest for dest in defaults if getattr(args, dest, None) is not None or dest in file_cfg}


def _require_file(parser: argparse.ArgumentParser, path: str) -> None:
    if path != "-" and not os.path.exists(path):
        parser.error(f"file not found: {path}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# flag dest -> the `ModelDims` and `Hyper` field it sets
MODEL_FIELDS = {"lm": "lm", "gm": "gm", "heads": "heads", "hidden": "hidden", "embed_dim": "C", "e0": "e0", "e1": "e1"}
HYPER_FIELDS = {"lr": "learning_rate", "weight_decay": "weight_decay", "beta1": "beta1", "beta2": "beta2",
                "adam_eps": "epsilon", "batch_size": "batch_size", "epochs": "epochs"}
TRAIN_DEFAULTS = {
    **_defaults(ModelDims, MODEL_FIELDS),
    **_defaults(Hyper, HYPER_FIELDS),
    "stride": 1,
    "seed": 0,
    "max_train_minutes": MAX_TRAIN_MINUTES,
}


def cmd_train(args, parser) -> int:
    cfg, _ = _resolve(args, TRAIN_DEFAULTS, parser)
    _require_file(parser, args.data)

    series = read_meter_csv(args.data)
    span = cfg["lm"] + cfg["gm"]
    segments = non_ev_segments(series, min_len=span)
    if not segments:
        print("error: no non-EV segment long enough for one window", file=sys.stderr)
        return 1

    budget = cfg["max_train_minutes"] if cfg["max_train_minutes"] > 0 else None
    used: list[np.ndarray] = []
    total = 0
    for start, end in segments:
        seg = series.powers[start:end]
        if budget is not None and total + seg.size > budget:
            seg = seg[: budget - total]
        if seg.size >= span:
            used.append(seg)
            total += seg.size
        if budget is not None and total >= budget:
            break

    stats = fit_stats(np.concatenate(used))
    lm_parts, gm_parts = [], []
    for seg in used:
        batch = sliding_windows(normalize(seg, stats), cfg["lm"], cfg["gm"], cfg["stride"])
        lm_parts.append(batch.lm_windows)
        gm_parts.append(batch.gm_windows)
    windows = WindowBatch(np.concatenate(lm_parts), np.concatenate(gm_parts))

    dims = _build(ModelDims, MODEL_FIELDS, cfg)
    params, report = train(
        windows,
        _build(Hyper, HYPER_FIELDS, cfg),
        seed=cfg["seed"],
        dims=dims,
        log=None if args.quiet else (lambda msg: print(msg, file=sys.stderr)),
    )
    save_model(args.out, params, stats)
    summary = {
        "windows": len(windows),
        "epochs_run": len(report.epoch_losses),
        "initial_loss": report.initial_loss,
        "final_loss": report.final_loss,
        "wall_time_s": round(report.wall_time_s, 3),
        "seed": report.seed,
        "checkpoint": args.out,
    }
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

# flag dest -> the `EngineConfig` field it sets; a resumed engine keeps its own
ENGINE_FIELDS = {name: name for name in ("q", "calibration_len", "init_level", "refit_stride")}
DETECT_DEFAULTS = {**_defaults(EngineConfig, ENGINE_FIELDS), "jobs": 1}


def _run_detection(detector: OnlineDetector, input_path, out_fh, save_engine=None):
    from_stdin = input_path == "-"
    warned = False
    n_steps = 0
    t = label = None  # the row `run` is stepping, for the calibration warning

    def readings(fh):
        nonlocal t, label
        for _, t, power, label in iter_meter_csv(fh):
            yield Reading(t, power)

    started = time.perf_counter()
    with nullcontext(sys.stdin) if from_stdin else open(input_path, "r", encoding="utf-8") as fh:
        try:
            for n_steps, event in enumerate(detector.run(readings(fh)), start=1):
                # a labelled row stepped before SPOT was fitted fed warmup or calibration
                if label and event.t == t and not warned and (detector.spot is None or event.phase == CALIBRATING):
                    print(
                        "warning: EV-labeled readings inside the calibration prefix; "
                        "the initial threshold may be biased",
                        file=sys.stderr,
                    )
                    warned = True
                if event.phase != WARMUP or event.error is not None:
                    out_fh.write(format_event(event) + "\n")
                    if from_stdin:
                        out_fh.flush()
        except CsvFormatError as exc:
            raise CsvFormatError(f"{'stdin' if from_stdin else input_path} {exc}") from None
    elapsed = time.perf_counter() - started
    if save_engine:
        detector.save(save_engine)
    return n_steps, elapsed


def _detect_one(task):
    params, stats, config, input_path, out_path = task
    with open(out_path, "w", encoding="utf-8") as fh:
        n, elapsed = _run_detection(OnlineDetector(params, stats, config), input_path, fh)
    return input_path, n, elapsed


def cmd_detect(args, parser) -> int:
    cfg, given = _resolve(args, DETECT_DEFAULTS, parser)
    for flag in ("resume_engine", "save_engine"):
        if args.out_dir and getattr(args, flag):
            parser.error(f"{_flag(flag)} runs a single stream, with its events in --out or stdout, not --out-dir")
    if args.resume_engine:
        _require_file(parser, args.resume_engine)
        if len(args.inputs) > 1:
            parser.error("--resume-engine continues a single stream")
        # the saved engine keeps its model and settings, so these would be dropped
        dropped = [k for k in ENGINE_FIELDS if k in given] + (["checkpoint"] if args.checkpoint else [])
        if dropped:
            parser.error(f"--resume-engine keeps the saved engine's settings; remove {', '.join(map(_flag, dropped))}")
    else:
        if not args.checkpoint:
            parser.error("--checkpoint is required unless --resume-engine is given")
        _require_file(parser, args.checkpoint)
        params, stats = load_model(args.checkpoint)
        config = _build(EngineConfig, ENGINE_FIELDS, cfg, lm=params.dims.lm, gm=params.dims.gm)
    for path in args.inputs:
        _require_file(parser, path)
    if len(args.inputs) > 1 and not args.out_dir:
        parser.error("multiple inputs require --out-dir")

    if not args.out_dir:
        # built before the events file is opened, so a failed load writes nothing
        if args.resume_engine:
            detector = OnlineDetector.load(args.resume_engine)
        else:
            detector = OnlineDetector(params, stats, config)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out_fh:
            n, elapsed = _run_detection(detector, args.inputs[0], out_fh, args.save_engine)
        if n:
            print(f"processed {n} readings, {elapsed / n * 1000:.3f} ms/reading mean", file=sys.stderr)
        return 0

    tasks = {}  # events file -> the one task that writes it
    for path in args.inputs:
        out_path = os.path.join(args.out_dir, os.path.splitext(os.path.basename(path))[0] + ".jsonl")
        if out_path in tasks:
            parser.error(f"{tasks[out_path][3]} and {path} would both write {out_path}")
        tasks[out_path] = (params, stats, config, path, out_path)
    os.makedirs(args.out_dir, exist_ok=True)
    if cfg["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            results = list(pool.map(_detect_one, tasks.values()))
    else:
        results = [_detect_one(t) for t in tasks.values()]
    for input_path, n, elapsed in results:
        per = elapsed / n * 1000 if n else 0.0
        print(f"{input_path}: {n} readings, {per:.3f} ms/reading mean", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _metrics_from_events(events_path, labels_path):
    series = read_meter_csv(labels_path)
    if series.labels is None:
        raise ValueError(f"{labels_path} has no label column")
    truth_by_t = {t.isoformat(): int(lab) for t, lab in zip(series.timestamps, series.labels)}
    truth, preds, scores = [], [], []
    with open(events_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            ev = json.loads(line)
            # a rejected reading has no score, as a warmup or calibration one has no label
            if ev.get("phase") != DETECTING or "error" in ev:
                continue
            t = ev["t"]
            if t not in truth_by_t:
                raise ValueError(f"event timestamp {t} missing from {labels_path}")
            truth.append(truth_by_t[t])
            preds.append(int(ev["label"]))
            scores.append(float(ev["score"]))
    if not truth:
        raise ValueError(f"no detecting-phase events in {events_path}")
    return np.array(truth), np.array(preds), np.array(scores)


def _spot_trace(scores, n_calib, **calibration):
    """Calibrate SPOT on `scores[:n_calib]` now, then step it over the rest;
    the iterator yields (threshold before the step, label, k) per score."""
    state = pot_calibrate(scores[:n_calib], **calibration)

    def steps():
        for x in scores[n_calib:]:
            threshold = state.z_q
            label = int(spot_step(state, float(x)) == ANOMALY)
            yield threshold, label, state.k

    return steps()


def _metrics_from_scores(path, q, calib_frac):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["score", "label"] or (len(header) == 3 and header[2] != "pred") or len(header) > 3:
            raise ValueError(f"{path}: expected header 'score,label[,pred]'")
        has_pred = len(header) == 3
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong field count")
            rows.append(tuple(float(v) for v in parts))
    scores = np.array([r[0] for r in rows])
    truth = np.array([int(r[1]) for r in rows])
    if has_pred:
        preds = np.array([int(r[2]) for r in rows])
        return truth, preds, scores
    # derive predictions with a standalone threshold pass over the scores
    n_calib = max(100, int(len(rows) * calib_frac))
    if n_calib >= len(rows):
        raise ValueError(f"{path}: not enough rows beyond the calibration fraction")
    preds = np.array([label for _, label, _ in _spot_trace(scores, n_calib, q=q)], dtype=np.int64)
    return truth[n_calib:], preds, scores[n_calib:]


def cmd_eval(args, parser) -> int:
    if not 0.0 < args.calib_frac < 1.0:
        raise ValueError(f"--calib-frac must lie in (0, 1), got {args.calib_frac}")
    metric_rows = []
    if args.events:
        if not args.labels or len(args.labels) != len(args.events):
            parser.error("--events needs a matching --labels for each file")
        for ev_path, lab_path in zip(args.events, args.labels):
            _require_file(parser, ev_path)
            _require_file(parser, lab_path)
            metric_rows.append(_metrics_from_events(ev_path, lab_path))
    if args.scores:
        for path in args.scores:
            _require_file(parser, path)
            metric_rows.append(_metrics_from_scores(path, args.q, args.calib_frac))
    if not metric_rows:
        parser.error("nothing to evaluate: pass --events/--labels or --scores")

    per_input = []
    for truth, preds, scores in metric_rows:
        p, r, f1 = precision_recall_f1(confusion(truth, preds))
        auc = roc_auc(truth, scores)
        per_input.append({"precision": p, "recall": r, "f1": f1, "auc": auc})
    if len(per_input) > 1 and not args.quiet:
        for i, m in enumerate(per_input):
            print(f"input {i}: {json.dumps(m)}", file=sys.stderr)
    mean = {
        key: float(np.mean([m[key] for m in per_input]))
        for key in ("precision", "recall", "f1", "auc")
    }
    print(json.dumps(mean))
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args, parser) -> int:
    cfg = SynthConfig(
        days=args.days,
        base_profile=BaseProfile(noise_kw=args.noise_kw),
        ev_power=args.ev_power,
        session_rate=args.session_rate,
        duration_minutes=(args.duration_min, args.duration_max),
        seed=args.seed,
        start=datetime.fromisoformat(args.start),
    )
    series = synth_household(cfg)
    write_meter_csv(args.out, series)
    print(
        json.dumps(
            {
                "rows": len(series),
                "ev_minutes": int(series.labels.sum()),
                "out": args.out,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# spot (standalone threshold trace)
# ---------------------------------------------------------------------------


def _read_score_column(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        cols = first.split(",")
        score_idx = cols.index("score") if "score" in cols else None
        if score_idx is None:
            values.append(float(first))
            score_idx = 0
        for line in fh:
            line = line.strip()
            if line:
                values.append(float(line.split(",")[score_idx]))
    return np.asarray(values, dtype=np.float64)


def cmd_spot(args, parser) -> int:
    if not (0.0 < args.calib < 1.0 or 1.0 < args.calib < math.inf):
        raise ValueError(f"--calib must be a fraction in (0, 1) or a count above 1, got {args.calib}")
    _require_file(parser, args.scores)
    scores = _read_score_column(args.scores)
    n_calib = int(args.calib) if args.calib > 1 else max(100, int(scores.size * args.calib))
    if n_calib >= scores.size:
        parser.error("calibration consumes the whole score file")
    trace = _spot_trace(scores, n_calib, q=args.q, init_level=args.init_level)
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for i, (x, (threshold, label, k)) in enumerate(zip(scores[n_calib:], trace), start=n_calib):
            out_fh.write(
                f'{{"i":{i},"score":{format(float(x), ".9g")},"threshold":{format(threshold, ".9g")},'
                f'"label":{label},"k":{k}}}\n'
            )
    finally:
        if args.out:
            out_fh.close()
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_settings(parser: argparse.ArgumentParser, defaults: dict) -> None:
    # None marks a flag not given, so a config entry or the default applies
    for dest, default in defaults.items():
        parser.add_argument(_flag(dest), type=type(default), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a reconstruction model on non-EV data")
    p_train.add_argument("--data", required=True, help="meter CSV (label column optional)")
    p_train.add_argument("--out", required=True, help="model checkpoint to write")
    p_train.add_argument("--config", help="flat key=value config file")
    p_train.add_argument("--quiet", action="store_true")
    _add_settings(p_train, TRAIN_DEFAULTS)
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", help="stream readings through a trained model")
    p_detect.add_argument("--checkpoint", help="model checkpoint from `train`")
    p_detect.add_argument("inputs", nargs="+", help="meter CSV files, or - for stdin rows")
    p_detect.add_argument("--config", help="flat key=value config file")
    p_detect.add_argument("--out", help="events file (default: stdout)")
    p_detect.add_argument("--out-dir", help="events directory for multiple inputs")
    p_detect.add_argument("--save-engine", help="write a resumable engine checkpoint at the end")
    p_detect.add_argument("--resume-engine", help="continue from an engine checkpoint instead of starting fresh")
    _add_settings(p_detect, DETECT_DEFAULTS)
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="compute precision/recall/F1/AUC")
    p_eval.add_argument("--events", action="append", help="engine events JSONL (repeatable)")
    p_eval.add_argument("--labels", action="append", help="labeled meter CSV matching --events")
    p_eval.add_argument("--scores", action="append", help="score,label[,pred] CSV (repeatable)")
    p_eval.add_argument("--q", type=float, default=EngineConfig.q, help="risk for deriving preds from bare scores")
    p_eval.add_argument("--calib-frac", type=float, default=0.2)
    p_eval.add_argument("--quiet", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic household CSV")
    p_synth.add_argument("--out", required=True)
    shortest, longest = SynthConfig.duration_minutes
    synth = {"days": SynthConfig.days, "ev_power": SynthConfig.ev_power, "session_rate": SynthConfig.session_rate,
             "duration_min": shortest, "duration_max": longest, "noise_kw": SynthConfig.base_profile.noise_kw,
             "seed": SynthConfig.seed}
    for dest, default in synth.items():
        p_synth.add_argument(_flag(dest), type=type(default), default=default)
    p_synth.add_argument("--start", default=SynthConfig.start.isoformat())
    p_synth.set_defaults(func=cmd_synth)

    p_spot = sub.add_parser("spot", help="run the dynamic threshold over a score file")
    p_spot.add_argument("--scores", required=True)
    p_spot.add_argument("--q", type=float, default=EngineConfig.q)
    p_spot.add_argument("--calib", type=float, default=0.2, help="calibration count (>1) or fraction")
    p_spot.add_argument("--init-level", type=float, default=EngineConfig.init_level)
    p_spot.add_argument("--out")
    p_spot.set_defaults(func=cmd_spot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
