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
from .engine import DETECTING, WARMUP, EngineConfig, OnlineDetector, format_event
from .evaluation import confusion, precision_recall_f1, roc_auc
from .memory import Reading
from .model import ModelDims
from .nn import Hyper
from .spot import pot_calibrate, spot_step
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


def _resolve(args: argparse.Namespace, defaults: dict[str, tuple], parser: argparse.ArgumentParser) -> tuple[dict, set]:
    """Merge flag values, config-file entries and built-in defaults; also return the keys a flag or entry set."""
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            parser.error(f"config file not found: {args.config}")
        try:
            file_cfg = load_config_file(args.config)
        except ValueError as exc:
            parser.error(str(exc))
    resolved = {}
    for dest, (default, conv) in defaults.items():
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            resolved[dest] = flag_value
        elif dest in file_cfg:
            try:
                resolved[dest] = conv(file_cfg[dest])
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

TRAIN_DEFAULTS = {
    "lm": (8, int),
    "gm": (32, int),
    "heads": (2, int),
    "hidden": (8, int),
    "embed_dim": (8, int),
    "e0": (16, int),
    "e1": (8, int),
    "lr": (7e-5, float),
    "weight_decay": (5e-5, float),
    "beta1": (0.9, float),
    "beta2": (0.999, float),
    "adam_eps": (1e-8, float),
    "batch_size": (64, int),
    "epochs": (50, int),
    "stride": (1, int),
    "seed": (0, int),
    "max_train_minutes": (MAX_TRAIN_MINUTES, int),
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

    dims = ModelDims(
        C=cfg["embed_dim"],
        hidden=cfg["hidden"],
        heads=cfg["heads"],
        lm=cfg["lm"],
        gm=cfg["gm"],
        e0=cfg["e0"],
        e1=cfg["e1"],
    )
    hyper = Hyper(
        learning_rate=cfg["lr"],
        weight_decay=cfg["weight_decay"],
        beta1=cfg["beta1"],
        beta2=cfg["beta2"],
        epsilon=cfg["adam_eps"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
    )
    params, report = train(
        windows,
        hyper,
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

DETECT_DEFAULTS = {
    "q": (1e-4, float),
    "calibration_len": (1440, int),
    "init_level": (0.98, float),
    "refit_stride": (1, int),
    "jobs": (1, int),
}


def _run_detection(checkpoint_path, input_path, out_fh, engine_cfg: EngineConfig, save_engine=None, resume=None):
    if resume:
        detector = OnlineDetector.load(resume)
        engine_cfg = detector.config
    else:
        params, stats = load_model(checkpoint_path)
        detector = OnlineDetector(params, stats, engine_cfg)

    from_stdin = input_path == "-"
    guard = engine_cfg.lm + engine_cfg.gm - 1 + engine_cfg.calibration_len
    warned = False
    n_steps = 0
    started = time.perf_counter()
    with nullcontext(sys.stdin) if from_stdin else open(input_path, "r", encoding="utf-8") as fh:
        try:
            for _, t, power, filled, label, new_segment in iter_meter_csv(fh):
                if new_segment:
                    # after a gap too long to fill, the windows start empty
                    detector.clear_windows()
                if label and n_steps < guard and not warned:
                    print(
                        "warning: EV-labeled readings inside the calibration prefix; "
                        "the initial threshold may be biased",
                        file=sys.stderr,
                    )
                    warned = True
                event = detector.step(Reading(t, power, filled))
                n_steps += 1
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
    checkpoint_path, input_path, out_path, engine_cfg = task
    with open(out_path, "w", encoding="utf-8") as fh:
        n, elapsed = _run_detection(checkpoint_path, input_path, fh, engine_cfg)
    return input_path, n, elapsed


def cmd_detect(args, parser) -> int:
    cfg, given = _resolve(args, DETECT_DEFAULTS, parser)
    if args.resume_engine:
        _require_file(parser, args.resume_engine)
        if len(args.inputs) > 1:
            parser.error("--resume-engine continues a single stream")
        # the saved engine keeps its model and settings, so these would be dropped
        dropped = [k for k in ("q", "calibration_len", "init_level", "refit_stride") if k in given]
        dropped += [k for k in ("checkpoint", "no_cache") if getattr(args, k)]
        if dropped:
            names = ", ".join("--" + k.replace("_", "-") for k in dropped)
            parser.error(f"--resume-engine keeps the saved engine's settings; remove {names}")
        engine_cfg = None
    else:
        if not args.checkpoint:
            parser.error("--checkpoint is required unless --resume-engine is given")
        _require_file(parser, args.checkpoint)
        params, _ = load_model(args.checkpoint)
        engine_cfg = EngineConfig(
            lm=params.dims.lm,
            gm=params.dims.gm,
            q=cfg["q"],
            calibration_len=cfg["calibration_len"],
            init_level=cfg["init_level"],
            cache_enabled=not args.no_cache,
            refit_stride=cfg["refit_stride"],
        )
    for path in args.inputs:
        _require_file(parser, path)
    if len(args.inputs) > 1 and not args.out_dir:
        parser.error("multiple inputs require --out-dir")

    if len(args.inputs) == 1 and not args.out_dir:
        out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
        try:
            n, elapsed = _run_detection(
                args.checkpoint,
                args.inputs[0],
                out_fh,
                engine_cfg,
                args.save_engine,
                resume=args.resume_engine,
            )
        finally:
            if args.out:
                out_fh.close()
        if n:
            print(f"processed {n} readings, {elapsed / n * 1000:.3f} ms/reading mean", file=sys.stderr)
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    tasks = []
    for path in args.inputs:
        stem = os.path.splitext(os.path.basename(path))[0]
        tasks.append((args.checkpoint, path, os.path.join(args.out_dir, stem + ".jsonl"), engine_cfg))
    if cfg["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            results = list(pool.map(_detect_one, tasks))
    else:
        results = [_detect_one(t) for t in tasks]
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
            if ev.get("phase") != DETECTING:
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
    state = pot_calibrate(scores[:n_calib], q=q)
    preds = np.zeros(len(rows) - n_calib, dtype=np.int64)
    for i, x in enumerate(scores[n_calib:]):
        preds[i] = 1 if spot_step(state, float(x)) == "anomaly" else 0
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
    profile = BaseProfile(noise_kw=args.noise_kw) if args.noise_kw is not None else BaseProfile()
    cfg = SynthConfig(
        days=args.days,
        base_profile=profile,
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
    state = pot_calibrate(scores[:n_calib], q=args.q, init_level=args.init_level)
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for i, x in enumerate(scores[n_calib:], start=n_calib):
            threshold = state.z_q
            cls = spot_step(state, float(x))
            label = 1 if cls == "anomaly" else 0
            out_fh.write(
                f'{{"i":{i},"score":{format(float(x), ".9g")},"threshold":{format(threshold, ".9g")},'
                f'"label":{label},"k":{state.k}}}\n'
            )
    finally:
        if args.out:
            out_fh.close()
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a reconstruction model on non-EV data")
    p_train.add_argument("--data", required=True, help="meter CSV (label column optional)")
    p_train.add_argument("--out", required=True, help="model checkpoint to write")
    p_train.add_argument("--config", help="flat key=value config file")
    p_train.add_argument("--quiet", action="store_true")
    for dest in TRAIN_DEFAULTS:
        flag = "--" + dest.replace("_", "-")
        conv = TRAIN_DEFAULTS[dest][1]
        p_train.add_argument(flag, type=conv, default=None)
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", help="stream readings through a trained model")
    p_detect.add_argument("--checkpoint", help="model checkpoint from `train`")
    p_detect.add_argument("inputs", nargs="+", help="meter CSV files, or - for stdin rows")
    p_detect.add_argument("--config", help="flat key=value config file")
    p_detect.add_argument("--no-cache", action="store_true", help="disable the incremental attention cache")
    p_detect.add_argument("--out", help="events file (default: stdout)")
    p_detect.add_argument("--out-dir", help="events directory for multiple inputs")
    p_detect.add_argument("--save-engine", help="write a resumable engine checkpoint at the end")
    p_detect.add_argument("--resume-engine", help="continue from an engine checkpoint instead of starting fresh")
    for dest in DETECT_DEFAULTS:
        flag = "--" + dest.replace("_", "-")
        conv = DETECT_DEFAULTS[dest][1]
        p_detect.add_argument(flag, type=conv, default=None)
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="compute precision/recall/F1/AUC")
    p_eval.add_argument("--events", action="append", help="engine events JSONL (repeatable)")
    p_eval.add_argument("--labels", action="append", help="labeled meter CSV matching --events")
    p_eval.add_argument("--scores", action="append", help="score,label[,pred] CSV (repeatable)")
    p_eval.add_argument("--q", type=float, default=1e-4, help="risk for deriving preds from bare scores")
    p_eval.add_argument("--calib-frac", type=float, default=0.2)
    p_eval.add_argument("--quiet", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic household CSV")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--days", type=int, default=7)
    p_synth.add_argument("--ev-power", type=float, default=3.3)
    p_synth.add_argument("--session-rate", type=float, default=1.0 / 1.5)
    p_synth.add_argument("--duration-min", type=int, default=60)
    p_synth.add_argument("--duration-max", type=int, default=240)
    p_synth.add_argument("--noise-kw", type=float, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--start", default="2018-01-01T00:00")
    p_synth.set_defaults(func=cmd_synth)

    p_spot = sub.add_parser("spot", help="run the dynamic threshold over a score file")
    p_spot.add_argument("--scores", required=True)
    p_spot.add_argument("--q", type=float, default=1e-4)
    p_spot.add_argument("--calib", type=float, default=0.2, help="calibration count (>1) or fraction")
    p_spot.add_argument("--init-level", type=float, default=0.98)
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
