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
from .spot import ANOMALY, MIN_CALIBRATION, pot_calibrate, spot_step
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
    # built and checked first, so a bad setting reads nothing
    dims, hyper = _build(ModelDims, MODEL_FIELDS, cfg), _build(Hyper, HYPER_FIELDS, cfg)
    if cfg["stride"] < 1:
        raise ValueError(f"stride must be >= 1, got {cfg['stride']}")

    # the first non-EV minutes in file order; every run is at least one window
    # long, so only the budget cuts one short, and it would cut each later one
    series = read_meter_csv(args.data)
    span, cap = cfg["lm"] + cfg["gm"], cfg["max_train_minutes"]
    room = cap if cap > 0 else len(series)
    used = []
    for start, end in non_ev_segments(series, min_len=span):
        if (n := min(end - start, room)) < span:
            break
        used.append(series.powers[start : start + n])
        room -= n
    if not used:
        within = f"max-train-minutes {cap}" if 0 < cap < span else args.data
        raise ValueError(f"no non-EV run of lm + gm = {span} minutes within {within}")

    stats = fit_stats(np.concatenate(used))
    batches = [sliding_windows(normalize(run, stats), cfg["lm"], cfg["gm"], cfg["stride"]) for run in used]
    windows = WindowBatch(np.concatenate([b.lm_windows for b in batches]),
                          np.concatenate([b.gm_windows for b in batches]))
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

# flag dest -> the `EngineConfig` field it sets; a resumed engine keeps its own
ENGINE_FIELDS = {name: name for name in ("q", "calibration_len", "init_level", "refit_stride")}
DETECT_DEFAULTS = {**_defaults(EngineConfig, ENGINE_FIELDS), "jobs": 1}


def _run_detection(task):
    """Run one stream. `task` is (source, input path or "-", events path or
    None for stdout, engine path to save or None); the source is an engine
    file to resume or a (params, stats, config) triple. Returns the input
    path, the rows read, the minutes `run` filled and the seconds taken."""
    source, input_path, events_path, save_engine = task
    # built before anything is opened, so a failed load writes nothing
    detector = OnlineDetector.load(source) if isinstance(source, str) else OnlineDetector(*source)
    from_stdin = input_path == "-"
    warned = False
    n_rows = n_steps = 0
    started = time.perf_counter()
    with (
        open(events_path, "w", encoding="utf-8") if events_path else nullcontext(sys.stdout) as out_fh,
        nullcontext(sys.stdin) if from_stdin else open(input_path, "r", encoding="utf-8") as fh,
    ):
        rows = iter_meter_csv(fh, "stdin" if from_stdin else input_path)
        for n_rows, (_, t, power, label) in enumerate(rows, start=1):
            for event in detector.run((Reading(t, power),)):
                n_steps += 1
                if event.phase != WARMUP or event.error is not None:
                    out_fh.write(format_event(event) + "\n")
            # the row's own event comes last; a labelled row stepped
            # before SPOT was fitted fed warmup or calibration
            if label and not warned and (detector.spot is None or event.phase == CALIBRATING):
                print(
                    "warning: EV-labeled readings inside the calibration prefix; "
                    "the initial threshold may be biased",
                    file=sys.stderr,
                )
                warned = True
            if from_stdin:
                out_fh.flush()
    elapsed = time.perf_counter() - started
    if save_engine:
        detector.save(save_engine)
    return input_path, n_rows, n_steps - n_rows, elapsed


def cmd_detect(args, parser) -> int:
    cfg, given = _resolve(args, DETECT_DEFAULTS, parser)
    if cfg["jobs"] < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg['jobs']}")
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
        source = args.resume_engine
    else:
        if not args.checkpoint:
            parser.error("--checkpoint is required unless --resume-engine is given")
        _require_file(parser, args.checkpoint)
        params, stats = load_model(args.checkpoint)
        source = (params, stats, _build(EngineConfig, ENGINE_FIELDS, cfg, lm=params.dims.lm, gm=params.dims.gm))
    for path in args.inputs:
        _require_file(parser, path)
    if len(args.inputs) > 1 and not args.out_dir:
        parser.error("multiple inputs require --out-dir")

    # events file (None for stdout) -> the one task that writes it
    if args.out_dir:
        tasks = {}
        for path in args.inputs:
            out_path = os.path.join(args.out_dir, os.path.splitext(os.path.basename(path))[0] + ".jsonl")
            if out_path in tasks:
                parser.error(f"{tasks[out_path][1]} and {path} would both write {out_path}")
            tasks[out_path] = (source, path, out_path, None)
        os.makedirs(args.out_dir, exist_ok=True)
    else:
        tasks = {args.out: (source, args.inputs[0], args.out, args.save_engine)}
    # a pool worker reads no stdin, so a single stream or a run over stdin stays in this process
    if cfg["jobs"] > 1 and len(tasks) > 1 and "-" not in args.inputs:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            results = list(pool.map(_run_detection, tasks.values()))
    else:
        results = [_run_detection(task) for task in tasks.values()]
    for input_path, n_rows, n_filled, elapsed in results:
        per = elapsed / n_rows * 1000 if n_rows else 0.0
        name = "stdin" if input_path == "-" else input_path
        print(f"{name}: {n_rows} readings, {n_filled} filled minutes, {per:.3f} ms/reading mean", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _metrics_from_events(events_path, labels_path):
    # eval reads no power, so it takes every CSV that `detect` takes
    series = read_meter_csv(labels_path, refuse_non_finite=False)
    if series.labels is None:
        raise ValueError(f"{labels_path} has no label column")
    truth_by_t = {t.isoformat(): int(lab) for t, lab in zip(series.timestamps, series.labels)}
    rows = []
    with open(events_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                ev = json.loads(line)
                if not isinstance(ev, dict):
                    raise ValueError(f"expected a JSON object, got {line.strip()!r}")
                # a rejected reading has no score, as a warmup or calibration one has no label
                if ev.get("phase") != DETECTING or "error" in ev:
                    continue
                if ev["t"] not in truth_by_t:
                    raise ValueError(f"event timestamp {ev['t']} missing from {labels_path}")
                if ev["label"] not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {ev['label']!r}")
                rows.append((truth_by_t[ev["t"]], int(ev["label"]), float(ev["score"])))
            except KeyError as exc:
                raise ValueError(f"{events_path}:{lineno}: detecting event has no {exc}") from None
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{events_path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"no detecting-phase events in {events_path}")
    return tuple(map(np.array, zip(*rows)))


def _spot_trace(path, scores, calib, **calibration):
    """Calibrate SPOT now on `calib` scores for a count above 1, else on that
    fraction of them but at least `MIN_CALIBRATION`; return the count and an
    iterator that steps SPOT over the rest, yielding (score, threshold before,
    label, k)."""
    n_calib = int(calib) if calib > 1 else max(MIN_CALIBRATION, int(scores.size * calib))
    if n_calib >= scores.size:
        raise ValueError(f"{path}: calibration takes {n_calib} scores, leaving none of its {scores.size}")
    state = pot_calibrate(scores[:n_calib], **calibration)

    def steps():
        for x in scores[n_calib:]:
            threshold = state.z_q
            label = int(spot_step(state, float(x)) == ANOMALY)
            yield x, threshold, label, state.k

    return n_calib, steps()


def _read_score_csv(path, columns) -> np.ndarray:
    """The columns that `columns(path, header fields)` picks from a score CSV,
    as a (rows, k) float64 array; None picks the one column of a headerless
    file. A row with another field count than the first line's, a bad number,
    or a picked `label` or `pred` other than 0 or 1 raises ValueError naming
    its line."""
    rows, first = [], 2
    with open(path, "r", encoding="utf-8") as fh:
        fields = fh.readline().strip().split(",")
        picked = columns(path, fields)
        if picked is None:  # no header: the first line is a score
            picked, first = [0], 1
            fh.seek(0)
        for lineno, line in enumerate(fh, start=first):
            if not (line := line.strip()):
                continue
            parts = line.split(",")
            if len(parts) != len(fields):
                raise ValueError(f"{path}:{lineno}: expected {len(fields)} fields, got {len(parts)}: {line!r}")
            try:
                rows.append([float(parts[i]) for i in picked])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad number in {line!r}") from None
            for i, value in zip(picked, rows[-1]):
                if fields[i] in ("label", "pred") and value not in (0.0, 1.0):
                    raise ValueError(f"{path}:{lineno}: {fields[i]} must be 0 or 1, got {parts[i]!r}")
    return np.array(rows, dtype=np.float64).reshape(-1, len(picked))


def _eval_columns(path, fields):
    if fields[:2] != ["score", "label"] or fields[2:] not in ([], ["pred"]):
        raise ValueError(f"{path}: expected header 'score,label[,pred]'")
    return range(len(fields))


def _spot_column(path, fields):
    if len(fields) > 1 and "score" not in fields:
        raise ValueError(f"{path}: expected a header naming a 'score' column, or one bare score column")
    return [fields.index("score")] if "score" in fields else None


def _metrics_from_scores(path, q, calib_frac):
    rows = _read_score_csv(path, _eval_columns)
    # the reader checked every label and pred, those of calibration rows too
    scores, truth = rows[:, 0], rows[:, 1].astype(np.int64)
    if rows.shape[1] == 3:
        return truth, rows[:, 2], scores
    # derive predictions with a standalone threshold pass over the scores
    n_calib, trace = _spot_trace(path, scores, calib_frac, q=q)
    preds = np.array([label for _, _, label, _ in trace], dtype=np.int64)
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


def cmd_spot(args, parser) -> int:
    if not (0.0 < args.calib < 1.0 or 1.0 < args.calib < math.inf):
        raise ValueError(f"--calib must be a fraction in (0, 1) or a count above 1, got {args.calib}")
    _require_file(parser, args.scores)
    scores = _read_score_csv(args.scores, _spot_column)[:, 0]
    n_calib, trace = _spot_trace(args.scores, scores, args.calib, q=args.q, init_level=args.init_level)
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out_fh:
        for i, (x, threshold, label, k) in enumerate(trace, start=n_calib):
            out_fh.write(
                f'{{"i":{i},"score":{format(float(x), ".9g")},"threshold":{format(threshold, ".9g")},'
                f'"label":{label},"k":{k}}}\n'
            )
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
