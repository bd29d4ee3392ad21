"""CLI contract tests: exit codes, determinism, config precedence, round trips."""

import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evdetect import checkpoint, engine
from evdetect.checkpoint import (
    ENGINE_FORMAT,
    MODEL_FORMAT,
    PARAMS_KEY,
    encode_model,
    load_model,
    read_container,
    write_container,
)
from evdetect.cli import main
from evdetect.data import MAX_FILL_MINUTES, MeterSeries, SeriesStats, SynthConfig, format_meter_csv, read_meter_csv
from evdetect.engine import WARMUP, EngineConfig, OnlineDetector, format_event
from evdetect.memory import Reading
from evdetect.model import ModelDims, ModelParams
from evdetect.nn import Hyper

RUN = [sys.executable, "-m", "evdetect.cli"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _model_without_dims(path, params):
    write_container(path, MODEL_FORMAT, {"stats": {}}, {PARAMS_KEY: params})


def _engine_without_config(path, _):
    # valid dims, stats and weights, but none of the engine's own fields
    meta, arrays = encode_model(ModelParams(ModelDims(), seed=0), SeriesStats(mean=0.0, std=1.0, count=1))
    write_container(path, ENGINE_FORMAT, meta, arrays)


def run_cli(args, **kwargs):
    # the child imports evdetect from this checkout's src/, installed or not
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_setup(workdir):
    """A small synthetic CSV and a quickly trained checkpoint shared by tests."""
    train_csv = workdir / "train.csv"
    detect_csv = workdir / "detect.csv"
    ckpt = workdir / "model.ckpt.npz"
    assert main(["synth", "--out", str(train_csv), "--days", "2", "--session-rate", "0", "--seed", "1"]) == 0
    # seed 1 puts every charging session after the warmup+calibration prefix
    assert main(["synth", "--out", str(detect_csv), "--days", "3", "--seed", "1"]) == 0
    code = main(
        [
            "train",
            "--data", str(train_csv),
            "--out", str(ckpt),
            "--epochs", "2",
            "--stride", "10",
            "--lr", "1e-3",
            "--quiet",
        ]
    )
    assert code == 0
    return {"train_csv": train_csv, "detect_csv": detect_csv, "ckpt": ckpt}


class TestExitCodes:
    def test_help_exits_zero(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        for cmd in ("train", "detect", "eval", "synth", "spot"):
            assert cmd in proc.stdout

    def test_invalid_flag_exits_two(self):
        proc = run_cli(["train", "--bogus-flag", "1"])
        assert proc.returncode == 2
        assert proc.stderr

    def test_missing_data_file_exits_two(self):
        proc = run_cli(["train", "--data", "/nope/missing.csv", "--out", "/tmp/x.npz"])
        assert proc.returncode == 2

    def test_missing_subcommand_exits_two(self):
        assert run_cli([]).returncode == 2


class TestSynth:
    def test_fixed_seed_reproducible(self, workdir):
        a, b = workdir / "a.csv", workdir / "b.csv"
        assert main(["synth", "--out", str(a), "--days", "2", "--seed", "5"]) == 0
        assert main(["synth", "--out", str(b), "--days", "2", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_json(self, workdir, capsys):
        out = workdir / "c.csv"
        assert main(["synth", "--out", str(out), "--days", "1", "--seed", "6"]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["rows"] == 1440

    def test_defaults_are_synth_config(self, workdir, capsys):
        assert main(["synth", "--out", str(workdir / "default_days.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == SynthConfig().days * 1440


class TestTrain:
    def test_zero_epochs_equals_initialization(self, workdir, tiny_setup):
        out_a = workdir / "init_a.npz"
        out_b = workdir / "init_b.npz"
        base = ["train", "--data", str(tiny_setup["train_csv"]), "--epochs", "0", "--quiet"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        na = np.load(out_a)
        nb = np.load(out_b)
        for key in na.files:
            np.testing.assert_array_equal(na[key], nb[key])

    def test_defaults_are_model_dims_and_hyper(self, workdir, tiny_setup, monkeypatch):
        seen = {}

        def stop(windows, hyper, seed, dims, log):
            seen.update(hyper=hyper, dims=dims)
            raise RuntimeError("stopped before training")

        monkeypatch.setattr("evdetect.cli.train", stop)
        assert main(["train", "--data", str(tiny_setup["train_csv"]), "--out", str(workdir / "never.npz")]) == 1
        assert seen == {"hyper": Hyper(), "dims": ModelDims()}

    def test_unknown_config_key_exits_two(self, workdir, tiny_setup, capsys):
        cfg = workdir / "typo.cfg"
        cfg.write_text("epochs = 0\ncalibraton_len = 600\n")
        for command in (["train", "--data", str(tiny_setup["train_csv"]), "--out", str(workdir / "never.npz")],
                        ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(tiny_setup["detect_csv"])]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--config", str(cfg)])
            assert excinfo.value.code == 2
            assert "calibraton_len" in capsys.readouterr().err

    def test_readme_config_sample_serves_train_and_detect(self, workdir, tiny_setup):
        # the sample mixes train keys with detect's q; each command takes its own
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            sample = fh.read().split("## Configuration", 1)[1].split("```")[1]
        assert "lm" in sample and "q" in sample
        cfg = workdir / "readme.cfg"
        cfg.write_text(sample)
        model = workdir / "readme_model.npz"
        args = ["train", "--data", str(tiny_setup["train_csv"]), "--out", str(model), "--config", str(cfg)]
        assert main(args + ["--epochs", "0", "--quiet"]) == 0
        args = ["detect", "--checkpoint", str(model), str(tiny_setup["detect_csv"]), "--config", str(cfg)]
        assert main(args + ["--out", os.devnull]) == 0

    def test_config_file_precedence(self, workdir, tiny_setup, capsys):
        cfg = workdir / "train.cfg"
        cfg.write_text("epochs = 0\nstride = 25\nlm = 4\ngm = 16\ne0 = 8\ne1 = 4\n")
        out = workdir / "cfged.npz"
        # config sets lm/gm; explicit flag overrides the config's stride
        code = main(
            [
                "train",
                "--data", str(tiny_setup["train_csv"]),
                "--out", str(out),
                "--config", str(cfg),
                "--stride", "50",
                "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        n = 2 * 1440
        assert summary["windows"] == (n - 20) // 50 + 1  # flag stride won
        meta = json.loads(np.load(out)["__meta__"].tobytes())
        assert meta["dims"]["lm"] == 4 and meta["dims"]["gm"] == 16


class TestDetect:
    def test_events_one_line_per_post_warmup_reading(self, workdir, tiny_setup):
        events = workdir / "events.jsonl"
        code = main(
            [
                "detect",
                "--checkpoint", str(tiny_setup["ckpt"]),
                str(tiny_setup["detect_csv"]),
                "--out", str(events),
                "--calibration-len", "600",
                "--q", "1e-3",
            ]
        )
        assert code == 0
        lines = events.read_text().strip().split("\n")
        assert len(lines) == 3 * 1440 - (8 + 32 - 1)
        first = json.loads(lines[0])
        assert list(first) == ["t", "score", "threshold", "label", "phase"]
        phases = {json.loads(line)["phase"] for line in lines}
        assert phases == {"calibrating", "detecting"}

    def test_stdin_streaming(self, tiny_setup):
        rows = "\n".join(
            f"2019-01-01T{h:02d}:{m:02d}:00,{0.5 + 0.01 * ((h * 60 + m) % 7)}"
            for h in range(2)
            for m in range(60)
        )
        proc = run_cli(
            [
                "detect",
                "--checkpoint", str(tiny_setup["ckpt"]),
                "-",
                "--calibration-len", "100",
                "--q", "1e-3",
            ],
            input="timestamp,power_kw\n" + rows + "\n",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 120 - 39

    @pytest.mark.parametrize("bad_row", [5, 60])  # inside the warmup, then after it
    def test_stdin_nan_reading_is_an_error_event(self, tiny_setup, bad_row):
        # a non-finite reading is rejected before it enters the windows
        rows = [
            f"2019-01-01T{h:02d}:{m:02d}:00,{0.5 + 0.01 * ((h * 60 + m) % 7)}" for h in range(2) for m in range(60)
        ]
        bad_t = rows[bad_row].split(",")[0]
        rows[bad_row] = f"{bad_t},nan"
        proc = run_cli(
            ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "-", "--calibration-len", "100", "--q", "1e-3"],
            input="timestamp,power_kw\n" + "\n".join(rows) + "\n",
        )
        assert proc.returncode == 0, proc.stderr
        events = [json.loads(l) for l in proc.stdout.strip().split("\n")]
        errors = [e for e in events if "error" in e]
        assert len(errors) == 1
        assert errors[0]["t"] == bad_t and errors[0]["score"] is None
        scored = [e for e in events if "error" not in e]
        assert len(scored) == 120 - 1 - 39
        assert all(np.isfinite(e["score"]) for e in scored)

    def test_stdin_nan_then_gap_is_one_error_event(self, tiny_setup):
        # the filled minutes after a non-finite row copy the last finite power
        rows = [
            f"2019-01-01T{h:02d}:{m:02d}:00,{0.5 + 0.01 * ((h * 60 + m) % 7)}" for h in range(2) for m in range(60)
        ]
        bad_t = rows[60].split(",")[0]
        rows[60] = f"{bad_t},nan"
        filled_t = [row.split(",")[0] for row in rows[61:71]]
        del rows[61:71]
        proc = run_cli(
            ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "-", "--calibration-len", "100", "--q", "1e-3"],
            input="timestamp,power_kw\n" + "\n".join(rows) + "\n",
        )
        assert proc.returncode == 0, proc.stderr
        events = [json.loads(l) for l in proc.stdout.strip().split("\n")]
        errors = [e for e in events if "error" in e]
        assert [e["t"] for e in errors] == [bad_t]
        scored = {e["t"]: e for e in events if "error" not in e}
        assert len(scored) == 120 - 1 - 39
        assert all(t in scored and np.isfinite(scored[t]["score"]) for t in filled_t)

    def test_non_finite_score_is_an_error_event(self, workdir, tiny_setup, monkeypatch):
        # an accepted reading whose forward is not finite (here every window
        # holding a value beyond 1e50 overflows) stays in the windows: its
        # scores are error events while it is there, and the stream goes on
        forward = engine.mtr_forward

        def overflowing(lm, gm, *rest):
            return np.full_like(lm, np.inf) if max(abs(lm).max(), abs(gm).max()) > 1e50 else forward(lm, gm, *rest)

        monkeypatch.setattr(engine, "mtr_forward", overflowing)
        lines = tiny_setup["detect_csv"].read_text().splitlines()
        spike, warm, span = 1600, 8 + 32 - 1, 8 + 32
        t, _, label = lines[1 + spike].split(",")
        lines[1 + spike] = f"{t},1e60,{label}"
        csv, out = workdir / "spike.csv", workdir / "spike_events.jsonl"
        csv.write_text("\n".join(lines) + "\n")
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(csv), "--out", str(out)]
        assert main(args + ["--calibration-len", "600", "--q", "1e-3"]) == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(events) == len(lines) - 1 - warm
        errors = [warm + i for i, e in enumerate(events) if "error" in e]
        assert errors == list(range(spike, spike + span))
        rejected = {"score": None, "threshold": None, "label": 0, "phase": "detecting", "error": "non-finite anomaly score"}
        assert all(events[row - warm] == {"t": events[row - warm]["t"], **rejected} for row in errors)
        after = events[spike + span - warm :]
        assert after and all(np.isfinite(e["score"]) and np.isfinite(e["threshold"]) for e in after)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("power", ["1e200", "-1e200"])
    def test_huge_reading_is_one_error_event(self, workdir, tiny_setup, monkeypatch, source, power):
        # refused before it enters the windows, as a non-finite reading is;
        # the minutes of a short hole after it repeat the last accepted power,
        # and stay unfilled when a 199-minute gap has just cleared the windows
        lines = tiny_setup["detect_csv"].read_text().splitlines()
        for gap, hole in ((0, 0), (0, 3), (199, 3)):
            t, _, label = lines[1 + 1600 + gap].split(",")
            outputs = {}
            for value in ("nan", power):
                rows = [*lines[: 1 + 1600], f"{t},{value},{label}", *lines[1 + 1601 + gap + hole :]]
                csv, out = workdir / f"huge_{value}.csv", workdir / f"huge_{value}_{source}.jsonl"
                csv.write_text("\n".join(rows) + "\n")
                if source == "stdin":
                    monkeypatch.setattr(sys, "stdin", io.StringIO(csv.read_text()))
                args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
                assert main(args + ["-" if source == "stdin" else str(csv), "--out", str(out)]) == 0
                outputs[value] = out.read_text().splitlines()
            errors = [i for i, line in enumerate(outputs[power]) if '"error"' in line]
            assert len(errors) == 1
            event = json.loads(outputs[power][errors[0]])
            assert event["t"] == t and event["score"] is None and event["error"].startswith("out-of-range reading power")
            del outputs[power][errors[0]], outputs["nan"][errors[0]]
            assert outputs[power] == outputs["nan"]

    @pytest.mark.parametrize(
        "bad",
        [
            "2019-01-01T00:05:00",
            "2019-01-01T00:05:00;0.5",
            "yesterday,0.5",
            "2019-01-01T00:05:00,lots",
            "2019-01-01T00:05:30,0.5",
        ],
    )
    def test_malformed_stdin_row_exits_one(self, tiny_setup, capsys, monkeypatch, bad):
        rows = ["timestamp,power_kw", "2019-01-01T00:03:00,0.5", "2019-01-01T00:04:00,0.5", bad]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(rows) + "\n"))
        capsys.readouterr()
        code = main(["detect", "--checkpoint", str(tiny_setup["ckpt"]), "-"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stdin line 4: ")
        assert bad in err

    def test_headerless_stdin_exits_one(self, tiny_setup, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2019-01-01T00:03:00,0.5\n2019-01-01T00:04:00,0.5\n"))
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(tiny_setup["ckpt"]), "-"]) == 1
        assert capsys.readouterr().err.startswith("error: stdin line 1: ")

    def test_gapped_csv_file_and_stdin_identical(self, workdir, tiny_setup, monkeypatch):
        # a 30-minute hole is forward-filled, a 2-hour hole re-warms: both sources alike
        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        keep = np.r_[0:1000, 1030:2500, 2620 : len(series)]
        gapped = MeterSeries(
            timestamps=[series.timestamps[i] for i in keep],
            powers=series.powers[keep],
            labels=series.labels[keep],
        )
        csv = workdir / "two_gaps.csv"
        csv.write_text(format_meter_csv(gapped))
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        from_file, from_stdin = workdir / "two_gaps_file.jsonl", workdir / "two_gaps_stdin.jsonl"
        assert main(args + [str(csv), "--out", str(from_file)]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv.read_text()))
        assert main(args + ["-", "--out", str(from_stdin)]) == 0
        assert from_stdin.read_bytes() == from_file.read_bytes()
        lines = from_file.read_text().splitlines()
        assert len(lines) == len(keep) + 30 - 2 * (8 + 32 - 1)

    def test_summary_counts_rows_and_filled_minutes_apart(self, workdir, tiny_setup, capsys, monkeypatch):
        # a 30-minute hole: `run` steps 30 filled minutes that are no rows read
        lines = tiny_setup["detect_csv"].read_text().splitlines()
        csv = workdir / "summary_holed.csv"
        csv.write_text("\n".join(lines[:2001] + lines[2031:]) + "\n")
        rows = len(lines) - 1 - 30
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        capsys.readouterr()
        assert main(args + [str(csv), "--out", os.devnull]) == 0
        assert capsys.readouterr().err.startswith(f"{csv}: {rows} readings, 30 filled minutes, ")
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv.read_text()))
        assert main(args + ["-", "--out", os.devnull]) == 0
        assert capsys.readouterr().err.startswith(f"stdin: {rows} readings, 30 filled minutes, ")
        assert main(args + [str(csv), str(tiny_setup["detect_csv"]), "--out-dir", str(workdir / "summary")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"{csv}: {rows} readings, 30 filled minutes, ")
        assert err[1].startswith(f"{tiny_setup['detect_csv']}: {len(lines) - 1} readings, 0 filled minutes, ")

    def test_calibration_prefix_warning_once(self, workdir, tiny_setup, capsys, monkeypatch):
        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        warning = "warning: EV-labeled readings inside the calibration prefix"
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        capsys.readouterr()
        assert main(args + [str(tiny_setup["detect_csv"]), "--out", str(workdir / "clean_prefix.jsonl")]) == 0
        assert warning not in capsys.readouterr().err

        labels = series.labels.copy()
        labels[100:110] = 1
        labels[600:620] = 1  # still inside lm + gm - 1 + calibration_len = 639
        csv = workdir / "ev_in_prefix.csv"
        csv.write_text(format_meter_csv(MeterSeries(series.timestamps, series.powers, labels)))
        assert main(args + [str(csv), "--out", str(workdir / "ev_in_prefix_file.jsonl")]) == 0
        assert capsys.readouterr().err.count(warning) == 1
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv.read_text()))
        assert main(args + ["-", "--out", str(workdir / "ev_in_prefix_stdin.jsonl")]) == 0
        assert capsys.readouterr().err.count(warning) == 1

    def test_resumed_detecting_engine_does_not_warn(self, workdir, tiny_setup, capsys):
        # a resumed engine that is already detecting has no calibration prefix left
        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        warning = "warning: EV-labeled readings inside the calibration prefix"
        head, tail, engine = workdir / "warn_head.csv", workdir / "warn_tail.csv", workdir / "warn_engine.npz"
        head.write_text(format_meter_csv(MeterSeries(series.timestamps[:1000], series.powers[:1000], series.labels[:1000])))
        labels = series.labels[1000:].copy()
        labels[:5] = 1
        tail.write_text(format_meter_csv(MeterSeries(series.timestamps[1000:], series.powers[1000:], labels)))
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        assert main(args + [str(head), "--out", os.devnull, "--save-engine", str(engine)]) == 0
        assert OnlineDetector.load(engine).spot is not None
        capsys.readouterr()
        assert main(["detect", "--resume-engine", str(engine), str(tail), "--out", os.devnull]) == 0
        assert capsys.readouterr().err.count(warning) == 0

    def test_multiple_inputs_need_out_dir(self, workdir, tiny_setup):
        proc = run_cli(
            [
                "detect",
                "--checkpoint", str(tiny_setup["ckpt"]),
                str(tiny_setup["detect_csv"]),
                str(tiny_setup["detect_csv"]),
            ]
        )
        assert proc.returncode == 2

    def test_save_and_resume_engine(self, workdir, tiny_setup):
        # splitting the stream at a checkpoint must reproduce the one-shot run
        from evdetect.data import read_meter_csv, format_meter_csv, MeterSeries

        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        half = len(series) // 2
        first = workdir / "first_half.csv"
        second = workdir / "second_half.csv"
        for path, sl in ((first, slice(None, half)), (second, slice(half, None))):
            part = MeterSeries(
                timestamps=series.timestamps[sl],
                powers=series.powers[sl],
                labels=series.labels[sl],
                segments=[(0, len(series.timestamps[sl]))],
            )
            path.write_text(format_meter_csv(part))

        whole = workdir / "whole.jsonl"
        args = ["--calibration-len", "600", "--q", "1e-3"]
        assert (
            main(
                ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(tiny_setup["detect_csv"]), "--out", str(whole)]
                + args
            )
            == 0
        )
        engine_ckpt = workdir / "engine.npz"
        part_a = workdir / "part_a.jsonl"
        part_b = workdir / "part_b.jsonl"
        assert (
            main(
                [
                    "detect",
                    "--checkpoint", str(tiny_setup["ckpt"]),
                    str(first),
                    "--out", str(part_a),
                    "--save-engine", str(engine_ckpt),
                ]
                + args
            )
            == 0
        )
        assert main(["detect", "--resume-engine", str(engine_ckpt), str(second), "--out", str(part_b)]) == 0
        assert part_a.read_text() + part_b.read_text() == whole.read_text()

    @pytest.mark.parametrize(
        "skip, refused",
        [
            pytest.param(10, False, id="10-minute-hole"),
            pytest.param(120, False, id="120-minute-gap"),
            pytest.param(3, True, id="refused-row-then-3-minute-hole"),
        ],
    )
    def test_resume_at_a_gap_equals_one_run(self, workdir, tiny_setup, skip, refused):
        # the engine file keeps the newest timestamp stepped, so the gap at the
        # cut is filled or re-warmed as in one run
        header, *rows = tiny_setup["detect_csv"].read_text().splitlines()
        cut = 2000
        if refused:
            t, _, label = rows[cut - 1].split(",")
            rows[cut - 1] = f"{t},nan,{label}"
        rows = rows[:cut] + rows[cut + skip :]
        name = f"gap_cut_{skip}"
        csv = {part: workdir / f"{name}_{part}.csv" for part in ("whole", "head", "tail")}
        events = {part: workdir / f"{name}_{part}.jsonl" for part in csv}
        for part, sl in (("whole", rows), ("head", rows[:cut]), ("tail", rows[cut:])):
            csv[part].write_text("\n".join([header, *sl]) + "\n")
        engine_ckpt = workdir / f"{name}.npz"
        fresh = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        assert main(fresh + [str(csv["whole"]), "--out", str(events["whole"])]) == 0
        assert main(fresh + [str(csv["head"]), "--out", str(events["head"]), "--save-engine", str(engine_ckpt)]) == 0
        assert main(["detect", "--resume-engine", str(engine_ckpt), str(csv["tail"]), "--out", str(events["tail"])]) == 0
        assert events["head"].read_bytes() + events["tail"].read_bytes() == events["whole"].read_bytes()

    @pytest.mark.parametrize("aware_head", [True, False], ids=["aware-engine-naive-rows", "naive-engine-aware-rows"])
    def test_resume_on_the_other_time_zone_kind_exits_one(self, workdir, tiny_setup, capsys, aware_head):
        # the detector refuses the mix, as the CSV reader does within one file
        header, *rows = tiny_setup["detect_csv"].read_text().splitlines()
        head, tail = rows[:1000], rows[1000:1099]
        stamped = [f"{t}+00:00,{rest}" for t, rest in (row.split(",", 1) for row in (head if aware_head else tail))]
        head, tail = (stamped, tail) if aware_head else (head, stamped)
        name = f"tz_{'aware' if aware_head else 'naive'}"
        head_csv, tail_csv, engine_ckpt = (workdir / f"{name}{ext}" for ext in ("_head.csv", "_tail.csv", ".npz"))
        head_csv.write_text("\n".join([header, *head]) + "\n")
        tail_csv.write_text("\n".join([header, *tail]) + "\n")
        fresh = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        assert main(fresh + [str(head_csv), "--out", os.devnull, "--save-engine", str(engine_ckpt)]) == 0
        capsys.readouterr()
        code = main(["detect", "--resume-engine", str(engine_ckpt), str(tail_csv), "--out", os.devnull])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "naive and timezone-aware" in err

    def test_long_gap_rewarms_windows(self, workdir, tiny_setup):
        # a 2-hour gap after calibration opens a new segment; no window spans it
        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        cut, skip = 1500, 120
        keep = np.r_[0:cut, cut + skip : len(series)]
        gapped = MeterSeries(
            timestamps=[series.timestamps[i] for i in keep],
            powers=series.powers[keep],
            labels=series.labels[keep],
        )
        csv = workdir / "gapped.csv"
        csv.write_text(format_meter_csv(gapped))
        out = workdir / "gapped.jsonl"
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(csv), "--out", str(out)]
        assert main(args + ["--calibration-len", "600", "--q", "1e-3"]) == 0
        scored = {json.loads(line)["t"]: json.loads(line) for line in out.read_text().splitlines()}
        dims = load_model(tiny_setup["ckpt"])[0].dims
        after = [t.isoformat() for t in gapped.timestamps[cut:]]
        rewarm = dims.lm + dims.gm - 1
        assert not any(t in scored for t in after[:rewarm])
        assert scored[after[rewarm]]["phase"] == "detecting"
        assert gapped.timestamps[cut - 1].isoformat() in scored

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            pytest.param(["--q", "0.5"], None, "--q", id="flag-q"),
            pytest.param(["--refit-stride", "0"], None, "--refit-stride", id="flag-refit-stride"),
            pytest.param(["--calibration-len", "10"], None, "--calibration-len", id="flag-calibration-len"),
            pytest.param(["--init-level", "0.9"], None, "--init-level", id="flag-init-level"),
            pytest.param(["--checkpoint", "MODEL"], None, "--checkpoint", id="flag-checkpoint"),
            pytest.param([], "q = 0.5", "--q", id="config-q"),
            pytest.param([], "refit_stride = 0", "--refit-stride", id="config-refit-stride"),
            pytest.param([], "calibration-len = 10", "--calibration-len", id="config-calibration-len"),
            pytest.param([], "init_level = 0.9", "--init-level", id="config-init-level"),
        ],
    )
    def test_resume_rejects_engine_settings(self, workdir, tiny_setup, capsys, flags, config, named):
        # the saved engine's config wins on resume, so a setting given next to
        # it would be dropped without a word
        engine_ckpt = workdir / "fresh_engine.npz"
        OnlineDetector(*load_model(tiny_setup["ckpt"]), EngineConfig(lm=8, gm=32)).save(engine_ckpt)
        args = ["detect", "--resume-engine", str(engine_ckpt), str(tiny_setup["detect_csv"]),
                "--out", str(workdir / "never.jsonl")]
        args += [str(tiny_setup["ckpt"]) if f == "MODEL" else f for f in flags]
        if config is not None:
            cfg = workdir / "resume.cfg"
            cfg.write_text(config + "\n")
            args += ["--config", str(cfg)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_truncated_checkpoint_exits_one(self, workdir, tiny_setup, capsys):
        truncated = workdir / "truncated.npz"
        data = tiny_setup["ckpt"].read_bytes()
        truncated.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        code = main(["detect", "--resume-engine", str(truncated), str(tiny_setup["detect_csv"]),
                     "--out", str(workdir / "never.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "fault",
        [
            "more-than-lm-plus-gm",
            "non-increasing-timestamps",
            "unequal-lengths",
            "total-seen-below-stream",
            "total-seen-above-short-stream",
            "last-t-before-newest-reading",
            "last-t-timezone-aware",
        ],
    )
    def test_corrupt_engine_stream_exits_one(self, workdir, tiny_setup, capsys, fault):
        # a full stream (lm+gm readings), then one fault in it
        det = OnlineDetector(*load_model(tiny_setup["ckpt"]), EngineConfig(lm=8, gm=32))
        for t, power in zip(read_meter_csv(str(tiny_setup["detect_csv"])).timestamps[:60], np.linspace(0.2, 1.0, 60)):
            det.step(Reading(t, float(power)))
        engine_ckpt = workdir / "corrupt_engine.npz"
        det.save(engine_ckpt)
        meta, arrays = read_container(engine_ckpt, ENGINE_FORMAT)
        stream = meta["stream"]
        assert len(stream["t"]) == 40
        if fault == "more-than-lm-plus-gm":
            stream["t"].append("2030-01-01T00:00:00")
            arrays["power"] = np.append(arrays["power"], 1.0)
        elif fault == "non-increasing-timestamps":
            stream["t"][5] = stream["t"][4]
        elif fault == "total-seen-below-stream":
            stream["total_seen"] = 39
        elif fault == "total-seen-above-short-stream":
            # 10 readings, but 60 seen: pushes would have left lm + gm = 40
            stream["t"], arrays["power"] = stream["t"][-10:], arrays["power"][-10:]
        elif fault == "last-t-before-newest-reading":
            # a `last_t` behind the windows would fake a hole at the next reading
            stream["last_t"] = stream["t"][-2]
        elif fault == "last-t-timezone-aware":
            stream["last_t"] = stream["t"][-1] + "+00:00"
        else:
            arrays["power"] = arrays["power"][:-1]
        write_container(engine_ckpt, ENGINE_FORMAT, meta, arrays)
        with pytest.raises(ValueError, match="corrupt_engine.npz: stream"):
            OnlineDetector.load(engine_ckpt)
        capsys.readouterr()
        code = main(["detect", "--resume-engine", str(engine_ckpt), str(tiny_setup["detect_csv"]),
                     "--out", str(workdir / "never.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(engine_ckpt) in err

    @pytest.mark.parametrize(
        "name, save, flag",
        [
            pytest.param("no_meta.npz", np.savez, "--checkpoint", id="no_meta.npz-savez"),
            pytest.param("plain.npy", np.save, "--checkpoint", id="plain.npy-save"),
            pytest.param("no_dims.npz", _model_without_dims, "--checkpoint", id="model-no-dims"),
            pytest.param("no_config.npz", _engine_without_config, "--resume-engine", id="engine-no-config"),
        ],
    )
    def test_foreign_checkpoint_exits_one(self, workdir, tiny_setup, capsys, name, save, flag):
        foreign = workdir / name
        save(foreign, np.zeros(3))
        capsys.readouterr()
        code = main(["detect", flag, str(foreign), str(tiny_setup["detect_csv"]),
                     "--out", str(workdir / "never.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("existing", [None, b"earlier events\n"], ids=["no-out-file", "existing-out-file"])
    @pytest.mark.parametrize("flag", ["--resume-engine", "--checkpoint"])
    def test_failed_load_writes_nothing(self, workdir, tiny_setup, capsys, flag, existing):
        # a truncated engine file, or a model file of the wrong kind
        bad = workdir / "bad_load.npz"
        if flag == "--resume-engine":
            data = tiny_setup["ckpt"].read_bytes()
            bad.write_bytes(data[: len(data) // 2])
        else:
            np.savez(bad, np.zeros(3))
        out = workdir / "kept.jsonl"
        out.unlink(missing_ok=True)
        if existing is not None:
            out.write_bytes(existing)
        capsys.readouterr()
        assert main(["detect", flag, str(bad), str(tiny_setup["detect_csv"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == existing if existing is not None else not out.exists()

    def test_resume_rejects_out_dir(self, workdir, tiny_setup, capsys):
        engine_ckpt = workdir / "out_dir_engine.npz"
        OnlineDetector(*load_model(tiny_setup["ckpt"]), EngineConfig()).save(engine_ckpt)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--resume-engine", str(engine_ckpt), str(tiny_setup["detect_csv"]),
                  "--out-dir", str(workdir / "never_dir")])
        assert excinfo.value.code == 2
        assert "--out-dir" in capsys.readouterr().err
        assert not (workdir / "never_dir").exists()

    def test_save_engine_rejects_out_dir(self, workdir, tiny_setup, capsys, monkeypatch):
        # each input of --out-dir runs its own engine, so no one engine is saved
        reads = []
        monkeypatch.setattr(checkpoint, "read_container", lambda *a: reads.append(a))
        engine_ckpt, out_dir = workdir / "never_engine.npz", workdir / "never_save_dir"
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(tiny_setup["detect_csv"]),
                  "--out-dir", str(out_dir), "--save-engine", str(engine_ckpt)])
        assert excinfo.value.code == 2
        assert "--save-engine" in capsys.readouterr().err
        assert reads == [] and not engine_ckpt.exists() and not out_dir.exists()

    @pytest.mark.parametrize("dirs", [("a", "b"), ("a", "a")], ids=["two-files", "one-file-twice"])
    def test_out_dir_refuses_two_inputs_of_one_name(self, workdir, tiny_setup, capsys, dirs):
        # a/m.csv and b/m.csv would both write m.jsonl, and one meter's events would be lost;
        # a file given twice would write its events file twice
        inputs = [workdir / d / "m.csv" for d in dirs]
        for path in inputs:
            path.parent.mkdir(exist_ok=True)
            path.write_text("\n".join(tiny_setup["detect_csv"].read_text().splitlines()[:100]) + "\n")
        out_dir = workdir / "one_name"
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--checkpoint", str(tiny_setup["ckpt"]), *map(str, inputs), "--out-dir", str(out_dir)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert str(inputs[0]) in err and str(inputs[1]) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("n_inputs", [1, 2])
    def test_detect_reads_checkpoint_once(self, workdir, tiny_setup, monkeypatch, n_inputs):
        reads = []
        read = checkpoint.read_container
        monkeypatch.setattr(checkpoint, "read_container", lambda *a: reads.append(a) or read(*a))
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600"]
        inputs = [tiny_setup["detect_csv"]]
        if n_inputs > 1:
            # a second meter of another name, so two tasks are built from the one read
            inputs.append(workdir / "detect_other.csv")
            inputs[1].write_bytes(inputs[0].read_bytes())
        args += map(str, inputs)
        args += ["--out-dir", str(workdir / "read_once")] if n_inputs > 1 else ["--out", os.devnull]
        assert main(args) == 0
        assert len(reads) == 1
        if n_inputs > 1:
            assert sorted(os.listdir(workdir / "read_once")) == ["detect.jsonl", "detect_other.jsonl"]

    def test_engine_defaults_are_engine_config(self, workdir, tiny_setup):
        lines = tiny_setup["detect_csv"].read_text().splitlines()[:100]
        csv, engine_ckpt = workdir / "defaults.csv", workdir / "defaults_engine.npz"
        csv.write_text("\n".join(lines) + "\n")
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(csv), "--out", os.devnull]
        assert main(args + ["--save-engine", str(engine_ckpt)]) == 0
        dims = load_model(tiny_setup["ckpt"])[0].dims
        assert read_container(engine_ckpt, ENGINE_FORMAT)[0]["config"] == asdict(EngineConfig(dims.lm, dims.gm))

    def test_jobs_fan_out(self, workdir, tiny_setup):
        out_dir = workdir / "fanout"
        second = workdir / "detect2.csv"
        assert main(["synth", "--out", str(second), "--days", "2", "--seed", "9"]) == 0
        code = main(
            [
                "detect",
                "--checkpoint", str(tiny_setup["ckpt"]),
                str(tiny_setup["detect_csv"]),
                str(second),
                "--out-dir", str(out_dir),
                "--jobs", "2",
                "--calibration-len", "600",
                "--q", "1e-3",
            ]
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["detect.jsonl", "detect2.jsonl"]

    @staticmethod
    def _holed_csv(workdir, tiny_setup, name, rows):
        """The first `rows` rows of the detect CSV, with a 30-minute hole at row 700."""
        lines = tiny_setup["detect_csv"].read_text().splitlines()[: rows + 1]
        csv = workdir / name
        csv.write_text("\n".join(lines[:701] + lines[731:]) + "\n")
        return csv

    def test_jobs_two_on_stdin_runs_in_process(self, workdir, tiny_setup):
        # a pool worker's stdin is /dev/null, so one stream must not be pooled
        csv = self._holed_csv(workdir, tiny_setup, "jobs_stdin.csv", 1200)
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "-"]
        one = run_cli(args + ["--jobs", "1"], input=csv.read_text())
        two = run_cli(args + ["--jobs", "2"], input=csv.read_text())
        assert (one.returncode, two.returncode) == (0, 0), two.stderr
        assert two.stdout == one.stdout and one.stdout.count("\n") == 1170 + 30 - 39

    def test_out_dir_with_one_input_writes_what_out_writes(self, workdir, tiny_setup, capsys):
        csv = self._holed_csv(workdir, tiny_setup, "one_input.csv", 1200)
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", str(csv)]
        capsys.readouterr()
        assert main(args + ["--out", str(workdir / "one_input_out.jsonl")]) == 0
        out_err = capsys.readouterr().err
        assert main(args + ["--out-dir", str(workdir / "one_input_dir")]) == 0
        dir_err = capsys.readouterr().err
        assert (workdir / "one_input_dir" / "one_input.jsonl").read_bytes() == (workdir / "one_input_out.jsonl").read_bytes()
        # the same counts; only the ms/reading figure may differ
        assert out_err.rsplit(", ", 1)[0] == dir_err.rsplit(", ", 1)[0] == f"{csv}: 1170 readings, 30 filled minutes"

    def test_out_dir_jobs_two_equals_single_streams(self, workdir, tiny_setup):
        inputs = [self._holed_csv(workdir, tiny_setup, "pooled_a.csv", 1200), tiny_setup["detect_csv"]]
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "600", "--q", "1e-3"]
        assert main(args + [*map(str, inputs), "--out-dir", str(workdir / "pooled"), "--jobs", "2"]) == 0
        for path in inputs:
            single = workdir / f"single_{path.stem}.jsonl"
            assert main(args + [str(path), "--out", str(single)]) == 0
            assert (workdir / "pooled" / f"{path.stem}.jsonl").read_bytes() == single.read_bytes()

    def test_refit_stride_zero_exits_one(self, tiny_setup, capsys):
        capsys.readouterr()
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(tiny_setup["detect_csv"]), "--out", os.devnull]
        assert main(args + ["--refit-stride", "0"]) == 1
        assert "refit_stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--q", "0", "q must lie in (0, 1)", id="q-0"),
            pytest.param("--q", "1", "q must lie in (0, 1)", id="q-1"),
            pytest.param("--init-level", "0", "init_level must lie in (0, 1)", id="init-level-0"),
            pytest.param("--init-level", "1.5", "init_level must lie in (0, 1)", id="init-level-1.5"),
        ],
    )
    def test_out_of_range_setting_exits_one_before_reading(self, tiny_setup, workdir, capsys, flag, value, message):
        capsys.readouterr()
        out = workdir / "out_of_range.jsonl"
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(tiny_setup["detect_csv"]), "--out", str(out)]
        assert main(args + [flag, value]) == 1
        assert message in capsys.readouterr().err
        # rejected while the engine is configured: the events file is never opened
        assert not out.exists()


class TestOneGapRule:
    """`OnlineDetector.run` owns the gap rule, so a library caller, `detect
    FILE` and `detect -` step the same minutes and write the same events."""

    @pytest.mark.filterwarnings("ignore::evdetect.spot.CalibrationWarning")
    @given(st.data())
    def test_library_file_and_stdin_agree(self, workdir, tiny_setup, data):
        header, *rows = tiny_setup["detect_csv"].read_text().splitlines()
        extra = data.draw(st.lists(st.integers(1, 90), max_size=2), label="other holes")
        holes = data.draw(st.permutations([MAX_FILL_MINUTES, MAX_FILL_MINUTES + 1, *extra]), label="holes")
        runs = data.draw(st.lists(st.integers(1, 200), min_size=len(holes) + 1, max_size=len(holes) + 1), label="runs")
        kept, start = [], 0
        for run, hole in zip(runs, [*holes, 0]):
            kept += range(start, start + run)
            start += run + hole
        kept = [rows[i] for i in kept]
        for i, value in data.draw(
            st.lists(st.tuples(st.integers(0, len(kept) - 1), st.sampled_from(["nan", "1e200"])), max_size=3),
            label="refused rows",
        ):
            t, _, label = kept[i].split(",")
            kept[i] = f"{t},{value},{label}"
        text = "\n".join([header, *kept]) + "\n"

        params, stats = load_model(tiny_setup["ckpt"])
        det = OnlineDetector(params, stats, EngineConfig(params.dims.lm, params.dims.gm, q=1e-3, calibration_len=100))
        readings = [Reading(datetime.fromisoformat(t), float(p)) for t, p, _ in (row.split(",") for row in kept)]
        library = "".join(format_event(e) + "\n" for e in det.run(readings) if e.phase != WARMUP or e.error)

        csv, from_file, from_stdin = workdir / "gap_rule.csv", workdir / "gap_rule_file.jsonl", workdir / "gap_rule_stdin.jsonl"
        csv.write_text(text)
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), "--calibration-len", "100", "--q", "1e-3"]
        assert main(args + [str(csv), "--out", str(from_file)]) == 0
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            assert main(args + ["-", "--out", str(from_stdin)]) == 0
        assert from_file.read_text() == library
        assert from_stdin.read_text() == library


class TestEval:
    def test_metrics_json_has_exactly_four_keys(self, workdir, tiny_setup, capsys):
        events = workdir / "eval_events.jsonl"
        assert (
            main(
                [
                    "detect",
                    "--checkpoint", str(tiny_setup["ckpt"]),
                    str(tiny_setup["detect_csv"]),
                    "--out", str(events),
                    "--calibration-len", "600",
                    "--q", "1e-3",
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["eval", "--events", str(events), "--labels", str(tiny_setup["detect_csv"])])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out.strip())
        assert sorted(metrics) == ["auc", "f1", "precision", "recall"]

    def test_self_consistent_with_library(self, workdir, tiny_setup, capsys):
        from evdetect.data import read_meter_csv
        from evdetect.evaluation import confusion, precision_recall_f1, roc_auc

        events = workdir / "eval_events.jsonl"  # written by the previous test
        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        truth_by_t = {t.isoformat(): int(v) for t, v in zip(series.timestamps, series.labels)}
        truth, preds, scores = [], [], []
        for line in events.read_text().strip().split("\n"):
            ev = json.loads(line)
            if ev["phase"] != "detecting":
                continue
            truth.append(truth_by_t[ev["t"]])
            preds.append(ev["label"])
            scores.append(ev["score"])
        p, r, f1 = precision_recall_f1(confusion(truth, preds))
        auc = roc_auc(truth, scores)
        assert main(["eval", "--events", str(events), "--labels", str(tiny_setup["detect_csv"])]) == 0
        metrics = json.loads(capsys.readouterr().out.strip())
        assert metrics["precision"] == pytest.approx(p)
        assert metrics["recall"] == pytest.approx(r)
        assert metrics["f1"] == pytest.approx(f1)
        assert metrics["auc"] == pytest.approx(auc)

    def test_error_events_are_skipped(self, workdir, tiny_setup, capsys):
        # a reading refused while detecting has no score, so it counts for nothing
        lines = tiny_setup["detect_csv"].read_text().splitlines()
        t, _, label = lines[1 + 3001].split(",")
        lines[1 + 3001] = f"{t},nan,{label}"
        csv, events, without = workdir / "nan_row.csv", workdir / "nan_row.jsonl", workdir / "nan_row_without.jsonl"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(csv), "--out", str(events)]) == 0
        written = events.read_text().splitlines()
        errors = [line for line in written if '"error"' in line]
        assert len(errors) == 1 and '"phase":"detecting"' in errors[0]
        without.write_text("\n".join(line for line in written if line not in errors) + "\n")
        capsys.readouterr()
        metrics = []
        for path in (events, without):
            assert main(["eval", "--events", str(path), "--labels", str(tiny_setup["detect_csv"])]) == 0
            metrics.append(json.loads(capsys.readouterr().out))
        assert metrics[0] == metrics[1]

    def test_labels_csv_with_refused_powers_is_read(self, workdir, tiny_setup, capsys):
        # `eval` reads no power, so a CSV that `detect` took is a labels file
        lines = tiny_setup["detect_csv"].read_text().splitlines()
        for row, power in ((1500, "nan"), (3001, "1e200")):
            t, _, label = lines[row].split(",")
            lines[row] = f"{t},{power},{label}"
        csv, events = workdir / "refused_powers.csv", workdir / "refused_powers.jsonl"
        csv.write_text("\n".join(lines) + "\n")
        args = ["--calibration-len", "600", "--q", "1e-3"]
        assert main(["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(csv), "--out", str(events)] + args) == 0
        assert events.read_text().count('"error"') == 2
        capsys.readouterr()
        assert main(["eval", "--events", str(events), "--labels", str(csv)]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == ["auc", "f1", "precision", "recall"]
        # training still needs clean powers, and says where one is not
        assert main(["train", "--data", str(csv), "--out", str(workdir / "unused.npz"), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: line 1501: non-finite power\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("score,label\n0.5,1\n0.7\n", ":3: expected 2 fields, got 1: '0.7'"),
            ("score,label\n0.5,x\n", ":2: bad number in '0.5,x'"),
            ("label,score\n0.5,1\n", ": expected header 'score,label[,pred]'"),
        ],
    )
    def test_malformed_score_file_exits_one(self, workdir, capsys, text, message):
        path = workdir / "malformed_eval_scores.csv"
        path.write_text(text)
        capsys.readouterr()
        assert main(["eval", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    @pytest.mark.parametrize(
        "header, column, value, message",
        [
            ("score,label,pred", 1, "0.7", ":2: label must be 0 or 1, got '0.7'"),
            ("score,label,pred", 2, "2", ":2: pred must be 0 or 1, got '2'"),
            ("score,label", 1, "0.7", ":2: label must be 0 or 1, got '0.7'"),  # a row that only calibrates
        ],
        ids=["label", "pred", "calibration-label"],
    )
    def test_label_or_pred_not_zero_or_one_exits_one(self, workdir, capsys, header, column, value, message):
        rows = [[f"{0.01 * i}", str(i % 2), str(i % 2)][: header.count(",") + 1] for i in range(300)]
        rows[0][column] = value
        path = workdir / "fractional_scores.csv"
        path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["eval", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_float_spelled_labels_and_preds_read(self, workdir, capsys):
        ints, floats = workdir / "int_scores.csv", workdir / "float_scores.csv"
        rows = [(0.1 * i, i % 2, (i // 3) % 2) for i in range(50)]
        ints.write_text("score,label,pred\n" + "".join(f"{s},{y},{p}\n" for s, y, p in rows))
        floats.write_text("score,label,pred\n" + "".join(f"{s},{float(y)},{float(p)}\n" for s, y, p in rows))
        capsys.readouterr()
        assert main(["eval", "--scores", str(ints)]) == 0
        want = capsys.readouterr().out
        assert main(["eval", "--scores", str(floats)]) == 0
        assert capsys.readouterr().out == want

    def test_multi_input_mean(self, workdir, capsys):
        scores = workdir / "scores_a.csv"
        rng = np.random.default_rng(10)
        lines = ["score,label,pred"]
        for _ in range(300):
            y = int(rng.integers(0, 2))
            s = rng.normal(loc=2.0 * y)
            lines.append(f"{s},{y},{int(s > 1.0)}")
        scores.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--scores", str(scores), "--quiet"]) == 0
        single = json.loads(capsys.readouterr().out.strip())
        assert main(["eval", "--scores", str(scores), "--scores", str(scores), "--quiet"]) == 0
        doubled = json.loads(capsys.readouterr().out.strip())
        for key in single:
            assert doubled[key] == pytest.approx(single[key])


    def test_zero_q_exits_one(self, workdir, capsys):
        scores = workdir / "bare_scores.csv"
        rng = np.random.default_rng(12)
        scores.write_text("score,label\n" + "".join(f"{rng.normal()},0\n" for _ in range(300)))
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--q", "0"]) == 1
        assert "q must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("frac", ["0", "-1", "1"])
    def test_calib_frac_outside_unit_interval_exits_one(self, workdir, capsys, frac):
        scores = workdir / "labeled_scores.csv"
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 2, size=300)
        scores.write_text("score,label\n" + "".join(f"{rng.normal(loc=3.0 * y)},{y}\n" for y in labels))
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--calib-frac", frac]) == 1
        assert "--calib-frac must lie in (0, 1)" in capsys.readouterr().err


class TestSpot:
    def test_trace_monotone_k_and_spikes(self, workdir, capsys):
        rng = np.random.default_rng(11)
        values = rng.normal(size=4000)
        spike_pos = rng.choice(np.arange(1000, 4000), size=10, replace=False)
        values[spike_pos] = 40.0
        path = workdir / "spot_scores.csv"
        path.write_text("score\n" + "\n".join(str(v) for v in values) + "\n")
        trace = workdir / "trace.jsonl"
        assert main(["spot", "--scores", str(path), "--q", "1e-4", "--calib", "1000", "--out", str(trace)]) == 0
        ks = []
        spike_rows = {int(i) for i in spike_pos}
        caught = 0
        for line in trace.read_text().strip().split("\n"):
            row = json.loads(line)
            ks.append(row["k"])
            if row["i"] in spike_rows and row["label"] == 1:
                caught += 1
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        assert caught == 10

    @pytest.mark.parametrize("level", ["0", "1.5"])
    def test_out_of_range_init_level_exits_one(self, workdir, capsys, level):
        path = workdir / "spot_scores_300.csv"
        path.write_text("score\n" + "\n".join(str(v) for v in np.random.default_rng(14).normal(size=300)) + "\n")
        out = workdir / "spot_init_level.jsonl"
        capsys.readouterr()
        assert main(["spot", "--scores", str(path), "--init-level", level, "--out", str(out)]) == 1
        assert "init_level must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists() or out.read_text() == ""

    @pytest.mark.parametrize("calib", ["0", "-3", "1"])
    def test_invalid_calib_exits_one(self, workdir, capsys, calib):
        path = workdir / "spot_scores_300.csv"
        path.write_text("score\n" + "\n".join(str(v) for v in np.random.default_rng(14).normal(size=300)) + "\n")
        capsys.readouterr()
        assert main(["spot", "--scores", str(path), "--calib", calib, "--out", os.devnull]) == 1
        assert "--calib must be a fraction in (0, 1) or a count above 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label,score\n0,0.5\n1\n", ":3: expected 2 fields, got 1: '1'"),
            ("score\n0.5\nhigh\n", ":3: bad number in 'high'"),
            ("0.5\n0.6,0.7\n", ":2: expected 1 fields, got 2: '0.6,0.7'"),
            ("label,value\n0,0.5\n", ": expected a header naming a 'score' column, or one bare score column"),
        ],
    )
    def test_malformed_score_file_exits_one(self, workdir, capsys, text, message):
        path = workdir / "malformed_spot_scores.csv"
        path.write_text(text)
        capsys.readouterr()
        assert main(["spot", "--scores", str(path), "--out", os.devnull]) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("header", [None, "score", "t,score,label"])
    def test_score_column_formats(self, workdir, capsys, header):
        # a bare score column, or `score` anywhere in a header; other columns are not read
        values = np.random.default_rng(15).normal(size=800)
        rows = [f"2018-01-01T00:{i % 60:02d},{v},x" if header == "t,score,label" else str(v) for i, v in enumerate(values)]
        path, trace = workdir / "spot_formats.csv", workdir / "spot_formats.jsonl"
        path.write_text("\n".join(([header] if header else []) + rows) + "\n")
        assert main(["spot", "--scores", str(path), "--calib", "600", "--out", str(trace)]) == 0
        got = [json.loads(line)["score"] for line in trace.read_text().splitlines()]
        assert got == [float(format(v, ".9g")) for v in values[600:]]
