"""CLI contract tests: exit codes, determinism, config precedence, round trips."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from evdetect.checkpoint import ENGINE_FORMAT, MODEL_FORMAT, PARAMS_KEY, encode_model, load_model, write_container
from evdetect.cli import main
from evdetect.data import MeterSeries, SeriesStats, format_meter_csv, read_meter_csv
from evdetect.engine import EngineConfig, OnlineDetector
from evdetect.model import ModelDims, ModelParams

RUN = [sys.executable, "-m", "evdetect.cli"]


def _model_without_dims(path, params):
    write_container(path, MODEL_FORMAT, {"stats": {}}, {PARAMS_KEY: params})


def _engine_without_config(path, _):
    # valid dims, stats and weights, but none of the engine's own fields
    meta, arrays = encode_model(ModelParams(ModelDims(), seed=0), SeriesStats(mean=0.0, std=1.0, count=1))
    write_container(path, ENGINE_FORMAT, meta, arrays)


def run_cli(args, **kwargs):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kwargs)


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

    def test_no_cache_identical_labels(self, workdir, tiny_setup):
        outs = []
        for flag in ([], ["--no-cache"]):
            path = workdir / f"events_{'nc' if flag else 'c'}.jsonl"
            code = main(
                [
                    "detect",
                    "--checkpoint", str(tiny_setup["ckpt"]),
                    str(tiny_setup["detect_csv"]),
                    "--out", str(path),
                    "--calibration-len", "600",
                    "--q", "1e-3",
                ]
                + flag
            )
            assert code == 0
            outs.append([json.loads(l)["label"] for l in path.read_text().strip().split("\n")])
        assert outs[0] == outs[1]

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

    def test_non_finite_score_is_an_error_event(self, workdir, tiny_setup):
        # a finite reading too large for the forward stays in the windows: its
        # scores are error events while it is there, and the stream goes on
        lines = tiny_setup["detect_csv"].read_text().splitlines()
        spike, warm, span = 1600, 8 + 32 - 1, 8 + 32
        t, _, label = lines[1 + spike].split(",")
        lines[1 + spike] = f"{t},1e200,{label}"
        csv, out = workdir / "spike.csv", workdir / "spike_events.jsonl"
        csv.write_text("\n".join(lines) + "\n")
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(csv), "--out", str(out)]
        with pytest.warns(RuntimeWarning):
            code = main(args + ["--calibration-len", "600", "--q", "1e-3"])
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(events) == len(lines) - 1 - warm
        errors = [warm + i for i, e in enumerate(events) if "error" in e]
        assert errors and all(spike <= row < spike + span for row in errors)
        rejected = {"score": None, "threshold": None, "label": 0, "phase": "detecting", "error": "non-finite anomaly score"}
        assert all(events[row - warm] == {"t": events[row - warm]["t"], **rejected} for row in errors)
        after = events[spike + span - warm :]
        assert after and all(np.isfinite(e["score"]) and np.isfinite(e["threshold"]) for e in after)

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
            filled=series.filled[keep],
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
        csv.write_text(format_meter_csv(MeterSeries(series.timestamps, series.powers, series.filled, labels)))
        assert main(args + [str(csv), "--out", str(workdir / "ev_in_prefix_file.jsonl")]) == 0
        assert capsys.readouterr().err.count(warning) == 1
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv.read_text()))
        assert main(args + ["-", "--out", str(workdir / "ev_in_prefix_stdin.jsonl")]) == 0
        assert capsys.readouterr().err.count(warning) == 1

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
                filled=series.filled[sl],
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

    def test_long_gap_rewarms_windows(self, workdir, tiny_setup):
        # a 2-hour gap after calibration opens a new segment; no window spans it
        series = read_meter_csv(str(tiny_setup["detect_csv"]))
        cut, skip = 1500, 120
        keep = np.r_[0:cut, cut + skip : len(series)]
        gapped = MeterSeries(
            timestamps=[series.timestamps[i] for i in keep],
            powers=series.powers[keep],
            filled=series.filled[keep],
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
            pytest.param(["--no-cache"], None, "--no-cache", id="flag-no-cache"),
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

    def test_refit_stride_zero_exits_one(self, tiny_setup, capsys):
        capsys.readouterr()
        args = ["detect", "--checkpoint", str(tiny_setup["ckpt"]), str(tiny_setup["detect_csv"]), "--out", os.devnull]
        assert main(args + ["--refit-stride", "0"]) == 1
        assert "refit_stride must be >= 1" in capsys.readouterr().err


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

    @pytest.mark.parametrize("calib", ["0", "-3", "1"])
    def test_invalid_calib_exits_one(self, workdir, capsys, calib):
        path = workdir / "spot_scores_300.csv"
        path.write_text("score\n" + "\n".join(str(v) for v in np.random.default_rng(14).normal(size=300)) + "\n")
        capsys.readouterr()
        assert main(["spot", "--scores", str(path), "--calib", calib, "--out", os.devnull]) == 1
        assert "--calib must be a fraction in (0, 1) or a count above 1" in capsys.readouterr().err
