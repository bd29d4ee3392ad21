"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402  (before numpy)
import numpy as np  # noqa: E402
import pytest  # noqa: E402
from evdetect import EngineConfig, ModelDims, ModelParams, OnlineDetector, fit_stats  # noqa: E402
from evdetect.data import SynthConfig, synth_household  # noqa: E402
from gen import Sizes, content_digest, generate  # noqa: E402
from traced import LayerPath, Tracer, event_out, recomposition_check  # noqa: E402

TINY = Sizes(
    train_days=1,
    model_epochs=1,
    replay_meters=2,
    replay_days=1,
    fleet_meters=3,
    fleet_templates=1,
    fleet_days=1,
    fleet_resume_at=200,
    calibration_len=100,
)


def _files(root):
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            with open(os.path.join(d, n), "rb") as fh:
                out[os.path.relpath(os.path.join(d, n), root)] = fh.read()
    return out


def test_same_seed_gives_identical_inputs(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    info_a = generate(5, str(a), ["replay", "fleet"], TINY)
    info_b = generate(5, str(b), ["replay", "fleet"], TINY)
    info_c = generate(6, str(c), ["replay", "fleet"], TINY)

    assert info_a == info_b
    assert info_a["digest"] != info_c["digest"]
    files_a, files_b = _files(a), _files(b)
    assert sorted(files_a) == sorted(files_b)
    # text inputs byte for byte; npz arrays byte for byte (zip headers carry write times)
    assert files_a["meter-0.csv"] == files_b["meter-0.csv"]
    assert files_a["meter-1.csv"] == files_b["meter-1.csv"]
    for name in files_a:
        if name.endswith(".npz"):
            with np.load(a / name) as x, np.load(b / name) as y:
                assert x.files == y.files
                for key in x.files:
                    assert x[key].tobytes() == y[key].tobytes(), (name, key)
    assert content_digest(str(a)) == info_a["digest"]


def test_tail_percentile_rule():
    assert common.tail_percentile(10_000) == 99.9
    assert common.tail_percentile(1_000) == 99.0
    assert common.tail_percentile(999) == 90.0
    assert common.tail_percentile(100) == 90.0
    assert common.tail_percentile(99) is None
    values = list(range(1_000))
    assert common.tail(values, 99.0) == pytest.approx(np.percentile(values, 99))
    with pytest.raises(ValueError):
        common.tail(values[:999], 99.0)
    with pytest.raises(ValueError):
        common.tail(values[:99], 90.0)


def test_self_time_subtracts_children():
    tr = Tracer()
    root = tr.begin("root", 0)
    for _ in range(2):
        s = tr.begin("child", 0)
        tr.end(s)
    tr.end(root)
    selfs = tr.self_times()
    dur = tr.ends[root] - tr.starts[root]
    assert selfs[root] == dur - sum(tr.durations("child"))
    assert tr.parents == [-1, 0, 0]


def _traced_stream(n=400):
    series = synth_household(SynthConfig(days=1, seed=3))
    params = ModelParams(ModelDims(), seed=4)
    stats = fit_stats(series.powers)
    cfg = EngineConfig(calibration_len=100)
    engine = OnlineDetector(params, stats, cfg)
    path = LayerPath(OnlineDetector(params, stats, cfg))
    tr = Tracer()
    engine_out, layer_out = [], []
    for k, reading in enumerate(list(series.iter_readings())[:n]):
        engine_out.append(event_out(engine.step(reading)))
        layer_out.append(path.step(reading, k, tr))
    return engine_out, layer_out


def test_recomposition_check_passes_and_trips_on_perturbation():
    engine_out, layer_out = _traced_stream()
    assert any(o[0] == "detecting" for o in layer_out)
    checks = common.Checks()
    recomposition_check(checks, "clean", engine_out, layer_out)
    assert checks.ok, checks.failures()

    i = next(j for j, o in enumerate(layer_out) if o[0] == "detecting")
    phase, score, threshold, label = layer_out[i]
    bad_score = layer_out[:i] + [(phase, score + 1e-6, threshold, label)] + layer_out[i + 1 :]
    bad_label = layer_out[:i] + [(phase, score, threshold, 1 - label)] + layer_out[i + 1 :]
    for name, bad in (("score", bad_score), ("label", bad_label)):
        checks = common.Checks()
        recomposition_check(checks, name, engine_out, bad)
        assert not checks.ok
