"""Checkpoint container round-trip tests."""

import json

import numpy as np
import pytest

from evdetect.checkpoint import (
    FORMAT_KEY,
    MODEL_FORMAT,
    PARAMS_KEY,
    encode_model,
    load_model,
    read_container,
    save_model,
    write_container,
)
from evdetect.data import SeriesStats
from evdetect.model import ModelDims, ModelParams, mtr_forward


def test_model_round_trip_bit_exact(tmp_path):
    dims = ModelDims(C=8, hidden=8, heads=2, lm=4, gm=12, e0=6, e1=3)
    params = ModelParams(dims, seed=3)
    stats = SeriesStats(mean=0.7312819401, std=0.28718374, count=999)
    path = tmp_path / "model.npz"
    save_model(path, params, stats)
    loaded, loaded_stats = load_model(path)
    assert loaded.dims == dims
    assert loaded_stats == stats
    for a, b in zip(params.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    rng = np.random.default_rng(0)
    lm, gm = rng.normal(size=4), rng.normal(size=12)
    np.testing.assert_array_equal(mtr_forward(lm, gm, params), mtr_forward(lm, gm, loaded))


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "box.npz"
    write_container(path, "evdetect-model", {"dims": {}, "stats": {}}, {"x": np.ones(3)})
    with pytest.raises(ValueError):
        read_container(path, "evdetect-engine")


def test_model_checkpoint_is_meta_and_one_array(tmp_path):
    path = tmp_path / "model.npz"
    save_model(path, ModelParams(ModelDims(), seed=0), SeriesStats(mean=0.0, std=1.0, count=1))
    with np.load(path) as npz:
        assert sorted(npz.files) == [FORMAT_KEY, PARAMS_KEY]
        assert npz[PARAMS_KEY].dtype == np.float64 and npz[PARAMS_KEY].ndim == 1


def test_wrong_size_params_rejected(tmp_path):
    meta, arrays = encode_model(ModelParams(ModelDims(), seed=0), SeriesStats(mean=0.0, std=1.0, count=1))
    flat = arrays[PARAMS_KEY]
    path = tmp_path / "model.npz"
    for bad in (flat[:-1], np.append(flat, 0.0), flat.astype(np.float32)):
        write_container(path, MODEL_FORMAT, meta, {PARAMS_KEY: bad})
        with pytest.raises(ValueError, match="parameter array"):
            load_model(path)


def test_version_one_rejected(tmp_path):
    path = tmp_path / "v1.npz"
    header = json.dumps({"format": MODEL_FORMAT, "version": 1, "dims": {}, "stats": {}}).encode("utf-8")
    np.savez(path, **{FORMAT_KEY: np.frombuffer(header, dtype=np.uint8), "head.w": np.ones((8, 1))})
    with pytest.raises(ValueError, match="unsupported evdetect-model version 1"):
        load_model(path)


def test_non_object_header_rejected(tmp_path):
    path = tmp_path / "list.npz"
    np.savez(path, **{FORMAT_KEY: np.frombuffer(b"[1, 2]", dtype=np.uint8)})
    with pytest.raises(ValueError, match="not a evdetect-model file"):
        load_model(path)
