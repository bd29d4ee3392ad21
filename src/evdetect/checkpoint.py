"""Versioned npz containers for model and engine state.

Arrays round-trip bit-exactly (raw float64); structured metadata rides along
as a JSON string under a reserved key.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict

import numpy as np

from .data import SeriesStats
from .model import ModelDims, ModelParams

FORMAT_KEY = "__meta__"
MODEL_FORMAT = "evdetect-model"
ENGINE_FORMAT = "evdetect-engine"
FORMAT_VERSION = 1


def write_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    if FORMAT_KEY in arrays:
        raise ValueError(f"{FORMAT_KEY} is reserved")
    header = {"format": kind, "version": FORMAT_VERSION, **meta}
    payload = {FORMAT_KEY: np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    payload.update(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def read_container(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; a truncated or foreign file raises ValueError."""
    try:
        npz = np.load(path)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError(f"not a {kind} file (not an npz archive): {path}")
        with npz:
            arrays = {k: npz[k] for k in npz.files if k != FORMAT_KEY}
            meta = json.loads(npz[FORMAT_KEY].tobytes().decode("utf-8"))
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a readable {kind} file: {path} ({exc})") from exc
    except KeyError as exc:
        raise ValueError(f"not a {kind} file (no {FORMAT_KEY}): {path}") from exc
    if meta.get("format") != kind:
        raise ValueError(f"not a {kind} file: {path}")
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} version {meta.get('version')}")
    return meta, arrays


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------


def _attention_arrays(prefix: str, p) -> dict[str, np.ndarray]:
    out = {}
    for i, (wq, wk, wv) in enumerate(zip(p.wq, p.wk, p.wv)):
        out[f"{prefix}.wq{i}"] = wq.data
        out[f"{prefix}.wk{i}"] = wk.data
        out[f"{prefix}.wv{i}"] = wv.data
    out[f"{prefix}.wo"] = p.wo.data
    return out


def _trd_arrays(prefix: str, p) -> dict[str, np.ndarray]:
    out = {}
    out.update(_attention_arrays(f"{prefix}.self", p.self_attn))
    out.update(_attention_arrays(f"{prefix}.cross", p.cross_attn))
    out[f"{prefix}.w1"] = p.w1.data
    out[f"{prefix}.b1"] = p.b1.data
    out[f"{prefix}.w2"] = p.w2.data
    out[f"{prefix}.b2"] = p.b2.data
    for j, ln in enumerate((p.ln1, p.ln2, p.ln3), start=1):
        out[f"{prefix}.ln{j}.gain"] = ln.gain.data
        out[f"{prefix}.ln{j}.bias"] = ln.bias.data
    return out


def model_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    out = {
        "embed.w": params.embed_w.data,
        "embed.b": params.embed_b.data,
        "enc1.queries": params.enc1_queries.data,
        "enc2.queries": params.enc2_queries.data,
        "head.w": params.head_w.data,
        "head.b": params.head_b.data,
    }
    out.update(_trd_arrays("enc1", params.enc1))
    out.update(_trd_arrays("enc2", params.enc2))
    out.update(_trd_arrays("dec", params.dec))
    return out


def load_model_arrays(params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    wanted = model_arrays(params)
    for name, target in wanted.items():
        if name not in arrays:
            raise ValueError(f"checkpoint missing array {name!r}")
        src = np.asarray(arrays[name], dtype=np.float64)
        if src.shape != target.shape:
            raise ValueError(f"array {name!r} has shape {src.shape}, expected {target.shape}")
        target[...] = src


def save_model(path, params: ModelParams, stats: SeriesStats) -> None:
    meta = {"dims": asdict(params.dims), "stats": asdict(stats)}
    write_container(path, MODEL_FORMAT, meta, model_arrays(params))


def load_model(path) -> tuple[ModelParams, SeriesStats]:
    meta, arrays = read_container(path, MODEL_FORMAT)
    dims = ModelDims(**meta["dims"])
    params = ModelParams(dims, seed=0)
    load_model_arrays(params, arrays)
    stats = SeriesStats(**meta["stats"])
    return params, stats
