"""Versioned npz containers for model and engine state (format version 2).

A container is an npz archive: a JSON header under the reserved key
`__meta__` (format tag, version, structured metadata) plus raw arrays, which
round-trip bit-exactly. Both checkpoint kinds share one model codec,
`encode_model`/`decode_model`:

- the header carries `dims` (`ModelDims`) and `stats` (`SeriesStats`);
- the array `params` is `ModelParams.vector`, the one 1-D float64 array that
  stores every weight (in `ModelParams.parameters()` order, each tensor
  flattened in C order).

A model checkpoint is exactly those two members. An engine checkpoint adds
`config`, `stream` and `spot` to the header and the arrays `power` (the
buffered readings, oldest first), `calib_scores` and, once calibrated,
`peaks`. `calib_scores` holds the scores collected so far while calibrating;
once SPOT is calibrated nothing reads them, so the member is empty (a file
that still carries them loads the same). Version 1 files (one npz member per
weight) are rejected.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict

import numpy as np

from .data import SeriesStats
from .model import ModelDims, ModelParams

FORMAT_KEY = "__meta__"
PARAMS_KEY = "params"
MODEL_FORMAT = "evdetect-model"
ENGINE_FORMAT = "evdetect-engine"
FORMAT_VERSION = 2


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
    if not isinstance(meta, dict) or meta.get("format") != kind:
        raise ValueError(f"not a {kind} file: {path}")
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} version {meta.get('version')}")
    return meta, arrays


def encode_model(params: ModelParams, stats: SeriesStats) -> tuple[dict, dict[str, np.ndarray]]:
    """Header fields and arrays of a model: dims, stats and the flat weights."""
    meta = {"dims": asdict(params.dims), "stats": asdict(stats)}
    return meta, {PARAMS_KEY: params.vector}


def decode_model(meta: dict, arrays: dict[str, np.ndarray], shared: bool = False) -> tuple[ModelParams, SeriesStats]:
    """Inverse of `encode_model`; malformed metadata or weights raise ValueError.

    The model is built straight from the stored vector, without a random init.
    With `shared` it is the read-only `ModelParams.shared` model of these dims
    and weights, decoded only if no live holder has it already.
    """
    try:
        dims = ModelDims(**meta["dims"])
        stats = SeriesStats(**meta["stats"])
        flat = arrays[PARAMS_KEY]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint metadata: {exc!r}") from exc
    return (ModelParams.shared(dims, flat) if shared else ModelParams(dims, vector=flat)), stats


def save_model(path, params: ModelParams, stats: SeriesStats) -> None:
    write_container(path, MODEL_FORMAT, *encode_model(params, stats))


def load_model(path) -> tuple[ModelParams, SeriesStats]:
    return decode_model(*read_container(path, MODEL_FORMAT))
