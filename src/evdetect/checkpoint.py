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

`read_container` reads a file's bytes once and parses the zip container itself,
with `struct`, as `zipfile` reads it: it finds the end-of-central-directory
record, walks the central directory, decodes names as UTF-8 when the entry says
so and as cp437 otherwise, and allows bytes before the archive by shifting every
offset. It refuses a multi-disk archive and a zip64 one (a zip64 end locator, an
entry count of 0xFFFF, or a size or offset of 0xFFFFFFFF), and what `zipfile`
refuses: a directory that does not fit or has a bad signature, a corrupt extra
field, a member that needs a zip version above 6.3. No engine or model file
comes near the zip64 limits. Each member is then sliced from those bytes, after
checks that its local header is there, that it is stored (neither compressed
nor encrypted; `write_container`'s `np.savez` writes only stored members), and
that its length and CRC-32 match its directory entry (a member byte-equal to
one already verified under the same CRC-32, as the weights of a fleet's files
are, is not summed again; see `_members`). Each npy header goes
through the public `np.lib.format` parsers (whose `literal_eval` costs more
than the rest of a member's read), memoised on the raw header bytes. A
header records only dtype, order and shape, so across the files of one fleet
most headers repeat: that of `params` always, those of the other members
whenever two meters' arrays have the same length. Header dims are likewise
checked once per distinct dims (`_header_dims`). As with
`np.load(allow_pickle=False)`, object dtypes are refused; so is a member whose
data is shorter or longer than its header says.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .data import SeriesStats
from .model import ModelDims, ModelParams

FORMAT_KEY = "__meta__"
PARAMS_KEY = "params"
MODEL_FORMAT = "evdetect-model"
ENGINE_FORMAT = "evdetect-engine"
FORMAT_VERSION = 2

# zip records, little-endian (APPNOTE 4.3.7, 4.3.12 and 4.3.16); each names
# the fields read, and skips the others
# end of central directory: signature, this disk, the directory's disk, entries
# on this disk, entries in all, directory size, directory offset, comment length
_END = struct.Struct("<4s4H2LH")
# central directory entry: signature, version needed to extract, flags, method,
# CRC-32, compressed size, size, name, extra and comment lengths, local header
# offset
_ENTRY = struct.Struct("<4s2xBxHH4x3L3H8xL")
# local file header: signature, 22 bytes of fields the directory repeats, name
# length, extra-field length; the name and the extra field follow it
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_ZIP64 = 0xFFFFFFFF


def write_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    if FORMAT_KEY in arrays:
        raise ValueError(f"{FORMAT_KEY} is reserved")
    header = {"format": kind, "version": FORMAT_VERSION, **meta}
    payload = {FORMAT_KEY: np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    payload.update(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


@functools.lru_cache(maxsize=256)
def _npy_header(raw: bytes) -> tuple[tuple[int, ...], str, np.dtype]:
    """Shape, order and dtype of one npy header (magic included)."""
    fp = io.BytesIO(raw)
    version = np.lib.format.read_magic(fp)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"npy version {version} is not 1.0 or 2.0")
    read = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
    shape, fortran, dtype = read(fp)
    if dtype.hasobject:
        raise ValueError(f"object array ({dtype}) refused")
    return shape, "F" if fortran else "C", dtype


def _npy_array(name: str, member: bytes) -> np.ndarray:
    """The array of one npy member, a read-only view of its bytes."""
    width = 2 if member[6:7] == b"\x01" else 4
    start = 8 + width + int.from_bytes(member[8 : 8 + width], "little")
    shape, order, dtype = _npy_header(member[:start])
    count = math.prod(shape)
    if len(member) - start != count * dtype.itemsize:
        raise ValueError(f"member {name} has {len(member) - start} data bytes, its header says {count * dtype.itemsize}")
    return np.frombuffer(member, dtype, count, start).reshape(shape, order=order)


# (CRC-32, bytes) of the longest member of the archive `_members` last read whole
_VERIFIED: tuple[int | None, bytes] = (None, b"")


def _members(data: bytes):
    """(name, bytes) of each member of the zip archive `data`, sliced from it
    after the checks the module docstring lists; a failed one raises ValueError.

    A member byte-equal to `_VERIFIED`'s, under the CRC-32 that one was
    verified against, has that CRC, so it is not computed again: across a
    fleet's files the weights are such a member."""
    global _VERIFIED
    # one read of the one tuple, so a thread never pairs one member's bytes with another's CRC
    known_crc, known = _VERIFIED
    longest = (None, b"")
    end = data.rfind(b"PK\x05\x06", max(len(data) - (1 << 16) - _END.size, 0))
    if end < 0:
        raise ValueError("no end-of-central-directory record")
    _, disk, start_disk, on_disk, count, size, offset, _ = _END.unpack_from(data, end)
    if disk or start_disk or on_disk != count:
        raise ValueError("a multi-disk archive")
    if count == 0xFFFF or _ZIP64 in (size, offset) or (end >= 20 and data[end - 20 : end - 16] == b"PK\x06\x07"):
        raise ValueError("a zip64 archive")
    if size > end:
        raise ValueError(f"a central directory of {size} bytes does not fit before byte {end}")
    directory, shift = data[end - size : end], end - size - offset
    at = 0
    while at < size:
        signature, version, flags, method, crc, stored, file_size, name_len, extra_len, comment_len, header = (
            _ENTRY.unpack_from(directory, at)
        )
        if signature != b"PK\x01\x02":
            raise ValueError("bad central directory signature")
        at += _ENTRY.size
        # cp437 decodes ASCII as UTF-8 does, only through a slower codec
        name = directory[at : at + name_len]
        name = name.decode("utf-8" if flags & 0x800 or name.isascii() else "cp437").partition("\0")[0]
        extra = directory[at + name_len : at + name_len + extra_len]
        at += name_len + extra_len + comment_len
        if version > 63:
            raise ValueError(f"member {name} needs zip version {version / 10}")
        if _ZIP64 in (stored, file_size, header):
            raise ValueError(f"member {name} has zip64 sizes or offset")
        while len(extra) >= 4:
            skip = 4 + int.from_bytes(extra[2:4], "little")
            if skip > len(extra):
                raise ValueError(f"member {name} has a corrupt extra field")
            extra = extra[skip:]
        header += shift
        signature, name_len, extra_len = _LOCAL_HEADER.unpack_from(data, header)
        if signature != b"PK\x03\x04":
            raise ValueError(f"member {name} has no local header")
        if method != 0 or flags & 0x1:
            raise ValueError(f"member {name} is compressed or encrypted, not stored")
        start = header + _LOCAL_HEADER.size + name_len + extra_len
        member = data[start : start + file_size]
        if len(member) != file_size or stored != file_size:
            raise ValueError(f"member {name} has {len(member)} bytes, its directory entry says {file_size}")
        if not (crc == known_crc and member == known) and zlib.crc32(member) != crc:
            raise ValueError(f"bad CRC-32 for member {name}")
        if len(member) > len(longest[1]):
            longest = (crc, member)
        yield name, member
    _VERIFIED = longest


def read_container(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; a truncated, corrupt or foreign file raises ValueError.

    The arrays are read-only views of the file's bytes.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    try:
        arrays = {name.removesuffix(".npy"): _npy_array(name, member) for name, member in _members(data)}
    except (ValueError, struct.error) as exc:
        raise ValueError(f"not a readable {kind} file: {path} ({exc})") from exc
    try:
        meta = json.loads(arrays.pop(FORMAT_KEY).tobytes().decode("utf-8"))
    except KeyError as exc:
        raise ValueError(f"not a {kind} file (no {FORMAT_KEY}): {path}") from exc
    if not isinstance(meta, dict) or meta.get("format") != kind:
        raise ValueError(f"not a {kind} file: {path}")
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} version {meta.get('version')}: {path}")
    return meta, arrays


# `ModelDims` validated once per distinct header dims; typed, so 8, 8.0 and True stay apart
_header_dims = functools.lru_cache(maxsize=64, typed=True)(ModelDims)


def encode_model(params: ModelParams, stats: SeriesStats) -> tuple[dict, dict[str, np.ndarray]]:
    """Header fields and arrays of a model: dims, stats and the flat weights."""
    meta = {"dims": asdict(params.dims), "stats": asdict(stats)}
    return meta, {PARAMS_KEY: params.vector}


def decode_model(meta: dict, arrays: dict[str, np.ndarray]) -> tuple[ModelDims, np.ndarray, SeriesStats]:
    """Inverse of `encode_model`: dims, weight vector and stats. A missing key
    raises KeyError, a field of the wrong kind TypeError or ValueError; the
    loaders decode under `naming`. `load_model` builds a writable model from
    them, without a random init and without its per-weight tree, which the
    model builds when something first reads a weight; `OnlineDetector.load`
    takes `ModelParams.shared`'s, decoded only if no live holder has it
    already.
    """
    fields = meta["dims"]
    try:
        dims = _header_dims(**fields)
    except TypeError:
        # also a field no cache key can hold (a list, say), which `ModelDims` names
        dims = ModelDims(**fields)
    return dims, arrays[PARAMS_KEY], SeriesStats(**meta["stats"])


@contextlib.contextmanager
def naming(path, kind: str):
    """Decode `path`'s header and arrays inside this block: any error becomes
    one ValueError that names the file, a missing key or a field of the wrong
    type as malformed metadata."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed {kind} metadata: {exc!r}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_model(path, params: ModelParams, stats: SeriesStats) -> None:
    write_container(path, MODEL_FORMAT, *encode_model(params, stats))


def load_model(path) -> tuple[ModelParams, SeriesStats]:
    """The writable model and stats saved by `save_model`; a malformed file
    raises a ValueError that names it, as does a weight vector that
    `ModelParams` refuses (not finite, or of the wrong dtype or length). The
    model's per-weight tree is built only if something reads a weight, so an
    `OnlineDetector` built on it, which reads only its vector, builds none."""
    meta, arrays = read_container(path, MODEL_FORMAT)
    with naming(path, MODEL_FORMAT):
        dims, vector, stats = decode_model(meta, arrays)
        return ModelParams(dims, vector=vector), stats
