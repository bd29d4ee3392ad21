"""Checkpoint container round-trip tests."""

import io
import json
import struct
import zipfile
import zlib
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from evdetect import checkpoint
from evdetect.checkpoint import (
    ENGINE_FORMAT,
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
from evdetect.engine import EngineConfig, OnlineDetector
from evdetect.memory import Reading
from evdetect.model import ModelDims, ModelParams, mtr_forward
from evdetect.spot import CalibrationWarning


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
    params = ModelParams(ModelDims(), seed=0)
    save_model(path, params, SeriesStats(mean=0.0, std=1.0, count=1))
    with np.load(path) as npz:
        assert sorted(npz.files) == [FORMAT_KEY, PARAMS_KEY]
        assert npz[PARAMS_KEY].dtype == np.float64 and npz[PARAMS_KEY].ndim == 1
        # format 2: every weight, in parameters() order, each flattened in C order
        np.testing.assert_array_equal(npz[PARAMS_KEY], np.concatenate([t.data.ravel() for t in params.parameters()]))


def test_load_draws_no_random_init(tmp_path, monkeypatch):
    params = ModelParams(ModelDims(), seed=5)
    path = tmp_path / "model.npz"
    save_model(path, params, SeriesStats(mean=0.0, std=1.0, count=1))

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew a random init")

    monkeypatch.setattr("evdetect.model.uniform_init", no_draws)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded, _ = load_model(path)
    np.testing.assert_array_equal(loaded.vector, params.vector)
    for a, b in zip(params.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_wrong_size_params_rejected(tmp_path):
    meta, arrays = encode_model(ModelParams(ModelDims(), seed=0), SeriesStats(mean=0.0, std=1.0, count=1))
    flat = arrays[PARAMS_KEY]
    path = tmp_path / "model.npz"
    for bad in (flat[:-1], np.append(flat, 0.0), flat.astype(np.float32)):
        write_container(path, MODEL_FORMAT, meta, {PARAMS_KEY: bad})
        with pytest.raises(ValueError, match="parameter array"):
            load_model(path)


@pytest.mark.parametrize(
    "size, message",
    [
        (8.0, "model size C must be an integer >= 1, got 8.0"),
        ([8], "model size C must be an integer >= 1, got [8]"),
        ({"C": 8}, "model size C must be an integer >= 1, got {'C': 8}"),
        (True, "feature width C must be even (sinusoidal position pairs)"),
    ],
    ids=["float", "list", "object", "bool"],
)
def test_header_dims_equal_to_loaded_ones_are_still_checked(tmp_path, size, message):
    # a header whose C equals a loaded model's 8 under ==, or cannot be hashed
    meta, arrays = encode_model(ModelParams(ModelDims(), seed=0), SeriesStats(mean=0.0, std=1.0, count=1))
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    write_container(good, MODEL_FORMAT, meta, arrays)
    write_container(bad, MODEL_FORMAT, {**meta, "dims": {**meta["dims"], "C": size}}, arrays)
    assert load_model(good)[0].dims == ModelDims()
    with pytest.raises(ValueError) as refused:
        load_model(bad)
    assert str(refused.value) == f"{bad}: {message}"


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


# ---------------------------------------------------------------------------
# read_container against np.load
# ---------------------------------------------------------------------------


def _header():
    meta = json.dumps({"format": MODEL_FORMAT, "version": 2}).encode("utf-8")
    return np.frombuffer(meta, dtype=np.uint8)


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array))
    return buf.getvalue()


def _zip(path, members: dict[str, bytes]) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name + ".npy", data)


def _model_file(path):
    save_model(path, ModelParams(ModelDims(), seed=2), SeriesStats(mean=0.3, std=0.9, count=5))
    with zipfile.ZipFile(path) as zf:
        return zf.getinfo(PARAMS_KEY + ".npy")


def _damaged_local_header(path):
    at = _model_file(path).header_offset
    raw = bytearray(path.read_bytes())
    raw[at + 2] ^= 0xFF  # "PK\x03\x04" becomes "PK\xfc\x04"
    path.write_bytes(bytes(raw))


def _cut_inside_member(path):
    info = _model_file(path)
    path.write_bytes(path.read_bytes()[: info.header_offset + info.file_size // 2])


def _engine_file(path):
    dims = ModelDims(C=8, hidden=8, heads=2, lm=4, gm=12, e0=6, e1=3)
    det = OnlineDetector(
        ModelParams(dims, seed=4),
        SeriesStats(mean=0.1, std=1.3, count=10),
        EngineConfig(lm=dims.lm, gm=dims.gm, calibration_len=100),
    )
    for i, v in enumerate(np.random.default_rng(5).normal(size=60)):
        det.step(Reading(datetime(2020, 1, 1) + timedelta(minutes=i), float(v)))
    det.save(path)


def _assert_same_as_np_load(path, kind):
    meta, arrays = read_container(path, kind)
    with np.load(path) as npz:
        assert meta == json.loads(npz[FORMAT_KEY].tobytes())
        assert sorted(arrays) == sorted(k for k in npz.files if k != FORMAT_KEY)
        for name, got in arrays.items():
            want = npz[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
            np.testing.assert_array_equal(got, want)
    return arrays


class TestReadContainer:
    def test_model_and_engine_files_match_np_load(self, tmp_path):
        model = tmp_path / "model.npz"
        save_model(model, ModelParams(ModelDims(), seed=2), SeriesStats(mean=0.3, std=0.9, count=5))
        _assert_same_as_np_load(model, MODEL_FORMAT)
        engine = tmp_path / "engine.npz"
        _engine_file(engine)
        arrays = _assert_same_as_np_load(engine, ENGINE_FORMAT)
        assert sorted(arrays) == ["calib_scores", "params", "power"]

    def test_savez_zero_d_int_and_fortran_members_match_np_load(self, tmp_path):
        path = tmp_path / "mixed.npz"
        fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        np.savez(
            path,
            **{FORMAT_KEY: _header()},
            scalar=np.float64(2.5),
            counts=np.arange(7, dtype=np.int32),
            fortran=fortran,
            empty=np.zeros((0, 3)),
            big_endian=np.arange(3, dtype=">f8"),
        )
        arrays = _assert_same_as_np_load(path, MODEL_FORMAT)
        assert arrays["scalar"].shape == () and arrays["scalar"] == 2.5
        assert arrays["counts"].dtype == np.int32
        assert arrays["fortran"].flags.f_contiguous
        np.testing.assert_array_equal(arrays["fortran"], fortran)

    def test_object_member_refused(self, tmp_path):
        path = tmp_path / "object.npz"
        np.savez(path, **{FORMAT_KEY: _header()}, boxed=np.array([{"a": 1}, None], dtype=object))
        with pytest.raises(ValueError, match="object array"):
            read_container(path, MODEL_FORMAT)

    @pytest.mark.parametrize("change", [-1, 1], ids=["one-byte-short", "one-byte-long"])
    def test_member_of_wrong_length_refused(self, tmp_path, change):
        data = _npy(np.arange(5.0))
        data = data[:change] if change < 0 else data + b"\0"
        path = tmp_path / "length.npz"
        _zip(path, {FORMAT_KEY: _npy(_header()), "x": data})
        with pytest.raises(ValueError, match="data bytes"):
            read_container(path, MODEL_FORMAT)

    def test_flipped_data_byte_fails_the_crc(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(path, ModelParams(ModelDims(), seed=2), SeriesStats(mean=0.3, std=0.9, count=5))
        raw = bytearray(path.read_bytes())
        with np.load(path) as npz:
            at = raw.find(npz[PARAMS_KEY].tobytes())
        assert at > 0
        raw[at + 100] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="CRC"):
            read_container(path, MODEL_FORMAT)

    def test_a_repeated_member_is_not_checksummed_again(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        save_model(path, ModelParams(ModelDims(), seed=2), SeriesStats(mean=0.3, std=0.9, count=5))
        read_container(path, MODEL_FORMAT)
        summed = []
        monkeypatch.setattr(checkpoint, "zlib", SimpleNamespace(crc32=lambda b: summed.append(len(b)) or zlib.crc32(b)))
        _, arrays = read_container(path, MODEL_FORMAT)
        assert arrays[PARAMS_KEY].nbytes > 0 and len(summed) == 1
        assert summed[0] < arrays[PARAMS_KEY].nbytes  # the header's member only

    @staticmethod
    def _flipped_weight_byte(raw, path):
        with np.load(path) as npz:
            raw[raw.find(npz[PARAMS_KEY].tobytes()) + 100] ^= 0x01  # the stored CRC-32 is left as it was

    @staticmethod
    def _wrong_crc(raw, path):
        entry = raw.rfind(b"PK\x01\x02")  # the directory entry of the last member, params.npy
        assert raw[entry + 46 : entry + 56] == b"params.npy"
        struct.pack_into("<L", raw, entry + 16, struct.unpack_from("<L", raw, entry + 16)[0] ^ 1)

    @pytest.mark.parametrize("corrupt", ["_flipped_weight_byte", "_wrong_crc"], ids=["flipped-weight-byte", "wrong-crc"])
    def test_a_corrupt_copy_read_after_a_repeat_fails_the_crc(self, tmp_path, corrupt):
        # right after the weights were found equal to the last file's, a copy
        # whose bytes or whose stored CRC-32 alone changed is still refused
        path, copy = tmp_path / "model.npz", tmp_path / "corrupt.npz"
        save_model(path, ModelParams(ModelDims(), seed=2), SeriesStats(mean=0.3, std=0.9, count=5))
        raw = bytearray(path.read_bytes())
        getattr(self, corrupt)(raw, path)
        copy.write_bytes(bytes(raw))
        for _ in range(2):
            read_container(path, MODEL_FORMAT)
        with pytest.raises(ValueError, match=r"bad CRC-32 for member params\.npy"):
            read_container(copy, MODEL_FORMAT)

    @pytest.mark.parametrize(
        "write",
        [
            pytest.param(lambda p: p.write_bytes(b"PK\x03\x04 not a zip"), id="bad-zip"),
            pytest.param(lambda p: np.savez(p, x=np.ones(3)), id="no-meta"),
            pytest.param(lambda p: p.write_bytes(_npy(np.ones(3))), id="plain-npy"),
            pytest.param(lambda p: _zip(p, {FORMAT_KEY: _npy(_header()), "raw": b"not npy"}), id="non-npy-member"),
            pytest.param(lambda p: np.savez_compressed(p, **{FORMAT_KEY: _header()}, x=np.ones(3)), id="compressed"),
            pytest.param(_damaged_local_header, id="damaged-local-header"),
            pytest.param(_cut_inside_member, id="cut-inside-member"),
        ],
    )
    def test_foreign_files_raise_value_error(self, tmp_path, write):
        path = tmp_path / "foreign.npz"
        write(path)
        with pytest.raises(ValueError):
            read_container(path, MODEL_FORMAT)


# ---------------------------------------------------------------------------
# the zip container, parsed without zipfile
# ---------------------------------------------------------------------------


def _reference_engine_file(path):
    """An engine file at reference dims, calibrated, so it holds peaks."""
    det = OnlineDetector(ModelParams(ModelDims(), seed=4), SeriesStats(mean=0.1, std=1.3, count=10), EngineConfig(calibration_len=120))
    with pytest.warns(CalibrationWarning):  # so few calibration scores lower the initial level
        for i, v in enumerate(np.random.default_rng(5).normal(size=300)):
            det.step(Reading(datetime(2020, 1, 1) + timedelta(minutes=i), abs(float(v))))
    assert det.spot is not None
    det.save(path)
    return det


def _end_record(raw: bytes) -> int:
    at = raw.rfind(b"PK\x05\x06")
    assert at == len(raw) - 22  # np.savez writes no archive comment
    return at


def _zipfile_arrays(path):
    """Meta and arrays read member by member through zipfile."""
    with zipfile.ZipFile(path) as zf:
        arrays = {n.removesuffix(".npy"): np.lib.format.read_array(zf.open(n)) for n in zf.namelist()}
    return json.loads(arrays.pop(FORMAT_KEY).tobytes()), arrays


def _assert_same_as_zipfile(path, kind):
    meta, arrays = read_container(path, kind)
    want_meta, want = _zipfile_arrays(path)
    assert meta == want_meta
    assert sorted(arrays) == sorted(want)
    for name, got in arrays.items():
        assert (got.dtype, got.shape, got.tobytes()) == (want[name].dtype, want[name].shape, want[name].tobytes()), name


class _Unseekable(io.RawIOBase):
    """A write-only stream with no tell or seek, like a pipe."""

    def __init__(self):
        self.chunks = []

    def writable(self):
        return True

    def write(self, b):
        self.chunks.append(bytes(b))
        return len(b)


class TestZipContainer:
    def test_every_prefix_of_an_engine_file_raises_value_error(self, tmp_path):
        full = tmp_path / "engine.npz"
        _reference_engine_file(full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.npz"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError):
                read_container(cut, ENGINE_FORMAT)
        _assert_same_as_np_load(full, ENGINE_FORMAT)

    def test_archive_comment_is_skipped(self, tmp_path):
        path = tmp_path / "commented.npz"
        _reference_engine_file(path)
        with zipfile.ZipFile(path, "a") as zf:
            zf.comment = b"meter 17, saved before a restart"
        assert not path.read_bytes().endswith(b"\0\0")
        _assert_same_as_np_load(path, ENGINE_FORMAT)

    def test_archive_written_to_an_unseekable_stream_reads(self, tmp_path):
        meta, arrays = encode_model(ModelParams(ModelDims(), seed=2), SeriesStats(mean=0.3, std=0.9, count=5))
        header = {"format": MODEL_FORMAT, "version": 2, **meta}
        sink = _Unseekable()
        np.savez(sink, **{FORMAT_KEY: np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}, **arrays)
        path = tmp_path / "streamed.npz"
        path.write_bytes(b"".join(sink.chunks))
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(PARAMS_KEY + ".npy")
        assert info.flag_bits & 0x08  # sizes and CRC follow the data, in a data descriptor
        local = path.read_bytes()[info.header_offset :]
        assert local[28:30] != b"\0\0"  # the local header carries a zip64 extra field
        _assert_same_as_np_load(path, MODEL_FORMAT)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.vector, arrays[PARAMS_KEY])

    def test_bytes_before_the_archive_shift_every_offset(self, tmp_path):
        path = tmp_path / "prefixed.npz"
        _reference_engine_file(path)
        path.write_bytes(b"#!/bin/sh\nexit 0\n" * 3 + path.read_bytes())
        _assert_same_as_zipfile(path, ENGINE_FORMAT)

    def test_utf8_and_cp437_names(self, tmp_path):
        path = tmp_path / "names.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr(FORMAT_KEY + ".npy", _npy(_header()))
            zf.writestr("wärme.npy", _npy(np.arange(3.0)))  # non-ASCII: zipfile sets the UTF-8 flag
        _assert_same_as_zipfile(path, MODEL_FORMAT)
        assert sorted(read_container(path, MODEL_FORMAT)[1]) == ["wärme"]
        raw = bytearray(path.read_bytes())
        # clear the UTF-8 flag (bit 11: bit 3 of the flags' high byte) in both headers
        raw[raw.rfind(b"PK\x03\x04") + 7] &= ~0x08
        raw[raw.rfind(b"PK\x01\x02") + 9] &= ~0x08
        path.write_bytes(bytes(raw))
        _assert_same_as_zipfile(path, MODEL_FORMAT)
        assert sorted(read_container(path, MODEL_FORMAT)[1]) == ["w\u251c\xf1rme"]  # its bytes as cp437

    def test_directory_extra_fields_are_skipped_or_refused(self, tmp_path):
        path = tmp_path / "extra.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr(FORMAT_KEY + ".npy", _npy(_header()))
            info = zipfile.ZipInfo("x.npy")
            info.extra = struct.pack("<HH5s", 0x5455, 5, b"\x01time")  # an extended-timestamp field
            zf.writestr(info, _npy(np.arange(4.0)))
        _assert_same_as_zipfile(path, MODEL_FORMAT)
        raw = bytearray(path.read_bytes())
        at = raw.rfind(b"PK\x01\x02")
        assert raw[at + 46 + len("x.npy") : at + 46 + len("x.npy") + 2] == b"\x55\x54"
        raw[at + 46 + len("x.npy") + 2] = 6  # the field now claims one byte more than the entry holds
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="corrupt extra field"):
            read_container(path, MODEL_FORMAT)

    def test_member_needing_a_newer_zip_version_refused(self, tmp_path):
        path = tmp_path / "engine.npz"
        _reference_engine_file(path)
        raw = bytearray(path.read_bytes())
        raw[raw.rfind(b"PK\x01\x02") + 6] = 64  # version needed to extract: 6.4, above what zipfile reads
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="needs zip version 6.4"):
            read_container(path, ENGINE_FORMAT)

    def test_damaged_central_directory_signature_refused(self, tmp_path):
        path = tmp_path / "engine.npz"
        _reference_engine_file(path)
        raw = bytearray(path.read_bytes())
        end = _end_record(raw)
        first = end - int.from_bytes(raw[end + 12 : end + 16], "little")
        assert raw[first : first + 4] == b"PK\x01\x02"
        raw[first + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="bad central directory signature"):
            read_container(path, ENGINE_FORMAT)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(4, 1, "multi-disk", id="disk-number"),
            pytest.param(6, 1, "multi-disk", id="directory-disk"),
            pytest.param(8, 4, "multi-disk", id="entries-on-this-disk"),
        ],
    )
    def test_multi_disk_archive_refused(self, tmp_path, field, value, message):
        path = tmp_path / "engine.npz"
        _reference_engine_file(path)
        raw = bytearray(path.read_bytes())
        at = _end_record(raw) + field
        struct.pack_into("<H", raw, at, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=message):
            read_container(path, ENGINE_FORMAT)

    @pytest.mark.parametrize(
        "where, offset, fmt",
        [
            pytest.param("end", 8, "<HH", id="entry-counts"),
            pytest.param("end", 12, "<L", id="directory-size"),
            pytest.param("end", 16, "<L", id="directory-offset"),
            pytest.param("entry", 20, "<L", id="compressed-size"),
            pytest.param("entry", 24, "<L", id="size"),
            pytest.param("entry", 42, "<L", id="local-header-offset"),
        ],
    )
    def test_zip64_marker_refused(self, tmp_path, where, offset, fmt):
        path = tmp_path / "engine.npz"
        _reference_engine_file(path)
        raw = bytearray(path.read_bytes())
        end = _end_record(raw)
        at = end if where == "end" else raw.rfind(b"PK\x01\x02", 0, end)
        marker = (0xFFFF, 0xFFFF) if fmt == "<HH" else (0xFFFFFFFF,)
        struct.pack_into(fmt, raw, at + offset, *marker)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="zip64"):
            read_container(path, ENGINE_FORMAT)

    def test_zip64_end_records_refused(self, tmp_path):
        path = tmp_path / "engine.npz"
        _reference_engine_file(path)
        raw = path.read_bytes()
        end = _end_record(raw)
        count, size, offset = struct.unpack_from("<2xH2L", raw, end + 8)
        # a zip64 end record and its locator between the directory and the end record
        record = struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, size, offset)
        locator = struct.pack("<4sLQL", b"PK\x06\x07", 0, end, 1)
        path.write_bytes(raw[:end] + record + locator + raw[end:])
        _zipfile_arrays(path)  # zipfile reads the directory from the zip64 record
        with pytest.raises(ValueError, match="zip64"):
            read_container(path, ENGINE_FORMAT)

    def test_loaded_stream_holds_equal_readings(self, tmp_path):
        path = tmp_path / "engine.npz"
        det = _reference_engine_file(path)
        loaded = OnlineDetector.load(path)
        _, arrays = read_container(path, ENGINE_FORMAT)
        assert loaded.stream.times == det.stream.times
        # the saved powers, bit for bit, copied into an array the stream owns
        # and can shift, not a read-only view of the file's bytes
        assert loaded.stream.power.tobytes() == arrays["power"].tobytes() == det.stream.power.tobytes()
        assert loaded.stream.power.flags.writeable and loaded.stream.power.flags.owndata
        resaved = tmp_path / "resaved.npz"
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()
