"""A checkpoint is one self-checking file, written straight from the arrays.

``repro.store.objects.write_checkpoint`` lays a checkpoint out as a
little-endian prefix, a compact JSON header, each array's raw C-order bytes
on a 64-byte boundary, and a SHA-256 trailer over everything before it.
These tests pin that layout, that every dtype and memory layout a
checkpoint can hold comes back with its exact dtype, shape and bytes, that
writing a large array allocates no copy of it, and that a truncated or
altered file is refused by name before anything in it is parsed.
"""

from __future__ import annotations

import hashlib
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.store.checkpoint import Checkpoint
from repro.store.objects import StoreCorruptionError, read_checkpoint, write_checkpoint
from repro.store.runstore import RunStore

DTYPES = ["f2", "f4", "f8", "i8", "u1", "bool", ">f4"]
LAYOUTS = ["contiguous", "0-d", "empty", "strided", "fortran"]


@st.composite
def checkpoint_arrays(draw) -> np.ndarray:
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "0-d":
        return draw(arrays(dtype, ()))
    if layout == "empty":
        return draw(arrays(dtype, draw(st.sampled_from([(0,), (3, 0), (0, 2, 2)]))))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    base = draw(arrays(dtype, (rows, 2 * cols)))
    if layout == "strided":
        return base[:, ::2]
    if layout == "fortran":
        return np.asfortranarray(base)
    return base


def make_checkpoint(global_state: dict, extra_arrays: dict | None = None) -> Checkpoint:
    return Checkpoint(
        algorithm="adaptivefl",
        round_index=2,
        global_state=global_state,
        history={"algorithm": "adaptivefl", "rounds": [{"S": 0.1, "M": 0.2, "L": 0.3}]},
        rng_state={"bit_generator": "PCG64", "state": {"state": 7, "inc": 3}},
        extra_arrays=extra_arrays or {},
        extra_state={"fleet": {"recovering": [1, 2]}},
    )


def frame(path: Path) -> tuple[bytes, dict, int]:
    """The file's bytes, its parsed header and where its array section starts."""
    data = path.read_bytes()
    magic, header_size = struct.unpack_from("<8sQ", data)
    assert magic == b"REPROCKP"
    header_end = 16 + header_size
    start = -(-header_end // 64) * 64
    assert data[header_end:start] == bytes(start - header_end)
    return data, json.loads(data[16:header_end]), start


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(array=checkpoint_arrays(), extra=checkpoint_arrays())
    def test_exact_dtype_shape_and_bytes(self, array, extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round_000002.ckpt"
            write_checkpoint(path, make_checkpoint({"w": array}, {"part/x": extra}))
            assert [p.name for p in Path(tmp).iterdir()] == [path.name]
            loaded = read_checkpoint(path)
        for original, back in ((array, loaded.global_state["w"]), (extra, loaded.extra_arrays["part/x"])):
            assert back.dtype == original.dtype  # byte order included
            assert back.shape == original.shape
            assert back.tobytes() == np.ascontiguousarray(original).tobytes()
            assert back.flags.writeable

    def test_file_layout_is_the_documented_frame(self, tmp_path):
        weights = np.arange(10, dtype=np.float32)
        table = np.full((3, 2), 2.5, dtype=">f8")
        path = tmp_path / "round_000002.ckpt"
        checkpoint = make_checkpoint({"w": weights}, {"rl/table": table})
        write_checkpoint(path, checkpoint)
        data, header, start = frame(path)
        assert data[-32:] == hashlib.sha256(data[:-32]).digest()
        assert list(header) == [
            "schema_version", "algorithm", "round_index", "arrays", "history", "rng_state", "extra_state",
            "stop_reason",
        ]
        assert header["history"] == checkpoint.history  # insertion order kept: S, M, L
        assert header["arrays"] == {
            "global/w": {"dtype": "<f4", "shape": [10], "offset": 0},
            "extra/rl/table": {"dtype": ">f8", "shape": [3, 2], "offset": 64},
        }
        for name, array in (("global/w", weights), ("extra/rl/table", table)):
            offset = start + header["arrays"][name]["offset"]
            assert offset % 64 == 0
            assert data[offset : offset + array.nbytes] == array.tobytes()

    def test_a_0d_array_keeps_its_shape_through_the_store(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.begin_run({"suite": "0-d"}).run_id
        store.save_checkpoint(run_id, make_checkpoint({"w": np.ones(2)}, {"scalar": np.array(3.0)}))
        loaded = store.load_checkpoint(run_id).extra_arrays["scalar"]
        assert loaded.shape == ()
        assert loaded.dtype == np.float64
        assert float(loaded) == 3.0


def test_writing_a_large_array_allocates_no_copy_of_it(tmp_path):
    array = np.arange(4 * 1024 * 1024, dtype=np.float32)  # 16 MB
    checkpoint = make_checkpoint({"w": array})
    path = tmp_path / "round_000002.ckpt"
    tracemalloc.start()
    try:
        write_checkpoint(path, checkpoint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, f"write_checkpoint peaked at {peak / 1e6:.1f} MB for a 16.8 MB array"
    assert np.array_equal(read_checkpoint(path).global_state["w"], array)


class TestCorruption:
    @pytest.fixture()
    def path(self, tmp_path) -> Path:
        path = tmp_path / "round_000002.ckpt"
        write_checkpoint(path, make_checkpoint({"w": np.arange(100, dtype=np.float32)}))
        return path

    def test_truncated_file_is_refused_by_name(self, path):
        path.write_bytes(path.read_bytes()[:-7])  # a torn write
        with pytest.raises(StoreCorruptionError, match=f"{path.name}.*truncated write or disk corruption"):
            read_checkpoint(path)

    def test_empty_file_is_refused_by_name(self, path):
        path.write_bytes(b"")
        with pytest.raises(StoreCorruptionError, match=path.name):
            read_checkpoint(path)

    @pytest.mark.parametrize("where", ["prefix", "header", "array", "trailer"])
    def test_one_flipped_byte_is_refused_by_name(self, path, where):
        data, header, start = frame(path)
        index = {"prefix": 3, "header": 16 + 20, "array": start + 17, "trailer": len(data) - 1}[where]
        flipped = bytearray(data)
        flipped[index] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(StoreCorruptionError, match=path.name):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "prefix", [struct.pack("<8sQ", b"NOTACKPT", 200), struct.pack("<8sQ", b"REPROCKP", 2**40)]
    )
    def test_a_foreign_prefix_under_a_valid_trailer_is_refused_by_name(self, path, prefix):
        # another format that ends in the SHA-256 of its own bytes passes the
        # trailer check; a wrong magic or an impossible header length must not
        body = prefix + path.read_bytes()[16:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(StoreCorruptionError, match=f"{path.name} is not a checkpoint file"):
            read_checkpoint(path)
