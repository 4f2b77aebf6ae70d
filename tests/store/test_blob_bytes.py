"""A blob is ``np.save``'s bytes, written straight from the array.

``ObjectStore.put_array`` builds only the ``.npy`` header in Python and
hashes and writes the array's own memory.  These tests pin that the file
and its name stay byte-equal to ``np.save(np.ascontiguousarray(a),
allow_pickle=False)`` for every dtype and layout a checkpoint can hold,
that a blob already stored is not written again, and that storing a
large array allocates no copy of it.
"""

from __future__ import annotations

import hashlib
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.store.objects import ObjectStore

DTYPES = ["f2", "f4", "f8", "i8", "u1", "bool", ">f4"]
LAYOUTS = ["contiguous", "0-d", "empty", "strided", "fortran"]


def reference_bytes(array: np.ndarray) -> bytes:
    """What the store wrote before it streamed blobs: ``np.save`` into memory."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


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


def blob_path(root: Path, digest: str) -> Path:
    return root / digest[:2] / digest


class TestBlobBytes:
    @settings(max_examples=80, deadline=None)
    @given(array=checkpoint_arrays())
    def test_file_and_digest_equal_np_save(self, array):
        expected = reference_bytes(array)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            digest = ObjectStore(root).put_array(array)
            assert digest == hashlib.sha256(expected).hexdigest()
            assert blob_path(root, digest).read_bytes() == expected
            assert [path.name for path in root.rglob(".tmp-*")] == []
            loaded = ObjectStore(root).get_array(digest)
            assert loaded.dtype == array.dtype
            np.testing.assert_array_equal(loaded.reshape(array.shape), array)

    @settings(max_examples=20, deadline=None)
    @given(array=checkpoint_arrays())
    def test_second_put_leaves_the_blob_alone(self, array):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            store = ObjectStore(root)
            digest = store.put_array(array)
            path = blob_path(root, digest)
            before = path.stat()
            # the same handle and a fresh one both find the file and skip the write
            assert store.put_array(array.copy()) == digest
            assert ObjectStore(root).put_array(array) == digest
            after = path.stat()
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_storing_a_large_array_allocates_no_copy_of_it(tmp_path):
    array = np.arange(4 * 1024 * 1024, dtype=np.float32)  # 16 MB
    store = ObjectStore(tmp_path)
    tracemalloc.start()
    try:
        digest = store.put_array(array)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, f"put_array peaked at {peak / 1e6:.1f} MB for a 16.8 MB array"
    assert blob_path(tmp_path, digest).stat().st_size == len(reference_bytes(array))
