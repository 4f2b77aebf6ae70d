"""``write_atomic`` with a sequence of buffers, short writes and failures.

``os.writev`` may write fewer bytes than asked; the store's only write
path must keep calling it until every byte is on disk, must leave
neither a temp file nor the target behind when a write fails half way,
and must step over a temp file a killed writer left under the name it
would have taken.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

import repro.store.objects as objects_module
from repro.store.objects import write_atomic

#: the most bytes the patched ``os.writev`` writes per call
SHORT = 7

PAYLOADS = {
    "bytes": b"0123456789abcdefghij",
    "str": "weights été — utf-8\n",
    "buffers": [b"\x93NUMPY header", np.arange(10, dtype=np.float32).view(np.uint8), b"", b"tail"],
    "empty": b"",
}


def expected_bytes(payload) -> bytes:
    if isinstance(payload, str):
        return payload.encode("utf-8")
    if isinstance(payload, bytes):
        return payload
    return b"".join(bytes(memoryview(buffer).cast("B")) for buffer in payload)


def temp_files(directory) -> list[str]:
    return sorted(path.name for path in directory.rglob(".tmp-*"))


@pytest.fixture()
def short_writev(monkeypatch):
    """``os.writev`` that writes at most ``SHORT`` bytes per call; records each call."""
    calls: list[int] = []

    def writev(fd, buffers):
        chunk = b"".join(bytes(buffer) for buffer in buffers)[:SHORT]
        calls.append(len(chunk))
        return os.write(fd, chunk)

    monkeypatch.setattr(os, "writev", writev)
    return calls


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_short_writes_still_write_every_byte(tmp_path, short_writev, name):
    payload = PAYLOADS[name]
    target = tmp_path / "missing" / "parent" / "blob"  # made on the first FileNotFoundError
    write_atomic(target, payload)
    assert target.read_bytes() == expected_bytes(payload)
    assert temp_files(tmp_path) == []
    if expected_bytes(payload):
        assert max(short_writev) == SHORT


def test_failure_after_a_partial_write_leaves_nothing(tmp_path, monkeypatch):
    calls: list[int] = []

    def failing_writev(fd, buffers):
        if calls:
            raise OSError(28, "No space left on device")
        calls.append(os.write(fd, bytes(buffers[0])[:SHORT]))
        return calls[-1]

    monkeypatch.setattr(os, "writev", failing_writev)
    target = tmp_path / "blob"
    with pytest.raises(OSError, match="No space left"):
        write_atomic(target, PAYLOADS["buffers"])
    assert calls == [SHORT]
    assert not target.exists()
    assert temp_files(tmp_path) == []


def test_a_stale_temp_file_is_skipped_not_overwritten(tmp_path, monkeypatch):
    monkeypatch.setattr(objects_module, "_temp_names", itertools.count(100))
    stale = tmp_path / f".tmp-{os.getpid()}-100"
    stale.write_bytes(b"left by a killed writer")
    target = tmp_path / "manifest.json"
    write_atomic(target, '{"round": 3}\n')
    assert target.read_text() == '{"round": 3}\n'
    assert stale.read_bytes() == b"left by a killed writer"
    assert temp_files(tmp_path) == [stale.name]
