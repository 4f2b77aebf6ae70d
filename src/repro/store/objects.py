"""Content-addressed blob storage backing the experiment store.

Every array a checkpoint persists is serialised to canonical ``.npy``
bytes and stored under the SHA-256 of those bytes —
``objects/<aa>/<sha256>`` — so identical payloads (weights a round did
not touch, duplicate runs of the same seed) are written once, and every
read re-hashes the file and compares it against its own name.  A
truncated or bit-flipped blob can therefore never be returned silently:
it raises :class:`StoreCorruptionError` with the offending path.

Writes are atomic (temp file + ``os.replace``) so a crash mid-write
leaves either the complete object or nothing under the final name.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
from pathlib import Path
from typing import Any, Sequence

import numpy as np

__all__ = ["ObjectStore", "StoreCorruptionError", "canonical_json", "sha256_hex", "write_atomic"]

#: suffixes of this process's temp files; a name left by a killed writer is skipped
_temp_names = itertools.count()


class StoreCorruptionError(RuntimeError):
    """A stored object or manifest failed its integrity check.

    Raised when a blob's bytes no longer hash to the blob's name (disk
    truncation, partial copy, bit rot) or when a checkpoint manifest is
    unreadable or fails its embedded checksum.  The message names the
    file so the operator can delete the damaged object and re-run.
    """


def sha256_hex(payload: bytes) -> str:
    """Hex SHA-256 of ``payload`` (the store's content address)."""
    return hashlib.sha256(payload).hexdigest()


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for hashing keys and checksumming manifests.

    Keys are sorted and separators fixed, so the same logical payload
    always produces the same bytes — the property run IDs and manifest
    checksums rely on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_atomic(path: Path, payload: bytes | str | Sequence[bytes | memoryview]) -> None:
    """Write a file atomically: temp file + ``os.replace``, cleaned up on error.

    Every file the store writes (blobs, manifests, run entries,
    histories) goes through here, so a crash mid-write leaves either the
    complete file or nothing — and a failed write (e.g. a full disk)
    never leaks ``.tmp-*`` litter.  ``payload`` is bytes, a str (UTF-8)
    or a sequence of byte buffers, written back to back without a join.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    pending = [memoryview(b).cast("B") for b in ([payload] if isinstance(payload, (bytes, memoryview)) else payload)]
    while True:
        tmp_name = os.path.join(path.parent, f".tmp-{os.getpid()}-{next(_temp_names)}")
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            break
        except FileExistsError:  # a killed writer's leftover: take the next name
            pass
        except FileNotFoundError:
            os.makedirs(path.parent, exist_ok=True)
    try:
        try:
            while pending:
                written = os.writev(fd, pending)
                while pending and written >= len(pending[0]):
                    written -= len(pending.pop(0))
                if pending:
                    pending[0] = pending[0][written:]
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class ObjectStore:
    """Write-once, hash-named blob storage under one directory.

    The unit of storage is a numpy array: :meth:`put_array` stores it as
    canonical ``.npy`` bytes, names the file after their SHA-256 and
    returns that digest; :meth:`get_array` loads it back bit-identically,
    verifying the hash on the way.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def put_array(self, array: np.ndarray) -> str:
        """Store one array; returns its content address (hex SHA-256).

        Canonical ``np.save`` bytes, taken from the array's own memory.
        Writing the same content twice is free: the blob already exists
        under its digest and is left untouched.
        """
        array = np.ascontiguousarray(array)
        stream = io.BytesIO()
        np.lib.format.write_array_header_1_0(stream, np.lib.format.header_data_from_array_1_0(array))
        header = stream.getvalue()
        body = memoryview(array.reshape(-1).view(np.uint8))  # object arrays raise here
        hasher = hashlib.sha256(header)
        hasher.update(body)
        digest = hasher.hexdigest()
        path = self._path_for(digest)
        if not path.exists():
            write_atomic(path, [header, body])
        return digest

    def get_array(self, digest: str) -> np.ndarray:
        """Load one array by content address, verifying integrity.

        Raises :class:`StoreCorruptionError` when the blob is missing or
        its bytes no longer hash to ``digest`` (e.g. a truncated file).
        """
        path = self._path_for(digest)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise StoreCorruptionError(f"object {digest} is missing from the store ({path})") from None
        actual = sha256_hex(payload)
        if actual != digest:
            raise StoreCorruptionError(
                f"object {path} is corrupt: content hashes to {actual[:12]}… but the "
                f"store expected {digest[:12]}… (truncated write or disk corruption); "
                "delete the object and resume from an earlier checkpoint"
            )
        return np.load(io.BytesIO(payload), allow_pickle=False)
