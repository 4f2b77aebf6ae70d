"""The store's on-disk primitives: atomic writes and the checkpoint file.

:func:`write_atomic` is the only way the store puts bytes on disk (temp
file + ``os.replace``), so a crash mid-write leaves either the complete
file or nothing under the final name.

A checkpoint is one self-checking file, written by :func:`write_checkpoint`
and read back by :func:`read_checkpoint`::

    prefix    b"REPROCKP" + the header's length (uint64), little-endian
    header    compact UTF-8 JSON: the checkpoint's fields and, for each array,
              its numpy ``dtype.str``, shape and offset
    arrays    each array's raw C-order bytes, starting on a 64-byte boundary
              (offsets count from the first boundary after the header)
    trailer   SHA-256 of every byte before it

The writer hashes and writes the arrays' own memory; the reader takes the
file in one read, checks the trailer before it parses anything and returns
arrays that are views of that one buffer.  A truncated or altered file
raises :class:`StoreCorruptionError` naming it, never a wrong resume.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.store.checkpoint import CHECKPOINT_SCHEMA_VERSION, Checkpoint, CheckpointSchemaError

__all__ = [
    "StoreCorruptionError", "canonical_json", "read_checkpoint", "sha256_hex", "write_atomic", "write_checkpoint",
]

#: suffixes of this process's temp files; a name left by a killed writer is skipped
_temp_names = itertools.count()
#: most buffers one ``os.writev`` call takes (Linux's ``IOV_MAX`` is 1024)
_WRITEV_MAX = 512

_PREFIX = struct.Struct("<8sQ")  # magic, header length
_MAGIC = b"REPROCKP"
_ALIGN = 64
_ZEROS = bytes(_ALIGN)
_DIGEST_SIZE = 32  # SHA-256


class StoreCorruptionError(RuntimeError):
    """A stored file failed its integrity check.

    Raised when a checkpoint's SHA-256 trailer does not match its bytes
    (disk truncation, partial copy, bit rot), when its prefix is not a
    checkpoint's, or when a JSON file of the store does not parse.  The
    message names the file so the operator can delete it and resume from
    an earlier checkpoint.
    """


def sha256_hex(payload: bytes) -> str:
    """Hex SHA-256 of ``payload`` (run IDs and the benchmark's hashes)."""
    return hashlib.sha256(payload).hexdigest()


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for hashing run keys.

    Keys are sorted and separators fixed, so the same logical payload
    always produces the same bytes — the property run IDs rely on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_atomic(path: Path, payload: bytes | str | Sequence[bytes | memoryview]) -> None:
    """Write a file atomically: temp file + ``os.replace``, cleaned up on error.

    Every file the store writes (checkpoints, run entries, histories)
    goes through here, so a crash mid-write leaves either the complete
    file or nothing — and a failed write (e.g. a full disk) never leaks
    ``.tmp-*`` litter.  ``payload`` is bytes, a str (UTF-8) or a sequence
    of byte buffers, written back to back without a join.
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
                written = os.writev(fd, pending[:_WRITEV_MAX])
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


def _padding(size: int) -> bytes:
    """Zero bytes that take ``size`` to the next 64-byte boundary."""
    return _ZEROS[: -size % _ALIGN]


def write_checkpoint(path: Path, checkpoint: Checkpoint) -> None:
    """Write ``checkpoint`` as one file at ``path`` (one :func:`write_atomic` call).

    The arrays are hashed and written from their own memory; only a
    non-contiguous array is copied, to C order.
    """
    arrays: dict[str, dict] = {}
    bodies: list[bytes | memoryview] = []
    offset = 0
    for prefix, group in (("global", checkpoint.global_state), ("extra", checkpoint.extra_arrays)):
        for key, value in group.items():
            array = np.asarray(value)
            body = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))  # object arrays raise here
            arrays[f"{prefix}/{key}"] = {"dtype": array.dtype.str, "shape": list(array.shape), "offset": offset}
            bodies += [body, _padding(body.nbytes)]
            offset += body.nbytes + len(bodies[-1])
    header = {
        "schema_version": checkpoint.schema_version,
        "algorithm": checkpoint.algorithm,
        "round_index": checkpoint.round_index,
        "arrays": arrays,
        "history": checkpoint.history,
        "rng_state": checkpoint.rng_state,
        "extra_state": checkpoint.extra_state,
        "stop_reason": checkpoint.stop_reason,
    }
    # insertion order, not sorted: a resumed run re-serialises the history it
    # loaded, and its history.json must equal the uninterrupted run's byte for byte
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    frame = [_PREFIX.pack(_MAGIC, len(encoded)), encoded, _padding(_PREFIX.size + len(encoded)), *bodies]
    hasher = hashlib.sha256()
    for buffer in frame:
        hasher.update(buffer)
    write_atomic(path, [*frame, hasher.digest()])


def read_checkpoint(path: Path) -> Checkpoint:
    """Load the checkpoint file at ``path``, trailer checked before anything is parsed.

    Raises :class:`StoreCorruptionError` when the file is not what
    :func:`write_checkpoint` wrote, and
    :class:`~repro.store.checkpoint.CheckpointSchemaError` when it was
    written in another schema version.
    """
    with open(path, "rb") as file:
        data = bytearray(os.fstat(file.fileno()).st_size)
        file.readinto(data)  # a file that shrank meanwhile leaves zeros, which fail the trailer
    view = memoryview(data)
    if len(data) < _PREFIX.size + _DIGEST_SIZE or hashlib.sha256(view[:-_DIGEST_SIZE]).digest() != view[-_DIGEST_SIZE:]:
        raise StoreCorruptionError(
            f"checkpoint {path} is corrupt: its SHA-256 trailer does not match its bytes "
            "(truncated write or disk corruption); delete it and resume from an earlier round"
        )
    magic, header_size = _PREFIX.unpack_from(data)
    if magic != _MAGIC or _PREFIX.size + header_size + _DIGEST_SIZE > len(data):
        raise StoreCorruptionError(
            f"{path} is not a checkpoint file: it does not start with {_MAGIC!r} and a header length that fits it"
        )
    header = json.loads(view[_PREFIX.size : _PREFIX.size + header_size].tobytes())
    version = header.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint {path} uses schema version {version}; this build supports "
            f"{CHECKPOINT_SCHEMA_VERSION} and refuses to resume from it"
        )
    start = _PREFIX.size + header_size + len(_padding(_PREFIX.size + header_size))
    global_state: dict[str, np.ndarray] = {}
    extra_arrays: dict[str, np.ndarray] = {}
    for name, meta in header["arrays"].items():
        shape = tuple(meta["shape"])
        array = np.frombuffer(data, meta["dtype"], count=int(np.prod(shape)), offset=start + meta["offset"])
        prefix, _, key = name.partition("/")
        (global_state if prefix == "global" else extra_arrays)[key] = array.reshape(shape)
    return Checkpoint(
        algorithm=str(header["algorithm"]),
        round_index=int(header["round_index"]),
        global_state=global_state,
        history=header["history"],
        rng_state=header["rng_state"],
        extra_arrays=extra_arrays,
        extra_state=header["extra_state"],
        stop_reason=header["stop_reason"],
        schema_version=version,
    )
