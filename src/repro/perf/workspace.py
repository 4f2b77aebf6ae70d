"""Reusable array workspaces for per-batch hot-path buffers, and the
per-thread arena a training task's workspaces are carved from.

The pure-NumPy training loop used to allocate (and garbage-collect) the
same large intermediates — im2col column matrices, scatter-index arrays,
optimizer scratch — once per batch.  A :class:`Workspace` keeps those
buffers alive across batches: callers ask for ``(key, shape, dtype)``
and get the cached buffer back whenever shape and dtype still match,
paying a fresh allocation only when the batch geometry changes (e.g. the
last partial batch of an epoch).

Buffers are returned *unzeroed* — every consumer overwrites the region
it reads, which is exactly what makes reuse safe.  Callers that need
zeroed memory use :meth:`Workspace.zeros`.

Workspaces are owned by the module/optimizer instance that uses them, so
their lifetime and thread-affinity mirror the owning model.  Local
training keeps one module tree per worker thread and width spec between
client tasks (:class:`repro.nn.module.Skeleton`) and empties its
workspaces at every check-in, so a workspace buffer lives for one task.
The memory under those buffers does not: while a skeleton is checked
out, its workspaces carve their buffers from this thread's
:class:`Arena`, one grow-only block that outlives the task, so the next
task finds its pages already faulted in.  Nothing is shared across
threads or processes.  The global :func:`workspace_stats` counters feed
the ``repro.perf`` profiler's allocation accounting.
"""

from __future__ import annotations

import math
import threading
from typing import Hashable

import numpy as np

__all__ = ["Arena", "Workspace", "aligned_block", "thread_arena", "workspace_stats", "reset_workspace_stats"]

#: process-wide counters: {"hits": buffers reused, "misses": buffers (re)allocated,
#: "arena_bytes": the largest arena closed since the last reset}
_STATS = {"hits": 0, "misses": 0, "arena_bytes": 0}

#: serialises the read-modify-write of ``_STATS["arena_bytes"]`` (arenas close on any thread)
_ARENA_STATS_LOCK = threading.Lock()

#: every carved buffer starts on a cache line
_ALIGN = 64


def workspace_stats() -> dict[str, int]:
    """A snapshot of the process-wide workspace counters."""
    return dict(_STATS)


def reset_workspace_stats() -> None:
    """Zero the process-wide workspace counters."""
    for name in _STATS:
        _STATS[name] = 0


def aligned_block(nbytes: int) -> np.ndarray:
    """``nbytes`` uninitialised bytes starting on an ``_ALIGN`` boundary."""
    raw = np.empty(nbytes + _ALIGN, np.uint8)
    skip = -raw.ctypes.data % _ALIGN
    return raw[skip : skip + nbytes]


class Arena:
    """One grow-only block that a training task's workspace buffers are carved from.

    :meth:`open` starts a session (:meth:`repro.nn.module.Skeleton.check_out`),
    :meth:`close` ends it (``check_in``).  While a session is open, every
    :meth:`carve` takes the next aligned slice of the block; once the block
    is used up, further carves are plain fresh arrays, and the close that
    ends the session grows the block to exactly what the session carved —
    the arena is as large as the largest task's need, and no task after it
    faults a new page in.  Sessions nest: the block is handed out again only
    once every open session has closed, so no two live buffers overlap.

    Closing reuses every byte carved, so the carved buffers must die with
    the session: the skeleton's workspaces are emptied at check-in.
    """

    __slots__ = ("_block", "_used", "_depth")

    def __init__(self) -> None:
        self._block = aligned_block(0)
        #: bytes carved since the outermost open session began
        self._used = 0
        self._depth = 0

    @property
    def capacity(self) -> int:
        """Bytes of the block (the largest need of a closed session)."""
        return self._block.nbytes

    @property
    def is_open(self) -> bool:
        return self._depth > 0

    def open(self) -> None:
        self._depth += 1

    def close(self) -> None:
        """End a session; ending the outermost one grows the block to its need."""
        if not self._depth:
            return
        self._depth -= 1
        if self._depth:
            return
        if self._used > self.capacity:
            self._block = aligned_block(self._used)
        self._used = 0
        with _ARENA_STATS_LOCK:
            _STATS["arena_bytes"] = max(_STATS["arena_bytes"], self.capacity)

    def carve(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous ``(shape, dtype)`` array: a slice of
        the block while a session is open and the block has room, else fresh."""
        dtype = np.dtype(dtype)
        if not self._depth:
            return np.empty(shape, dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self._used
        self._used += -(-nbytes // _ALIGN) * _ALIGN
        if self._used > self.capacity:
            return np.empty(shape, dtype)
        return self._block[start : start + nbytes].view(dtype).reshape(shape)


class _ThreadArena(threading.local):
    def __init__(self) -> None:
        self.arena = Arena()


_THREAD_ARENA = _ThreadArena()


def thread_arena() -> Arena:
    """The calling thread's arena (each thread has its own, for its lifetime)."""
    return _THREAD_ARENA.arena


class Workspace:
    """A keyed cache of reusable ndarray buffers.

    ``get`` returns an *uninitialised* buffer (contents are whatever the
    previous batch left behind — consumers must fully overwrite what they
    read); ``zeros`` returns the same buffer zero-filled.  A key whose
    requested shape or dtype changed is transparently reallocated, so a
    trailing partial batch can never read stale regions sized for the
    full batch.  A new buffer is carved from ``arena`` when one is set,
    else allocated.
    """

    __slots__ = ("_buffers", "arena")

    def __init__(self) -> None:
        self._buffers: dict[Hashable, np.ndarray] = {}
        self.arena: Arena | None = None

    def get(self, key: Hashable, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The reusable buffer for ``key`` (uninitialised contents)."""
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype) if self.arena is None else self.arena.carve(shape, dtype)
            self._buffers[key] = buffer
            _STATS["misses"] += 1
        else:
            _STATS["hits"] += 1
        return buffer

    def get_like(self, key: Hashable, like: np.ndarray) -> np.ndarray:
        """Like :meth:`get`, for a buffer laid out in memory as ``like`` is
        (axes in the order of their strides, as ``np.empty_like`` lays it out)."""
        order = sorted(range(like.ndim), key=lambda axis: -like.strides[axis])
        buffer = self.get(key, tuple(like.shape[axis] for axis in order), like.dtype)
        return buffer.transpose(np.argsort(order))

    def zeros(self, key: Hashable, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Like :meth:`get` but zero-filled."""
        buffer = self.get(key, shape, dtype)
        buffer.fill(0)
        return buffer

    def put(self, key: Hashable, value: np.ndarray) -> np.ndarray:
        """Store a precomputed array (e.g. scatter indices) under ``key``."""
        self._buffers[key] = value
        return value

    def lookup(self, key: Hashable) -> np.ndarray | None:
        """The cached array for ``key``, or None (no counters touched)."""
        return self._buffers.get(key)

    def clear(self) -> None:
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)
