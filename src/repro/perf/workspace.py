"""Reusable array workspaces for per-batch hot-path buffers.

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
client tasks (:class:`repro.nn.module.Skeleton`) but empties its
workspaces at every check-in: buffers live for one task and are never
shared across threads or processes.  The global :func:`workspace_stats`
counters feed the ``repro.perf`` profiler's allocation accounting.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

__all__ = ["Workspace", "workspace_stats", "reset_workspace_stats"]

#: process-wide reuse counters: {"hits": buffers reused, "misses": buffers (re)allocated}
_STATS = {"hits": 0, "misses": 0}


def workspace_stats() -> dict[str, int]:
    """A snapshot of the process-wide workspace reuse counters."""
    return dict(_STATS)


def reset_workspace_stats() -> None:
    """Zero the process-wide workspace reuse counters."""
    _STATS["hits"] = 0
    _STATS["misses"] = 0


class Workspace:
    """A keyed cache of reusable ndarray buffers.

    ``get`` returns an *uninitialised* buffer (contents are whatever the
    previous batch left behind — consumers must fully overwrite what they
    read); ``zeros`` returns the same buffer zero-filled.  A key whose
    requested shape or dtype changed is transparently reallocated, so a
    trailing partial batch can never read stale regions sized for the
    full batch.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[Hashable, np.ndarray] = {}

    def get(self, key: Hashable, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The reusable buffer for ``key`` (uninitialised contents)."""
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
            _STATS["misses"] += 1
        else:
            _STATS["hits"] += 1
        return buffer

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
