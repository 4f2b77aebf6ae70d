"""Sliced-download weight transport between the server and client workers.

A client task carries a handle down and its trained weights back:

* **Download** — the server :meth:`publishes <StateStore.publish>` the
  global state once per round under a monotonically increasing version
  tag.  Tasks carry only a tiny :class:`StateHandle`; each worker
  process resolves the handle against a per-process cache, paying the
  deserialisation cost once per (store, version) instead of once per
  task, and then cuts the submodel slice *it trains* locally.  For
  in-process executors (serial/thread) the handle resolves to the
  published dict itself — zero copies.
* **Upload** — an exact upload is the trained slice itself: pickling a
  float array is lossless, so the weights cross any process or wire
  boundary bit for bit (property-tested in ``tests/perf``), and an
  in-process fold reads them where training left them.  A lossy codec
  (:mod:`repro.engine.codecs`) replaces it with an encoded update.
"""

from __future__ import annotations

import itertools
import os
import pickle
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "StateStore",
    "StateHandle",
    "state_nbytes",
    "set_state_fetcher",
    "server_state_bytes",
]

#: per-worker-process LRU cache: store id -> (version, state).  Only the
#: latest version of each store is retained, and at most
#: ``_WORKER_CACHE_MAX_STREAMS`` distinct streams (global-model streams
#: plus per-client dataset streams) stay resident — an evicted stream
#: transparently reloads from its spill file on next use, so worker
#: memory stays bounded even for fleets with many more clients than this.
_WORKER_CACHE_MAX_STREAMS = 64
_WORKER_STATE_CACHE: "OrderedDict[str, tuple[int, Mapping[str, np.ndarray]]]" = OrderedDict()

#: store-id allocator; server-side only, unique for the process lifetime
_STORE_IDS = itertools.count()

#: live server-side stores by id, for serving spill bytes over the wire
#: (weak values: registration must never extend a store's lifetime)
_SERVER_STORES: "weakref.WeakValueDictionary[str, StateStore]" = weakref.WeakValueDictionary()

#: optional hook a networked worker installs to resolve handles over the
#: wire instead of the (server-local) spill path; None outside repro.serve
_STATE_FETCHER: "Callable[[str, int], Mapping[str, np.ndarray]] | None" = None


def set_state_fetcher(fetcher: "Callable[[str, int], Mapping[str, np.ndarray]] | None") -> None:
    """Install (or clear, with ``None``) the worker-side remote state fetcher.

    When set, :meth:`StateHandle.load` resolves cache misses by calling
    ``fetcher(store_id, version)`` instead of opening the handle's spill
    path — which on a networked worker names a file on the *server's*
    filesystem.  :class:`repro.serve.client.ClientRunner` installs its
    ``state_request``/``weight_slice`` round-trip here for the duration
    of its session.
    """
    global _STATE_FETCHER
    _STATE_FETCHER = fetcher


def server_state_bytes(store_id: str, version: int) -> bytes:
    """The pickled spill bytes of one published version of a live store.

    Serves ``state_request`` frames on the coordinator side.  Raises
    ``KeyError`` when the store is gone or the version was already
    released — a client asking for it is fatally out of sync.
    """
    store = _SERVER_STORES.get(store_id)
    if store is None:
        raise KeyError(f"no live state store {store_id!r}")
    return store.version_bytes(version)


def _cache_put(store_id: str, version: int, state) -> None:
    cached = _WORKER_STATE_CACHE.get(store_id)
    if cached is not None and cached[0] > version:
        # never clobber a newer cached version with an out-of-order load
        # of an older one (stragglers resolve old handles late)
        return
    _WORKER_STATE_CACHE[store_id] = (version, state)
    _WORKER_STATE_CACHE.move_to_end(store_id)
    while len(_WORKER_STATE_CACHE) > _WORKER_CACHE_MAX_STREAMS:
        _WORKER_STATE_CACHE.popitem(last=False)


def state_nbytes(state: Mapping[str, np.ndarray]) -> int:
    """Total payload bytes of a state dict (transport accounting)."""
    return int(sum(np.asarray(value).nbytes for value in state.values()))


@dataclass(frozen=True)
class StateHandle:
    """A picklable reference to one published version of a state dict.

    ``path`` is set when the owning store spilled the state for
    inter-process transport; the in-process reference (``_inline``)
    never crosses a pickle boundary.
    """

    store_id: str
    version: int
    path: str | None = None
    _inline: Mapping[str, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # workers must go through the spill file + cache, never the inline dict
        return {"store_id": self.store_id, "version": self.version, "path": self.path}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "store_id", state["store_id"])
        object.__setattr__(self, "version", state["version"])
        object.__setattr__(self, "path", state["path"])
        object.__setattr__(self, "_inline", None)

    def load(self) -> Mapping[str, np.ndarray]:
        """The published state (cached per worker process; read-only)."""
        if self._inline is not None:
            return self._inline
        cached = _WORKER_STATE_CACHE.get(self.store_id)
        if cached is not None and cached[0] == self.version:
            _WORKER_STATE_CACHE.move_to_end(self.store_id)
            return cached[1]
        if _STATE_FETCHER is not None:
            # networked worker: the spill path names a server-side file;
            # resolve over the wire instead
            state = _STATE_FETCHER(self.store_id, self.version)
        elif self.path is None:
            raise RuntimeError(
                f"state handle v{self.version} of store {self.store_id} has neither an "
                "inline reference nor a spill path (published for in-process use only?)"
            )
        else:
            with open(self.path, "rb") as stream:
                state = pickle.load(stream)
        _cache_put(self.store_id, self.version, state)
        return state


class StateStore:
    """Server-side publisher of versioned global-model state.

    One store backs one logical weight stream (the global model; one per
    level for Decoupled).  ``publish`` bumps the version and, when the
    executor crosses a process boundary, spills the state once to a
    temporary file that every worker deserialises at most once.
    """

    def __init__(self, label: str = "state"):
        self.label = label
        # a process-wide counter, not uuid4: store ids are cache-key
        # namespaces (identity, not data) and stores are only ever created
        # server-side, so a monotonic id is unique for the process lifetime
        # and keeps the whole run free of OS entropy (reprolint RPL001)
        self.store_id = f"{label}-{next(_STORE_IDS)}"
        self.version = 0
        self._spill_dir: str | None = None
        #: version -> spill path; versions are retained until close() or an
        #: explicit release_below(), never unlinked on the next publish —
        #: outstanding StateHandles (stragglers, networked workers) may
        #: still resolve them
        self._spill_paths: dict[int, str] = {}
        #: (version, pickled bytes) of the newest spill published with
        #: ``keep_bytes``: served from memory instead of re-read per worker
        self._newest_spill: tuple[int, bytes] = (0, b"")
        _SERVER_STORES[self.store_id] = self

    def publish(
        self, state: Mapping[str, np.ndarray], spill: bool = False, keep_bytes: bool = False
    ) -> StateHandle:
        """Register a new version of the state and return its handle.

        ``keep_bytes`` holds a spilled version's pickle until the next publish:
        for streams every wire worker fetches each round (weights, not datasets).
        """
        self.version += 1
        path = None
        if spill:
            if self._spill_dir is None:
                self._spill_dir = tempfile.mkdtemp(prefix=f"repro-{self.label}-")
            path = os.path.join(self._spill_dir, f"v{self.version}.pkl")
            with open(path, "wb") as stream:
                if keep_bytes:
                    self._newest_spill = (self.version, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
                    stream.write(self._newest_spill[1])
                else:  # streamed: no second copy of a large dataset in memory
                    pickle.dump(state, stream, protocol=pickle.HIGHEST_PROTOCOL)
            self._spill_paths[self.version] = path
        return StateHandle(self.store_id, self.version, path, state)

    def version_bytes(self, version: int) -> bytes:
        """The pickled spill bytes of one retained version.

        Raises ``KeyError`` when that version was never spilled or was
        already released.
        """
        try:
            path = self._spill_paths[version]
        except KeyError:
            raise KeyError(
                f"store {self.store_id!r} does not retain v{version} "
                f"(current v{self.version}, retained {sorted(self._spill_paths)})"
            ) from None
        if self._newest_spill[0] == version:
            return self._newest_spill[1]
        with open(path, "rb") as stream:
            return stream.read()

    def release_below(self, version: int) -> None:
        """Unlink spill files of versions strictly below ``version``.

        Called between rounds once no outstanding handle can reference a
        version any more, keeping disk usage bounded without the
        publish-time unlink that used to break stragglers mid-round.
        """
        for old in [v for v in self._spill_paths if v < version]:
            try:
                os.unlink(self._spill_paths.pop(old))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def close(self) -> None:
        """Remove all retained spill files (idempotent, teardown-safe)."""
        # during interpreter shutdown module globals may already be torn
        # down; dropping the bookkeeping is then the only safe move
        if os is None or getattr(os, "unlink", None) is None:  # pragma: no cover
            self._spill_paths.clear()
            self._spill_dir = None
            return
        for path in self._spill_paths.values():
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._spill_paths.clear()
        self._newest_spill = (0, b"")
        if self._spill_dir is not None:
            try:
                os.rmdir(self._spill_dir)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._spill_dir = None

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            # never raise from a finaliser, least of all at interpreter
            # shutdown when our own globals may be half torn down
            pass
