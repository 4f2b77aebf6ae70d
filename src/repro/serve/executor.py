"""``RemoteExecutor`` — the engine's ``Executor`` contract over the network.

Hosts a :class:`~repro.serve.coordinator.Coordinator` on a private
asyncio event loop running in a daemon thread, so the synchronous
training loop in :mod:`repro.core.fl_base` stays unchanged: ``map``
pickles the round's :class:`~repro.engine.tasks.ClientTask` batch,
submits it to the coordinator and blocks until every connected client
has returned a result; a round's task is a stack piece, one frame each.
``is_interprocess`` is True, so the transport
layer spills published state to disk exactly as it does for the process
pool — clients then pull those versions over the wire through
``state_request`` frames instead of reading the coordinator's
filesystem.

Determinism is inherited from the engine contract: every task carries
its own seed stream, so results are bit-identical to the serial
executor no matter which client ran which task, in what order, or how
often a task had to be redispatched after a disconnect.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from dataclasses import replace
from typing import Any, Sequence

from repro.engine.base import Executor, map_longest_first
from repro.serve.coordinator import Coordinator
from repro.serve.options import ServeOptions

__all__ = ["RemoteExecutor"]


class RemoteExecutor(Executor):
    """Fans client tasks out to networked workers via the federation service.

    ``max_workers`` maps onto the coordinator's client quorum
    (``min_clients``): a round is not dispatched before that many
    clients are connected; without ``options`` the coordinator runs on
    the :class:`~repro.serve.options.ServeOptions` defaults.
    """

    name = "remote"
    is_interprocess = True

    def __init__(self, max_workers: int | None = None, options: ServeOptions | None = None):
        super().__init__(max_workers)
        if options is None:
            options = ServeOptions()
        if max_workers is not None:
            options = replace(options, min_clients=max_workers)
        self.options = options
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._coordinator: Coordinator | None = None
        self._address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind the coordinator (idempotent) and return its ``(host, port)``."""
        if self._loop is not None:
            assert self._address is not None
            return self._address
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, name="repro-serve-loop", daemon=True)
        thread.start()
        coordinator = Coordinator(self.options)
        try:
            self._address = asyncio.run_coroutine_threadsafe(coordinator.start(), loop).result(timeout=30)
        except Exception:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.close()
            raise
        self._loop = loop
        self._thread = thread
        self._coordinator = coordinator
        return self._address

    def shutdown(self) -> None:
        """Say ``bye`` to every client and stop the coordinator (idempotent)."""
        loop, thread, coordinator = self._loop, self._thread, self._coordinator
        self._loop = self._thread = self._coordinator = None
        self._address = None
        if loop is None or coordinator is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(coordinator.stop(), loop).result(timeout=30)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=10)
            loop.close()

    # -- Executor contract ----------------------------------------------------------------
    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Run one batch of tasks on the connected clients, costliest first; results in submission order."""
        return map_longest_first(self._run_batch, tasks)

    def _run_batch(self, tasks: list[Any]) -> list[Any]:
        address = self.start()
        assert self._loop is not None and self._coordinator is not None and address is not None
        payloads = [pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL) for task in tasks]
        # telemetry identity rides the wire alongside (not inside) the opaque
        # payloads, so dispatch/result frames are joinable across logs
        traces = [
            (trace.trace_id, trace.span_id) if (trace := getattr(task, "trace", None)) is not None else ("", "")
            for task in tasks
        ]
        future = asyncio.run_coroutine_threadsafe(
            self._coordinator.run_batch(payloads, traces=traces), self._loop
        )
        results = future.result()
        return [pickle.loads(result) for result in results]

    @property
    def effective_workers(self) -> int:
        """The slots a batch can fill: connected clients (at least the quorum) × ``max_inflight``."""
        connected = len(self._coordinator.actors) if self._coordinator is not None else 0
        return max(connected, self.options.min_clients) * self.options.max_inflight

    @property
    def address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` once started, else ``None``."""
        return self._address

    @property
    def status_address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` of the HTTP status endpoint, if enabled."""
        if self._coordinator is None:
            return None
        return self._coordinator.status_address

    def stats(self) -> dict[str, int]:
        """Snapshot of the coordinator's churn counters (empty before start)."""
        if self._coordinator is None:
            return {}
        return {key: int(counter.value) for key, counter in self._coordinator.counters.items()}
