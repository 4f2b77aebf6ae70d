"""Asyncio coordinator of the networked federation service.

The :class:`Coordinator` binds a TCP server, performs the exact-version
``hello``/``hello_ack`` handshake with every connecting client and runs
one supervised :class:`~repro.serve.actors.ClientActor` per connection.
Task batches (one federated round each) enter through
:meth:`Coordinator.run_batch`: the payloads are wrapped in
:class:`TaskEnvelope` objects, queued on a shared pending queue that all
actors' work loops pull from, and the call resolves when every envelope
has a result — surviving client disconnects (requeue + rejoin grace
window), stragglers (timeout + redispatch to another client) and
duplicate results (first upload wins, later ones are counted and
dropped).

Operational telemetry: the coordinator's churn counters live in a
per-instance :class:`~repro.obs.metrics.MetricsRegistry`
(:attr:`Coordinator.metrics`; ``connects_total``, ``reconnects_total``,
``dispatched_total`` … plus the ``tasks_inflight`` gauge,
``heartbeat_rtt_seconds`` histogram and wire byte counters fed by the
actors); :attr:`Coordinator.counters` maps each of :data:`STAT_KEYS` to
its counter.  Fleet lifecycle events (connect /
reconnect / disconnect, dispatches, results, straggler requeues) are
emitted on the process-wide :class:`~repro.obs.events.EventBus`, and an
optional :class:`~repro.obs.status.StatusServer`
(``ServeOptions.status_port``) exposes ``/metrics``, ``/healthz`` and
``/events`` over HTTP while a fleet runs.

The coordinator never touches training semantics: payloads are opaque
pickled bytes produced and consumed by
:class:`~repro.serve.executor.RemoteExecutor`, which is what slots into
the engine's ``Executor`` contract.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.obs.events import get_event_bus
from repro.obs.metrics import MetricsRegistry, registry as obs_registry
from repro.obs.sinks import RingBufferSink
from repro.obs.status import StatusServer
from repro.serve.actors import ClientActor
from repro.serve.codec import CodecError, read_message, write_message
from repro.serve.options import ServeOptions
from repro.serve.protocol import PROTOCOL_VERSION, Hello, HelloAck, ProtocolError, TaskResult

__all__ = ["Coordinator", "TaskBatch", "TaskEnvelope", "STAT_KEYS"]

#: server identity advertised in every ``hello_ack``
SERVER_NAME = "repro-serve"

#: the churn counters every coordinator maintains (``counters`` keys)
STAT_KEYS = (
    "connects",
    "reconnects",
    "dispatched",
    "results",
    "requeues",
    "duplicate_results",
    "stale_results",
    "state_requests",
)


class TaskEnvelope:
    """One task payload in flight: dispatch bookkeeping around opaque bytes."""

    def __init__(self, batch: "TaskBatch", index: int, payload: bytes, trace_id: str = "", span_id: str = ""):
        self.batch = batch
        self.index = index
        self.payload = payload
        self.trace_id = trace_id
        self.span_id = span_id
        self.attempts = 0
        self.completed = False
        #: set when a result (or the batch's failure) resolves this envelope
        self.done = asyncio.Event()


class TaskBatch:
    """One ``run_batch`` call: envelopes, results and completion state."""

    def __init__(self, batch_id: int, payloads: list[bytes], traces: "list[tuple[str, str]] | None" = None):
        self.batch_id = batch_id
        self.envelopes = [
            TaskEnvelope(
                self,
                index,
                payload,
                trace_id=traces[index][0] if traces is not None else "",
                span_id=traces[index][1] if traces is not None else "",
            )
            for index, payload in enumerate(payloads)
        ]
        self.results: list[bytes | None] = [None] * len(payloads)
        self.remaining = len(payloads)
        self.error: str | None = None
        #: set once every envelope has a result, or on failure
        self.finished = asyncio.Event()

    def fail(self, reason: str) -> None:
        """Mark the batch failed and release every waiter (first reason wins)."""
        if self.finished.is_set():
            return
        self.error = reason
        self.finished.set()
        for envelope in self.envelopes:
            envelope.done.set()


class Coordinator:
    """The federation server: connection handshakes, actors and task batches."""

    def __init__(self, options: ServeOptions | None = None):
        self.options = options if options is not None else ServeOptions()
        #: live actors by client name (one connection per name; newest wins)
        self.actors: dict[str, ClientActor] = {}
        #: this fleet's metrics (layered over the process registry by /metrics)
        self.metrics = MetricsRegistry()
        #: the churn counter of each of :data:`STAT_KEYS`
        self.counters = {
            key: self.metrics.counter(f"{key}_total", f"coordinator {key.replace('_', ' ')}")
            for key in STAT_KEYS
        }
        self._inflight_gauge = self.metrics.gauge(
            "tasks_inflight", "tasks dispatched to clients and not yet resolved"
        )
        #: heartbeat send→ack round-trip times, observed by the actors
        self.heartbeat_rtt = self.metrics.histogram(
            "heartbeat_rtt_seconds",
            "heartbeat probe round-trip time",
            buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0),
        )
        #: application bytes moved over the wire (task + state payloads)
        self.bytes_down = self.metrics.counter(
            "bytes_down_total", "payload bytes sent to clients (dispatches and weight slices)"
        )
        self.bytes_up = self.metrics.counter(
            "bytes_up_total", "payload bytes received from clients (result uploads)"
        )
        self._known_clients: set[str] = set()
        self._pending: "asyncio.Queue[TaskEnvelope]" = asyncio.Queue()
        self._batch: TaskBatch | None = None
        self._batch_ids = itertools.count(1)
        self._server: asyncio.base_events.Server | None = None
        self._client_joined: asyncio.Event = asyncio.Event()
        self._watchdog: asyncio.Task | None = None
        self.address: tuple[str, int] | None = None
        self._status: StatusServer | None = None
        self._status_ring: RingBufferSink | None = None

    # -- telemetry ------------------------------------------------------------------------
    def count(self, key: str, amount: int = 1) -> None:
        """Increment one of the :data:`STAT_KEYS` churn counters."""
        self.counters[key].inc(amount)

    def update_inflight(self) -> None:
        """Recompute the ``tasks_inflight`` gauge from the live actors."""
        self._inflight_gauge.set(sum(len(actor.inflight) for actor in self.actors.values()))

    @property
    def status_address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` of the status endpoint, if enabled."""
        if self._status is None:
            return None
        return (self._status.host, self._status.port)

    # -- lifecycle ------------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the TCP server and return the bound ``(host, port)``."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.options.host, port=self.options.port
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
            if self.options.status_port is not None:
                # the ring feeds /events with the most recent telemetry even
                # when no JSONL sink was configured
                self._status_ring = RingBufferSink(capacity=1024)
                get_event_bus().attach(self._status_ring)
                self._status = StatusServer(
                    [obs_registry(), self.metrics],
                    host=self.options.host,
                    port=self.options.status_port,
                    ring=self._status_ring,
                )
                await self._status.start()
        assert self.address is not None
        return self.address

    async def stop(self) -> None:
        """Send ``bye`` to every client, close all actors and the server."""
        if self._batch is not None and not self._batch.finished.is_set():
            self._batch.fail("coordinator stopped mid-batch")
        for actor in list(self.actors.values()):
            await actor.stop("server shutting down", send_bye=True)
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self._status is not None:
            await self._status.stop()
            self._status = None
        if self._status_ring is not None:
            get_event_bus().detach(self._status_ring)
            self._status_ring = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling --------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            message = await asyncio.wait_for(read_message(reader), timeout=self.options.connect_timeout)
        except (asyncio.TimeoutError, CodecError, OSError):
            writer.close()
            return
        if not isinstance(message, Hello):
            await self._reject(writer, "expected a hello frame before anything else")
            return
        if message.protocol_version != PROTOCOL_VERSION:
            await self._reject(
                writer,
                f"protocol version mismatch: server speaks protocol {PROTOCOL_VERSION}, client "
                f"{message.client_name!r} speaks protocol {message.protocol_version}",
            )
            return
        name = message.client_name
        resumed = name in self._known_clients
        superseded = self.actors.get(name)
        if superseded is not None:
            await superseded.stop(f"superseded by a new connection from {name!r}")
        self._known_clients.add(name)
        self.count("reconnects" if resumed else "connects")
        get_event_bus().emit("client_reconnect" if resumed else "client_connect", client=name)
        try:
            await write_message(
                writer,
                HelloAck(
                    server_name=SERVER_NAME,
                    protocol_version=PROTOCOL_VERSION,
                    heartbeat_interval=self.options.heartbeat_interval,
                    resumed=resumed,
                ),
            )
        except (OSError, CodecError):
            writer.close()
            return
        actor = ClientActor(self, name, reader, writer, self.options)
        self.actors[name] = actor
        actor.start()
        self._client_joined.set()

    async def _reject(self, writer: asyncio.StreamWriter, reason: str) -> None:
        try:
            await write_message(writer, ProtocolError(message=reason))
            writer.close()
            await writer.wait_closed()
        except (OSError, CodecError):  # pragma: no cover - peer already gone
            writer.close()

    # -- batch execution ------------------------------------------------------------------
    async def run_batch(
        self, payloads: list[bytes], traces: "list[tuple[str, str]] | None" = None
    ) -> list[bytes]:
        """Execute one batch of opaque task payloads, preserving order.

        Waits for the client quorum, queues every payload for the actors'
        work loops and resolves when all results are in.  ``traces``
        optionally aligns one
        ``(trace_id, span_id)`` pair with each payload so dispatches and
        results carry telemetry identity over the wire.  Raises
        ``RuntimeError`` when the batch fails (quorum never met, a task
        exhausted its attempts, a client reported an unrecoverable
        error, or every client vanished and none rejoined within
        ``connect_timeout``).
        """
        if self._batch is not None and not self._batch.finished.is_set():
            raise RuntimeError("a batch is already in flight; run_batch calls must be sequential")
        if not payloads:
            return []
        if traces is not None and len(traces) != len(payloads):
            raise ValueError("traces must align one (trace_id, span_id) pair per payload")
        await self._wait_for_quorum()
        batch = TaskBatch(next(self._batch_ids), payloads, traces)
        self._batch = batch
        try:
            for envelope in batch.envelopes:
                self._pending.put_nowait(envelope)
            await batch.finished.wait()
            if batch.error is not None:
                raise RuntimeError(f"batch {batch.batch_id} failed: {batch.error}")
            return [result for result in batch.results if result is not None]
        finally:
            self._batch = None
            self._drain_pending()

    async def _wait_for_quorum(self) -> None:
        deadline = time.monotonic() + self.options.connect_timeout
        while len(self.actors) < self.options.min_clients:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"waited {self.options.connect_timeout}s for {self.options.min_clients} "
                    f"client(s); only {len(self.actors)} connected"
                )
            self._client_joined.clear()
            try:
                await asyncio.wait_for(self._client_joined.wait(), timeout=min(remaining, 0.5))
            except asyncio.TimeoutError:
                continue

    def _drain_pending(self) -> None:
        while True:
            try:
                self._pending.get_nowait()
            except asyncio.QueueEmpty:
                return

    # -- actor callbacks ------------------------------------------------------------------
    async def next_envelope(self) -> TaskEnvelope:
        """Hand a work loop the next pending envelope (awaits until one exists)."""
        return await self._pending.get()

    def requeue(self, envelope: TaskEnvelope, *, reason: str) -> None:
        """Put an unresolved envelope back on the pending queue."""
        if envelope.completed or envelope.batch.finished.is_set():
            return
        self.count("requeues")
        get_event_bus().emit(
            "straggler_requeue",
            trace_id=envelope.trace_id,
            span_id=envelope.span_id,
            task_index=envelope.index,
            batch_id=envelope.batch.batch_id,
            reason=reason,
        )
        self._pending.put_nowait(envelope)

    def give_up(self, envelope: TaskEnvelope) -> None:
        """Fail the batch: an envelope exhausted its dispatch attempts."""
        envelope.batch.fail(
            f"task {envelope.index} exhausted {envelope.attempts} dispatch attempts without a result"
        )

    def complete_result(self, message: TaskResult) -> None:
        """Record a client's result upload (first result per task wins)."""
        batch = self._batch
        if batch is None or batch.batch_id != message.batch_id or batch.finished.is_set():
            self.count("stale_results")
            return
        if not 0 <= message.task_index < len(batch.envelopes):
            batch.fail(f"client {message.client_name!r} uploaded an out-of-range task index {message.task_index}")
            return
        envelope = batch.envelopes[message.task_index]
        if envelope.completed:
            self.count("duplicate_results")
            return
        if message.error is not None:
            batch.fail(f"task {envelope.index} failed on client {message.client_name!r}: {message.error}")
            return
        envelope.completed = True
        envelope.done.set()
        batch.results[envelope.index] = message.payload
        batch.remaining -= 1
        self.count("results")
        self.bytes_up.inc(len(message.payload))
        get_event_bus().emit(
            "task_result",
            trace_id=envelope.trace_id,
            span_id=envelope.span_id,
            task_index=envelope.index,
            batch_id=batch.batch_id,
            client=message.client_name,
            payload_bytes=len(message.payload),
        )
        if batch.remaining == 0:
            batch.finished.set()

    def detach(self, actor: ClientActor, reason: str) -> None:
        """Unregister a dead actor and requeue its unresolved in-flight work."""
        if self.actors.get(actor.name) is actor:
            del self.actors[actor.name]
        get_event_bus().emit("client_disconnect", client=actor.name, reason=reason)
        for envelope in list(actor.inflight):
            self.requeue(envelope, reason=f"client {actor.name!r} detached: {reason}")
        actor.inflight.clear()
        self.update_inflight()
        if self._batch is not None and not self._batch.finished.is_set() and not self.actors:
            self._spawn_rejoin_watchdog(self._batch)

    def _spawn_rejoin_watchdog(self, batch: TaskBatch) -> None:
        """Give disconnected clients ``connect_timeout`` seconds to rejoin."""

        async def watchdog() -> None:
            deadline = time.monotonic() + self.options.connect_timeout
            while time.monotonic() < deadline:
                if self.actors or batch.finished.is_set():
                    return
                await asyncio.sleep(0.05)
            if not self.actors and not batch.finished.is_set():
                batch.fail(
                    f"all clients disconnected and none rejoined within {self.options.connect_timeout}s"
                )

        if self._watchdog is not None and not self._watchdog.done():
            return
        self._watchdog = asyncio.get_running_loop().create_task(watchdog(), name="repro-serve-rejoin-watchdog")
