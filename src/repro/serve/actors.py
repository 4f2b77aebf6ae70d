"""Supervised per-client actors on the coordinator side.

Every accepted connection gets one :class:`ClientActor` owning four
supervised coroutines:

* **reader** — decodes inbound frames: task results are handed to the
  coordinator, ``state_request`` frames are answered with
  ``weight_slice`` payloads from the live
  :class:`~repro.engine.transport.StateStore` registry, heartbeats
  refresh the liveness watermark;
* **sender** — drains the actor's *bounded* send queue into the socket.
  The queue bound is the protocol's back-pressure point: producers
  (work loops, state serving, heartbeats) suspend on a full queue
  instead of buffering without limit for a slow client;
* **work loops** (``max_inflight`` of them) — pull task envelopes from
  the coordinator's shared pending queue, dispatch them to this client
  and wait for the result; a straggler timeout requeues the envelope so
  another client can rescue the round;
* **heartbeat** — probes the client periodically and declares the
  connection dead after ``liveness_timeout`` seconds of silence.  Each
  probe's send time is remembered by sequence number, so the client's
  echo yields a send→ack round-trip observation on the coordinator's
  ``heartbeat_rtt_seconds`` histogram instead of being fire-and-forget.

The supervisor wraps all of them: the first child to exit (EOF, codec
error, liveness timeout, ``bye``) cancels the rest, requeues the
actor's in-flight work through :meth:`Coordinator.detach` and closes
the socket — so a client crash mid-round costs a redispatch, never the
round.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import TYPE_CHECKING

from repro.engine.transport import server_state_bytes
from repro.obs.events import get_event_bus
from repro.serve.codec import read_message, write_message
from repro.serve.options import ServeOptions
from repro.serve.protocol import (
    Bye,
    Heartbeat,
    Message,
    ProtocolError,
    StateRequest,
    TaskDispatch,
    TaskResult,
    WeightSlice,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.coordinator import Coordinator, TaskEnvelope

__all__ = ["ClientActor", "ActorFailure"]


class ActorFailure(RuntimeError):
    """Terminal condition of one client connection (EOF, timeout, ``bye``)."""


class ClientActor:
    """One supervised client connection (see the module docstring)."""

    def __init__(
        self,
        coordinator: "Coordinator",
        name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        options: ServeOptions,
    ):
        self.coordinator = coordinator
        self.name = name
        self.reader = reader
        self.writer = writer
        self.options = options
        #: bounded send queue — the per-actor back-pressure point
        self.send_queue: "asyncio.Queue[Message]" = asyncio.Queue(maxsize=options.send_queue_size)
        #: envelopes dispatched to this client and not yet resolved
        self.inflight: "set[TaskEnvelope]" = set()
        self.last_seen = time.monotonic()
        #: send time of each outstanding heartbeat probe, by sequence number
        self._heartbeat_sent: dict[int, float] = {}
        #: set once the supervisor finished cleanup (socket closed, work requeued)
        self.closed = asyncio.Event()
        self._supervisor: asyncio.Task | None = None
        self._close_reason: str | None = None
        self._send_bye = False
        self._cleaning = False

    def start(self) -> None:
        """Spawn the supervisor (idempotent)."""
        if self._supervisor is None:
            self._supervisor = asyncio.get_running_loop().create_task(
                self._supervise(), name=f"repro-serve-actor-{self.name}"
            )

    async def stop(self, reason: str, *, send_bye: bool = False) -> None:
        """Cancel the actor and wait for its cleanup to finish."""
        self._close_reason = reason
        self._send_bye = send_bye
        if self._supervisor is None:
            self.closed.set()
            return
        # never cancel a supervisor already in its cleanup section: the
        # CancelledError would land mid-finally and abort the cleanup that
        # sets `closed`, deadlocking this wait
        if not self._cleaning and not self._supervisor.done():
            self._supervisor.cancel()
        await self.closed.wait()

    async def enqueue(self, message: Message) -> None:
        """Queue a frame for this client (suspends when the bound is hit)."""
        await self.send_queue.put(message)

    # -- supervision ----------------------------------------------------------------------
    async def _supervise(self) -> None:
        loop = asyncio.get_running_loop()
        children = [
            loop.create_task(self._reader_loop(), name=f"{self.name}-reader"),
            loop.create_task(self._sender_loop(), name=f"{self.name}-sender"),
            loop.create_task(self._heartbeat_loop(), name=f"{self.name}-heartbeat"),
        ]
        children.extend(
            loop.create_task(self._work_loop(), name=f"{self.name}-work-{slot}")
            for slot in range(self.options.max_inflight)
        )
        reason = "actor loop exited"
        try:
            done, _ = await asyncio.wait(children, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                error = task.exception()
                if error is not None:
                    reason = str(error)
                    break
        except asyncio.CancelledError:
            reason = self._close_reason or "cancelled"
        finally:
            self._cleaning = True
            for task in children:
                task.cancel()
            # a late cancel() must not abort this cleanup: `closed` has to be
            # set no matter what, or stop() callers wait forever
            try:
                await asyncio.gather(*children, return_exceptions=True)
            except asyncio.CancelledError:
                pass
            try:
                await self._close_connection()
            except asyncio.CancelledError:
                pass
            self.coordinator.detach(self, reason)
            self.closed.set()

    async def _close_connection(self) -> None:
        try:
            if self._send_bye:
                await write_message(self.writer, Bye(reason=self._close_reason or "shutdown"))
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, asyncio.CancelledError):  # pragma: no cover - peer already gone
            pass

    # -- children -------------------------------------------------------------------------
    async def _reader_loop(self) -> None:
        while True:
            message = await read_message(self.reader)
            if message is None:
                raise ActorFailure(f"client {self.name!r} disconnected")
            self.last_seen = time.monotonic()
            if isinstance(message, TaskResult):
                self.coordinator.complete_result(message)
            elif isinstance(message, StateRequest):
                await self._serve_state(message)
            elif isinstance(message, Heartbeat):
                # the echo closes the probe's send→ack loop: observe the RTT
                sent_at = self._heartbeat_sent.pop(message.seq, None)
                if sent_at is not None:
                    self.coordinator.heartbeat_rtt.observe(time.monotonic() - sent_at)
            elif isinstance(message, Bye):
                raise ActorFailure(f"client {self.name!r} said goodbye: {message.reason or 'bye'}")
            elif isinstance(message, ProtocolError):
                raise ActorFailure(f"client {self.name!r} reported an error: {message.message}")
            else:
                raise ActorFailure(f"unexpected {type(message).type!r} frame from client {self.name!r}")

    async def _serve_state(self, request: StateRequest) -> None:
        self.coordinator.count("state_requests")
        try:
            payload = server_state_bytes(request.store_id, request.version)
        except KeyError as error:
            await self.enqueue(ProtocolError(message=str(error)))
            return
        self.coordinator.bytes_down.inc(len(payload))
        await self.enqueue(WeightSlice(store_id=request.store_id, version=request.version, payload=payload))

    async def _sender_loop(self) -> None:
        while True:
            message = await self.send_queue.get()
            await write_message(self.writer, message)

    async def _heartbeat_loop(self) -> None:
        for seq in itertools.count():
            await asyncio.sleep(self.options.heartbeat_interval)
            if time.monotonic() - self.last_seen > self.options.liveness_timeout:
                raise ActorFailure(
                    f"client {self.name!r} sent no frame for over {self.options.liveness_timeout}s"
                )
            # stamp before enqueueing: the RTT then includes our own send
            # queue, which is exactly the backlog an operator wants to see
            self._heartbeat_sent[seq] = time.monotonic()
            if len(self._heartbeat_sent) > 64:
                # unanswered probes on a silent-but-alive connection must not
                # accumulate forever; liveness_timeout catches true death
                oldest = min(self._heartbeat_sent)
                del self._heartbeat_sent[oldest]
            await self.enqueue(Heartbeat(seq=seq))

    async def _work_loop(self) -> None:
        while True:
            envelope = await self.coordinator.next_envelope()
            if envelope.completed or envelope.batch.finished.is_set():
                continue
            if envelope.attempts >= self.options.max_task_attempts:
                self.coordinator.give_up(envelope)
                continue
            envelope.attempts += 1
            # no awaits between claiming and registering the envelope: a
            # cancellation here would otherwise lose it for good
            self.inflight.add(envelope)
            self.coordinator.update_inflight()
            try:
                await self.enqueue(
                    TaskDispatch(
                        batch_id=envelope.batch.batch_id,
                        task_index=envelope.index,
                        payload=envelope.payload,
                        trace_id=envelope.trace_id,
                        span_id=envelope.span_id,
                    )
                )
                self.coordinator.count("dispatched")
                self.coordinator.bytes_down.inc(len(envelope.payload))
                get_event_bus().emit(
                    "task_dispatch",
                    trace_id=envelope.trace_id,
                    span_id=envelope.span_id,
                    task_index=envelope.index,
                    batch_id=envelope.batch.batch_id,
                    client=self.name,
                    attempt=envelope.attempts,
                    payload_bytes=len(envelope.payload),
                )
                if self.options.straggler_timeout is None:
                    await envelope.done.wait()
                else:
                    try:
                        await asyncio.wait_for(envelope.done.wait(), self.options.straggler_timeout)
                    except asyncio.TimeoutError:
                        self.coordinator.requeue(envelope, reason="straggler")
            except asyncio.CancelledError:
                # leave the envelope in `inflight`: the supervisor's detach
                # requeues it so another client can pick the task up
                raise
            self.inflight.discard(envelope)
            self.coordinator.update_inflight()
