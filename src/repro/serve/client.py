"""Blocking-socket client runner: one federated worker over the wire.

:class:`ClientRunner` is what ``repro client`` (and the parity tests)
run in each worker process.  It dials the coordinator, performs the
exact-version handshake, then serves frames: ``task_dispatch`` payloads are
unpickled and executed exactly as a local worker would run them,
results go back as ``state_delta`` uploads, heartbeats are echoed, and
``bye`` ends the session cleanly.

Two behaviours make the networked path equivalent to the in-process
executors:

* **State fetching** — while a task resolves a
  :class:`~repro.engine.transport.StateHandle`, the runner's fetcher
  (installed via :func:`repro.engine.transport.set_state_fetcher`)
  turns the spill-file read into a ``state_request``/``weight_slice``
  round-trip.  Frames that arrive in between (new dispatches,
  heartbeats) are deferred and served afterwards, so interleaving never
  drops work.
* **Reconnect with backoff** — a lost connection is retried with
  deterministic exponential backoff (no jitter: reconnect timing must
  never feed into results, and the engine's per-task seed streams
  guarantee a re-run of a redispatched task is bit-identical anyway).

``drop_after=N`` is a failure-injection knob for tests: after computing
its *N*-th result the runner closes the socket once *without uploading
it*, forcing the coordinator down the requeue/reconnect path.

``event_log=<path>`` attaches a private
:class:`~repro.obs.sinks.JsonlSink` and emits ``task_start`` /
``task_upload`` events carrying the trace/span ids from each dispatch
frame — the client half of the timelines ``scripts/trace_join.py``
stitches together with the server's log.
"""

from __future__ import annotations

import pickle
import socket
import sys
import time
import traceback
from collections import deque

from repro.engine.transport import set_state_fetcher
from repro.obs.events import EventBus
from repro.obs.sinks import JsonlSink
from repro.serve.codec import CodecError, recv_message, send_message
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Bye,
    Heartbeat,
    Hello,
    HelloAck,
    Message,
    ProtocolError,
    StateRequest,
    TaskDispatch,
    TaskResult,
    WeightSlice,
)

__all__ = ["ClientRunner", "HandshakeRejected"]


class HandshakeRejected(RuntimeError):
    """The server refused the handshake (version mismatch or protocol error)."""


class ClientRunner:
    """One networked federated worker (see the module docstring)."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str,
        *,
        reconnect_attempts: int = 10,
        backoff_base: float = 0.2,
        backoff_max: float = 5.0,
        drop_after: int | None = None,
        quiet: bool = False,
        event_log: str | None = None,
    ):
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be non-negative")
        if backoff_base <= 0 or backoff_max <= 0:
            raise ValueError("backoff_base and backoff_max must be positive")
        self.host = host
        self.port = port
        self.name = name
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.drop_after = drop_after
        self.quiet = quiet
        self._sock: socket.socket | None = None
        #: frames read while waiting for a weight slice, served afterwards
        self._deferred: "deque[Message]" = deque()
        self._results_computed = 0
        self._dropped = False
        #: private telemetry bus (dormant unless event_log is set)
        self.events = EventBus(source=name)
        self._event_log = event_log

    # -- public entry point ---------------------------------------------------------------
    def run(self) -> int:
        """Serve the coordinator until ``bye``; returns a process exit code."""
        set_state_fetcher(self._fetch_state)
        if self._event_log is not None:
            self.events.attach(JsonlSink(self._event_log))
        failures = 0
        try:
            while True:
                try:
                    self._connect()
                except HandshakeRejected as error:
                    self._log(f"handshake rejected: {error}")
                    return 1
                except (OSError, CodecError) as error:
                    failures += 1
                    if failures > self.reconnect_attempts:
                        self._log(f"giving up after {failures} failed connection attempts: {error}")
                        return 1
                    self._sleep_backoff(failures)
                    continue
                failures = 0
                outcome = self._serve()
                if outcome == "bye":
                    return 0
                if outcome == "fatal":
                    return 1
                # "dropped" (injected) or "eof" (server vanished): reconnect
                if outcome == "eof":
                    failures += 1
                    if failures > self.reconnect_attempts:
                        self._log(f"giving up after {failures} lost connections")
                        return 1
                    self._sleep_backoff(failures)
        finally:
            set_state_fetcher(None)
            self._close_socket()
            self.events.close()

    # -- connection management ------------------------------------------------------------
    def _connect(self) -> None:
        self._close_socket()
        self._deferred.clear()
        sock = socket.create_connection((self.host, self.port), timeout=30)
        try:
            sock.settimeout(None)
            send_message(sock, Hello(client_name=self.name, protocol_version=PROTOCOL_VERSION))
            reply = recv_message(sock)
        except BaseException:
            sock.close()
            raise
        if reply is None:
            sock.close()
            raise OSError("server closed the connection during the handshake")
        if isinstance(reply, ProtocolError):
            sock.close()
            raise HandshakeRejected(reply.message)
        if not isinstance(reply, HelloAck):
            sock.close()
            raise CodecError(f"expected hello_ack, got {type(reply).type!r}")
        self._sock = sock
        self._log(f"connected to {reply.server_name} at {self.host}:{self.port} (resumed={reply.resumed})")

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close of a dead socket
                pass
            self._sock = None

    def _sleep_backoff(self, failures: int) -> None:
        delay = min(self.backoff_max, self.backoff_base * (2 ** (failures - 1)))
        self._log(f"retrying in {delay:.2f}s (attempt {failures}/{self.reconnect_attempts})")
        time.sleep(delay)

    # -- serving --------------------------------------------------------------------------
    def _serve(self) -> str:
        assert self._sock is not None
        try:
            return self._serve_loop()
        except OSError:
            # a send raced the server closing the connection (e.g. a
            # heartbeat echo against a shutdown); a `bye` may still sit in
            # the receive buffer — honour it before treating this as a loss
            if self._pending_bye():
                self._log("server said goodbye (read after a failed send)")
                return "bye"
            self._log("connection lost while sending")
            return "eof"

    def _serve_loop(self) -> str:
        while True:
            message = self._next_message()
            if message is None:
                self._log("connection lost")
                return "eof"
            if isinstance(message, TaskDispatch):
                if not self._handle_task(message):
                    return "dropped"
            elif isinstance(message, Heartbeat):
                send_message(self._sock, Heartbeat(seq=message.seq))
            elif isinstance(message, WeightSlice):
                pass  # a late slice is stale
            elif isinstance(message, Bye):
                self._log(f"server said goodbye: {message.reason or 'bye'}")
                return "bye"
            elif isinstance(message, ProtocolError):
                self._log(f"server reported an error: {message.message}")
                return "fatal"
            else:
                send_message(self._sock, ProtocolError(message=f"unexpected {type(message).type!r} frame"))
                return "fatal"

    def _pending_bye(self) -> bool:
        """Whether the dying connection still delivers a ``bye`` frame."""
        if self._sock is None:
            return False
        try:
            self._sock.settimeout(1.0)
            while True:
                message = recv_message(self._sock)
                if message is None:
                    return False
                if isinstance(message, Bye):
                    return True
        except (OSError, CodecError):
            return False

    def _next_message(self) -> Message | None:
        if self._deferred:
            return self._deferred.popleft()
        assert self._sock is not None
        try:
            return recv_message(self._sock)
        except CodecError:
            return None

    def _handle_task(self, dispatch: TaskDispatch) -> bool:
        assert self._sock is not None
        self.events.emit(
            "task_start",
            trace_id=dispatch.trace_id,
            span_id=dispatch.span_id,
            task_index=dispatch.task_index,
            batch_id=dispatch.batch_id,
        )
        error: str | None = None
        payload = b""
        try:
            task = pickle.loads(dispatch.payload)
            payload = pickle.dumps(task.run(), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            error = traceback.format_exc()
        self._results_computed += 1
        if (
            self.drop_after is not None
            and not self._dropped
            and error is None
            and self._results_computed >= self.drop_after
        ):
            # injected failure: vanish without uploading; the coordinator
            # requeues the task and our re-run after reconnect is bit-identical
            self._dropped = True
            self._log(f"injected drop after result #{self._results_computed}")
            self._close_socket()
            return False
        send_message(
            self._sock,
            TaskResult(
                batch_id=dispatch.batch_id,
                task_index=dispatch.task_index,
                payload=payload,
                client_name=self.name,
                error=error,
                trace_id=dispatch.trace_id,
                span_id=dispatch.span_id,
            ),
        )
        self.events.emit(
            "task_upload",
            trace_id=dispatch.trace_id,
            span_id=dispatch.span_id,
            task_index=dispatch.task_index,
            batch_id=dispatch.batch_id,
            payload_bytes=len(payload),
            failed=error is not None,
        )
        return True

    # -- state fetching -------------------------------------------------------------------
    def _fetch_state(self, store_id: str, version: int) -> object:
        """Resolve a state handle over the wire (installed as the transport fetcher)."""
        if self._sock is None:
            raise CodecError("not connected while fetching state")
        send_message(self._sock, StateRequest(store_id=store_id, version=version))
        while True:
            message = recv_message(self._sock)
            if message is None:
                raise CodecError("connection lost while fetching state")
            if isinstance(message, WeightSlice):
                if message.store_id == store_id and message.version == version:
                    return pickle.loads(message.payload)
                continue  # stale slice from an earlier request
            if isinstance(message, ProtocolError):
                raise KeyError(message.message)
            if isinstance(message, Heartbeat):
                send_message(self._sock, Heartbeat(seq=message.seq))
                continue
            # anything else (new dispatches, round plans, bye) waits its turn
            self._deferred.append(message)

    # -- logging --------------------------------------------------------------------------
    def _log(self, text: str) -> None:
        if not self.quiet:
            print(f"repro-client[{self.name}]: {text}", file=sys.stderr, flush=True)
