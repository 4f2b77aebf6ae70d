"""Tunable knobs of the federation service.

:class:`ServeOptions` configures the coordinator (bind address, client
quorum, straggler and liveness timeouts, per-actor send-queue bound).
``repro serve`` builds one from its flags and hands it to the
:class:`~repro.serve.executor.RemoteExecutor` it starts; an executor
built without options uses the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeOptions"]


@dataclass(frozen=True)
class ServeOptions:
    """Coordinator configuration (see field comments for semantics)."""

    #: interface the coordinator binds; loopback by default
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it from ``RemoteExecutor.address``)
    port: int = 0
    #: how many connected clients a batch waits for before dispatching
    min_clients: int = 1
    #: seconds to wait for the client quorum (and for a mid-batch rejoin
    #: after every client disconnected) before failing the batch
    connect_timeout: float = 60.0
    #: seconds a dispatched task may stay unanswered before it is requeued
    #: to another client; ``None`` disables straggler rescue
    straggler_timeout: float | None = 60.0
    #: cadence of coordinator-side heartbeat probes per client
    heartbeat_interval: float = 10.0
    #: seconds without any frame from a client before its connection is
    #: declared dead and its in-flight work requeued
    liveness_timeout: float = 120.0
    #: bound of each client actor's send queue — the back-pressure point:
    #: enqueueing to a slow client suspends the producer instead of
    #: buffering without limit
    send_queue_size: int = 8
    #: tasks one client may hold concurrently (its work-loop fan-out)
    max_inflight: int = 1
    #: dispatch attempts per task before the batch is failed
    max_task_attempts: int = 5
    #: bind the HTTP status endpoint (/metrics, /healthz, /events) on this
    #: port (0 = ephemeral); ``None`` disables it
    status_port: int | None = None

    def __post_init__(self) -> None:
        """Validate the knob ranges."""
        if self.min_clients <= 0:
            raise ValueError("min_clients must be positive")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.straggler_timeout is not None and self.straggler_timeout <= 0:
            raise ValueError("straggler_timeout must be positive when set")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.liveness_timeout <= 0:
            raise ValueError("liveness_timeout must be positive")
        if self.send_queue_size <= 0:
            raise ValueError("send_queue_size must be positive")
        if self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if self.max_task_attempts <= 0:
            raise ValueError("max_task_attempts must be positive")
        if self.status_port is not None and self.status_port < 0:
            raise ValueError("status_port cannot be negative")
