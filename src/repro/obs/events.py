"""Structured, schema-versioned telemetry events and the process EventBus.

An :class:`Event` is one fact about the running system — a round
started, a task was dispatched, a client reconnected — stamped with the
wall clock (via the sanctioned :mod:`repro.obs.clock` shim) and
optionally carrying trace/span identity so server- and client-side logs
can be joined per task (``scripts/trace_join.py``).

Events are *observations*, never inputs: nothing read back from an
event log may feed run keys, checkpoints, histories or randomness.
That one-way rule is what lets telemetry carry wall-clock data without
touching the determinism contract.

The process-wide :class:`EventBus` is dormant by default: with no sinks
attached, :func:`emit` is a single attribute check and the rest of the
stack pays ~nothing (``benchmarks/bench_obs_overhead.py`` keeps this
honest).  :func:`configure_telemetry` attaches sinks; tests and
subsystems that need isolation construct their own bus.

Event type catalogue (``EVENT_TYPES``):

===================== =====================================================
type                  emitted when
===================== =====================================================
``run_start``         a federated run begins (serial or distributed)
``round_start``       a round's task fan-out is about to be planned
``round_end``         a round's aggregation + eval completed
``task_dispatch``     the coordinator hands a task to a remote client
``task_start``        a remote client begins executing a task
``task_result``       the coordinator accepts a task's uploaded result
``task_upload``       a remote client uploads its result
``client_connect``    a client completes the hello handshake
``client_reconnect``  a known client name re-attaches
``client_disconnect`` a client's connection is torn down
``straggler_requeue`` a dispatched task times out and is requeued
``checkpoint_saved``  the run store observes a checkpoint's write finished
``eval_done``         an evaluation pass produced metrics
``update_rejected``   an upload decoded to NaN/±inf and was left out
``run_end``           a federated run finished
===================== =====================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.serialization import Serializable
from repro.obs.clock import wall_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sinks import Sink

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "get_event_bus",
    "configure_telemetry",
    "shutdown_telemetry",
    "telemetry_active",
    "emit",
]

#: bump when the Event envelope itself changes shape
EVENT_SCHEMA_VERSION = 1

#: the sanctioned event-type vocabulary (emitting outside it raises)
EVENT_TYPES = frozenset(
    {
        "run_start",
        "round_start",
        "round_end",
        "task_dispatch",
        "task_start",
        "task_result",
        "task_upload",
        "client_connect",
        "client_reconnect",
        "client_disconnect",
        "straggler_requeue",
        "checkpoint_saved",
        "eval_done",
        "update_rejected",
        "run_end",
    }
)


@dataclass(frozen=True)
class Event(Serializable):
    """One telemetry fact: a type, a wall-clock timestamp, and context.

    ``data`` holds type-specific payload (round index, client name,
    byte counts …) and must stay JSON-serialisable; ``trace_id``/
    ``span_id`` are empty strings when the event is not part of a task
    timeline.
    """

    type: str
    timestamp: float
    source: str = ""
    trace_id: str = ""
    span_id: str = ""
    data: dict[str, Any] = field(default_factory=dict)
    schema_version: int = EVENT_SCHEMA_VERSION


class EventBus:
    """Fan events out to attached sinks; dormant when no sink is attached.

    Sink errors are contained: a sink that raises is detached and its
    failure recorded on :attr:`dropped_sinks` rather than propagated
    into training or serving code paths — telemetry must never take the
    run down with it.
    """

    def __init__(self, source: str = ""):
        self.source = source
        self._sinks: list["Sink"] = []
        self._lock = threading.Lock()
        self.dropped_sinks: list[str] = []

    @property
    def active(self) -> bool:
        """True when at least one sink is attached."""
        return bool(self._sinks)

    def attach(self, sink: "Sink") -> None:
        """Attach a sink; subsequent emits are delivered to it."""
        with self._lock:
            self._sinks.append(sink)

    def detach(self, sink: "Sink") -> None:
        """Detach a sink if attached (idempotent)."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def emit(
        self,
        type: str,
        *,
        trace_id: str = "",
        span_id: str = "",
        **data: Any,
    ) -> Event | None:
        """Build and deliver an event; returns it, or ``None`` when dormant.

        The timestamp is read here, once, so every sink sees the same
        instant.  Unknown ``type`` values raise immediately — the
        vocabulary is part of the schema, not free text.
        """
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}; add it to EVENT_TYPES first")
        if not self._sinks:
            return None
        event = Event(
            type=type,
            timestamp=wall_time(),
            source=self.source,
            trace_id=trace_id,
            span_id=span_id,
            data=data,
        )
        self.publish(event)
        return event

    def publish(self, event: Event) -> None:
        """Deliver an already-built event to every sink, containing failures."""
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.write(event)
            except Exception as exc:  # noqa: BLE001 - telemetry must not kill the run
                self.detach(sink)
                self.dropped_sinks.append(f"{sink.__class__.__name__}: {exc}")

    def close(self) -> None:
        """Detach and close every sink."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
        for sink in sinks:
            try:
                sink.close()
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass


#: the process-wide bus (dormant until configure_telemetry attaches sinks)
_BUS = EventBus()


def get_event_bus() -> EventBus:
    """The process-wide event bus."""
    return _BUS


def telemetry_active() -> bool:
    """True when the process-wide bus has at least one sink attached."""
    return _BUS.active


def configure_telemetry(
    *,
    jsonl_path: str | None = None,
    ring_size: int = 0,
    stderr: bool = False,
    source: str = "",
) -> list["Sink"]:
    """Attach the standard sinks to the process-wide bus.

    Returns the sinks attached (so callers can inspect the ring buffer
    or flush the JSONL file).  Calling with all defaults attaches
    nothing and leaves the bus dormant.
    """
    from repro.obs.sinks import JsonlSink, RingBufferSink, StderrSink

    if source:
        _BUS.source = source
    attached: list["Sink"] = []
    if jsonl_path is not None:
        attached.append(JsonlSink(jsonl_path))
    if ring_size > 0:
        attached.append(RingBufferSink(capacity=ring_size))
    if stderr:
        attached.append(StderrSink())
    for sink in attached:
        _BUS.attach(sink)
    return attached


def shutdown_telemetry() -> None:
    """Detach and close every sink on the process-wide bus."""
    _BUS.close()


def emit(type: str, *, trace_id: str = "", span_id: str = "", **data: Any) -> Event | None:
    """Emit on the process-wide bus (no-op returning ``None`` when dormant)."""
    return _BUS.emit(type, trace_id=trace_id, span_id=span_id, **data)
