"""Versioned message vocabulary of the federation wire protocol.

The coordinator (:mod:`repro.serve.coordinator`) and the client runner
(:mod:`repro.serve.client`) speak length-prefixed frames
(:mod:`repro.serve.codec`), each carrying exactly one of the message
dataclasses below.  The conversation is:

========================  =========  ==================================================
message                   direction  meaning
========================  =========  ==================================================
``hello``                 c → s      identity + protocol version
``hello_ack``             s → c      accept; advertises the heartbeat cadence
``task_dispatch``         s → c      one pickled stack piece of client tasks to execute
``state_request``         c → s      fetch a published ``StateStore`` version
``weight_slice``          s → c      the requested state payload (pickled dict)
``state_delta``           c → s      a piece's results — trained slices or codec encodings
``heartbeat``             both       liveness probe / echo
``bye``                   both       orderly shutdown of one side
``error``                 both       protocol violation or remote failure report
========================  =========  ==================================================

One version number gates the handshake: ``PROTOCOL_VERSION`` covers the
framing, the message vocabulary and the payload pickles (task
dataclasses, state dicts, uploads), and must match exactly.  A client
speaking any other version receives an ``error`` frame and is
disconnected before any task can cross the wire.

Payloads travel as pickles of this repository's own dataclasses, so the
protocol is for **trusted networks only** — the loopback and
cluster-internal deployments the reproduction targets, never the open
internet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "PROTOCOL_VERSION",
    "MESSAGE_TYPES",
    "Message",
    "Hello",
    "HelloAck",
    "TaskDispatch",
    "StateRequest",
    "WeightSlice",
    "TaskResult",
    "Heartbeat",
    "Bye",
    "ProtocolError",
]

#: framing + vocabulary + payload version (must match exactly in the handshake);
#: 5 since the server no longer announces each batch with a ``round_plan`` frame
PROTOCOL_VERSION = 5

#: wire name -> message class; populated by :func:`register_message`
MESSAGE_TYPES: dict[str, type["Message"]] = {}


def register_message(cls: type["Message"]) -> type["Message"]:
    """Class decorator adding a message to :data:`MESSAGE_TYPES` (unique names)."""
    if cls.type in MESSAGE_TYPES:
        raise ValueError(f"duplicate message type {cls.type!r}")
    MESSAGE_TYPES[cls.type] = cls
    return cls


@dataclass(frozen=True)
class Message:
    """Base class of every frame payload; ``type`` is the wire name."""

    type: ClassVar[str] = "message"


@register_message
@dataclass(frozen=True)
class Hello(Message):
    """Client's opening frame: identity and protocol version."""

    type: ClassVar[str] = "hello"
    client_name: str
    protocol_version: int


@register_message
@dataclass(frozen=True)
class HelloAck(Message):
    """Server's handshake acceptance.

    ``resumed`` is True when ``client_name`` was connected before — the
    coordinator treats the connection as a reconnect and counts it in
    its churn statistics.
    """

    type: ClassVar[str] = "hello_ack"
    server_name: str
    protocol_version: int
    heartbeat_interval: float
    resumed: bool = False


@register_message
@dataclass(frozen=True)
class TaskDispatch(Message):
    """One pickled :class:`~repro.engine.tasks.StackTask` (a stack piece; its first member's trace)."""

    type: ClassVar[str] = "task_dispatch"
    batch_id: int
    task_index: int
    payload: bytes
    #: telemetry identity (empty strings when the task carries none)
    trace_id: str = ""
    span_id: str = ""


@register_message
@dataclass(frozen=True)
class StateRequest(Message):
    """Client asks for one published version of a server-side state store."""

    type: ClassVar[str] = "state_request"
    store_id: str
    version: int


@register_message
@dataclass(frozen=True)
class WeightSlice(Message):
    """The requested state payload: the store's pickled state dict."""

    type: ClassVar[str] = "weight_slice"
    store_id: str
    version: int
    payload: bytes


@register_message
@dataclass(frozen=True)
class TaskResult(Message):
    """A piece's result upload (wire name ``state_delta``).

    The payload is the pickled list of the piece's task results; a state is
    the trained slice itself (a dict of arrays, bit-exact) or, under a lossy
    codec, an :class:`~repro.engine.codecs.EncodedUpdate`.
    ``error`` carries the client-side traceback when the task raised
    instead of completing (``payload`` is empty then).
    """

    type: ClassVar[str] = "state_delta"
    batch_id: int
    task_index: int
    payload: bytes
    client_name: str = ""
    error: str | None = None
    #: telemetry identity echoed from the dispatch
    trace_id: str = ""
    span_id: str = ""


@register_message
@dataclass(frozen=True)
class Heartbeat(Message):
    """Liveness probe; the receiving side echoes it back unchanged."""

    type: ClassVar[str] = "heartbeat"
    seq: int


@register_message
@dataclass(frozen=True)
class Bye(Message):
    """Orderly goodbye; the receiver stops expecting frames from the sender."""

    type: ClassVar[str] = "bye"
    reason: str = ""


@register_message
@dataclass(frozen=True)
class ProtocolError(Message):
    """A protocol violation or remote failure report (usually terminal)."""

    type: ClassVar[str] = "error"
    message: str
