"""Versioned message vocabulary of the federation wire protocol.

The coordinator (:mod:`repro.serve.coordinator`) and the client runner
(:mod:`repro.serve.client`) speak length-prefixed frames
(:mod:`repro.serve.codec`), each carrying exactly one of the message
dataclasses below.  The conversation is:

========================  =========  ==================================================
message                   direction  meaning
========================  =========  ==================================================
``hello``                 c → s      identity + protocol/schema version negotiation
``hello_ack``             s → c      accept; advertises the heartbeat cadence
``round_plan``            s → c      a task batch (one federated round) is starting
``task_dispatch``         s → c      one pickled client task to execute
``state_request``         c → s      fetch a published ``StateStore`` version
``weight_slice``          s → c      the requested state payload (pickled dict)
``state_delta``           c → s      a task's result — the XOR delta upload
``encoded_delta``         c → s      a codec-compressed task result, tagged with
                                     the codec name + true byte counts (schema ≥ 3)
``heartbeat``             both       liveness probe / echo
``bye``                   both       orderly shutdown of one side
``error``                 both       protocol violation or remote failure report
========================  =========  ==================================================

Two version numbers gate the handshake: ``PROTOCOL_VERSION`` covers the
framing and message vocabulary and must match exactly; ``SCHEMA_VERSION``
covers the *payload* pickles (task dataclasses, state dicts, deltas) and
is **negotiated**: the server accepts any client schema in
``[MIN_SCHEMA_VERSION, SCHEMA_VERSION]`` and its ``hello_ack`` advertises
the lower of the two sides' versions, which both sides then speak.  A
client outside that window receives an ``error`` frame and is
disconnected before any task can cross the wire.

Schema 2 added the optional ``trace_id``/``span_id`` telemetry fields on
``task_dispatch`` and ``state_delta`` frames (defaulted to empty
strings, so schema-1 peers interoperate unchanged — the negotiation
exists to make that compatibility contract explicit on the wire).

Schema 3 added the ``encoded_delta`` frame (:class:`EncodedResult`): a
codec-tagged ``state_delta`` subclass a client sends when the task's
upload is a lossy :class:`~repro.engine.codecs.EncodedUpdate`.  The tag
names the codec and carries the true encoded/raw byte counts so the
coordinator's compression counters never re-measure pickles.  Clients
only emit it when the negotiated schema is ≥ 3; to older servers the
same payload travels as a plain ``state_delta`` frame (the pickled
``EncodedUpdate`` inside is self-describing, so decoding is unaffected —
only the wire-level accounting tag is lost).

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
    "SCHEMA_VERSION",
    "MIN_SCHEMA_VERSION",
    "MESSAGE_TYPES",
    "Message",
    "Hello",
    "HelloAck",
    "RoundPlan",
    "TaskDispatch",
    "StateRequest",
    "WeightSlice",
    "TaskResult",
    "EncodedResult",
    "Heartbeat",
    "Bye",
    "ProtocolError",
]

#: framing + message vocabulary version (checked in the handshake)
PROTOCOL_VERSION = 1

#: payload pickle schema version (task dataclasses, state dicts, deltas);
#: v2 added optional trace fields on task_dispatch/state_delta frames,
#: v3 the codec-tagged encoded_delta result frame
SCHEMA_VERSION = 3

#: oldest payload schema the server still accepts in the handshake
MIN_SCHEMA_VERSION = 1

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
    """Client's opening frame: identity and version negotiation."""

    type: ClassVar[str] = "hello"
    client_name: str
    protocol_version: int
    schema_version: int


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
    schema_version: int
    heartbeat_interval: float
    resumed: bool = False


@register_message
@dataclass(frozen=True)
class RoundPlan(Message):
    """Announces a task batch (one federated round's fan-out)."""

    type: ClassVar[str] = "round_plan"
    batch_id: int
    num_tasks: int


@register_message
@dataclass(frozen=True)
class TaskDispatch(Message):
    """One pickled :class:`~repro.engine.tasks.ClientTask` to execute."""

    type: ClassVar[str] = "task_dispatch"
    batch_id: int
    task_index: int
    payload: bytes
    #: telemetry identity (schema ≥ 2; empty strings for schema-1 peers)
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
    """A task's result upload (wire name ``state_delta``).

    The payload is the pickled bit-exact XOR
    :class:`~repro.engine.transport.StateDelta` the task produced.
    ``error`` carries the client-side traceback when the task raised
    instead of completing (``payload`` is empty then).
    """

    type: ClassVar[str] = "state_delta"
    batch_id: int
    task_index: int
    payload: bytes
    client_name: str = ""
    error: str | None = None
    #: telemetry identity echoed from the dispatch (schema ≥ 2)
    trace_id: str = ""
    span_id: str = ""


@register_message
@dataclass(frozen=True)
class EncodedResult(TaskResult):
    """A codec-compressed task result (wire name ``encoded_delta``, schema ≥ 3).

    Subclasses :class:`TaskResult` so every coordinator code path that
    routes on ``isinstance(message, TaskResult)`` handles it unchanged;
    the extra fields tag the payload with its codec and true byte
    counts (``encoded_nbytes`` = summed compressed blob sizes,
    ``raw_nbytes`` = what the same update would have moved uncompressed)
    for the coordinator's compression metrics.
    """

    type: ClassVar[str] = "encoded_delta"
    codec: str = ""
    encoded_nbytes: int = 0
    raw_nbytes: int = 0


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
