"""Message registry and version-gating behaviour of the wire protocol."""

import socket
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import ClassVar

import pytest

from repro.serve import protocol
from repro.serve.codec import recv_message, send_message
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions
from repro.serve.protocol import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    Heartbeat,
    Hello,
    HelloAck,
    Message,
    ProtocolError,
    TaskResult,
    register_message,
)

EXPECTED_WIRE_NAMES = {
    "hello",
    "hello_ack",
    "task_dispatch",
    "state_request",
    "weight_slice",
    "state_delta",
    "heartbeat",
    "bye",
    "error",
}


def test_registry_contains_exactly_the_documented_vocabulary():
    assert set(MESSAGE_TYPES) == EXPECTED_WIRE_NAMES


def test_every_registered_class_roundtrips_its_wire_name():
    for wire_name, cls in MESSAGE_TYPES.items():
        assert cls.type == wire_name
        assert issubclass(cls, Message)


def test_task_result_travels_as_state_delta():
    """The upload frame keeps the paper-facing wire name."""
    assert TaskResult.type == "state_delta"


def test_versions_are_positive_integers():
    assert isinstance(PROTOCOL_VERSION, int) and PROTOCOL_VERSION >= 1


def test_one_wire_version():
    """The handshake checks one version number and no separate payload schema."""
    assert PROTOCOL_VERSION == 5
    assert not hasattr(protocol, "SCHEMA_VERSION")


def refused_at_hello(version: int) -> None:
    """A peer speaking ``version`` is refused by name at hello and never counted as connected."""
    executor = RemoteExecutor(
        options=ServeOptions(port=0, min_clients=1, connect_timeout=5.0, heartbeat_interval=0.5, liveness_timeout=5.0)
    )
    host, port = executor.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.settimeout(5)
            send_message(sock, Hello(client_name=f"v{version}-peer", protocol_version=version))
            reply = recv_message(sock)
        assert isinstance(reply, ProtocolError)
        assert f"server speaks protocol {PROTOCOL_VERSION}, client 'v{version}-peer' speaks protocol {version}" in reply.message
        assert executor.stats()["connects"] == 0
    finally:
        executor.shutdown()


def test_a_version_2_peer_is_refused_at_hello():
    """Version 2 uploads were XOR deltas: such a peer is refused by name at
    hello, before any task result could reach ``pickle.loads``."""
    refused_at_hello(2)


def test_a_version_3_peer_is_refused_at_hello():
    """A version 3 dispatch carried one task and its result was that task's,
    not a stack piece's result list: such a peer is refused at hello too."""
    refused_at_hello(3)


def test_a_version_4_peer_is_refused_at_hello():
    """A version 4 server announced every batch with a ``round_plan`` frame,
    which version 5 no longer has: such a peer is refused at hello too."""
    refused_at_hello(4)


def test_handshake_frames_carry_only_the_protocol_version():
    for cls in (Hello, HelloAck):
        names = {field.name for field in fields(cls)}
        assert "protocol_version" in names
        assert not any("schema" in name for name in names), (cls.type, names)


def test_every_upload_travels_in_one_frame_type():
    """No registered frame specialises ``state_delta``: a result has one shape on the wire."""
    assert MESSAGE_TYPES["state_delta"] is TaskResult
    subclasses = [cls.type for cls in MESSAGE_TYPES.values() if cls is not TaskResult and issubclass(cls, TaskResult)]
    assert subclasses == []


def test_duplicate_registration_rejected():
    @dataclass(frozen=True)
    class Impostor(Message):
        type: ClassVar[str] = "heartbeat"

    with pytest.raises(ValueError, match="duplicate"):
        register_message(Impostor)
    # the registry still resolves to the original class
    assert MESSAGE_TYPES["heartbeat"] is Heartbeat


def test_messages_are_immutable():
    hello = Hello(client_name="w0", protocol_version=PROTOCOL_VERSION)
    with pytest.raises(FrozenInstanceError):
        hello.client_name = "other"


def test_module_documents_every_wire_name():
    """The protocol table in the module docstring stays complete."""
    for wire_name in EXPECTED_WIRE_NAMES:
        assert f"``{wire_name}``" in protocol.__doc__