"""Framing codec: round-trips, size caps and truncation behaviour."""

import pickle
import socket
import struct

import pytest

from repro.serve.codec import (
    MAX_FRAME_BYTES,
    CodecError,
    FrameTooLarge,
    decode_body,
    encode_frame,
    recv_message,
    send_message,
)
from repro.serve.protocol import PROTOCOL_VERSION, Heartbeat, Hello, TaskDispatch, WeightSlice


@pytest.fixture()
def sock_pair():
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    yield left, right
    left.close()
    right.close()


MESSAGES = [
    Hello(client_name="w0", protocol_version=PROTOCOL_VERSION),
    Heartbeat(seq=41),
    TaskDispatch(batch_id=3, task_index=1, payload=b"\x00\x01binary\xff"),
    WeightSlice(store_id="global-0", version=2, payload=pickle.dumps({"w": [1.0, 2.0]})),
]


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).type)
def test_frame_roundtrip(message):
    frame = encode_frame(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert decode_body(frame[4:]) == message


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).type)
def test_socket_roundtrip(sock_pair, message):
    left, right = sock_pair
    send_message(left, message)
    assert recv_message(right) == message


def test_multiple_frames_in_sequence(sock_pair):
    left, right = sock_pair
    for seq in range(5):
        send_message(left, Heartbeat(seq=seq))
    for seq in range(5):
        assert recv_message(right) == Heartbeat(seq=seq)


def test_large_frame_arriving_in_pieces(sock_pair):
    """A body larger than the socket buffer is assembled from many ``recv_into`` calls."""
    import threading

    left, right = sock_pair
    message = WeightSlice(store_id="global-0", version=7, payload=bytes(range(256)) * 8192)  # 2 MiB
    frame = encode_frame(message)

    def trickle() -> None:
        for start in range(0, len(frame), 70_001):
            left.sendall(frame[start : start + 70_001])

    sender = threading.Thread(target=trickle)
    sender.start()
    try:
        assert recv_message(right) == message
    finally:
        sender.join(timeout=10)
    assert not sender.is_alive()


def test_clean_eof_returns_none(sock_pair):
    left, right = sock_pair
    left.close()
    assert recv_message(right) is None


def test_eof_mid_frame_raises(sock_pair):
    left, right = sock_pair
    frame = encode_frame(Heartbeat(seq=1))
    left.sendall(frame[: len(frame) - 2])  # header + truncated body
    left.close()
    with pytest.raises(CodecError, match="mid-frame"):
        recv_message(right)


def test_oversized_header_rejected_without_allocating(sock_pair):
    left, right = sock_pair
    left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(FrameTooLarge):
        recv_message(right)


def test_non_message_pickle_rejected():
    with pytest.raises(CodecError, match="not a registered message"):
        decode_body(pickle.dumps({"type": "hello"}))


def test_garbage_body_rejected():
    with pytest.raises(CodecError, match="failed to unpickle"):
        decode_body(b"\x00garbage that is not a pickle")