"""Length-prefixed frame codec for the federation wire protocol.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of pickled :class:`~repro.serve.protocol.Message`.  The same
framing serves both sides of the connection: the coordinator reads and
writes through asyncio streams (:func:`read_message` /
:func:`write_message`), the client runner through plain blocking
sockets (:func:`recv_message` / :func:`send_message`).

Decoding validates that the payload is a registered message type —
anything else (a truncated frame, an unregistered class, a non-message
pickle) raises :class:`CodecError` so a confused peer fails loudly at
the frame boundary instead of deep inside the engine.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct

from repro.serve.protocol import MESSAGE_TYPES, Message

__all__ = [
    "CodecError",
    "FrameTooLarge",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_body",
    "read_message",
    "write_message",
    "send_message",
    "recv_message",
]

#: frame header: 4-byte big-endian payload length
_HEADER = struct.Struct(">I")

#: refuse frames above this size (a corrupted header otherwise allocates GiBs)
MAX_FRAME_BYTES = 1 << 30


class CodecError(RuntimeError):
    """A frame could not be decoded into a registered protocol message."""


class FrameTooLarge(CodecError):
    """A frame's declared or actual size exceeds :data:`MAX_FRAME_BYTES`."""


def encode_frame(message: Message) -> bytes:
    """Serialise a message into one length-prefixed frame."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} byte cap")
    return _HEADER.pack(len(body)) + body


def decode_body(body: "bytes | bytearray") -> Message:
    """Deserialise a frame body, validating it is a registered message."""
    try:
        message = pickle.loads(body)
    except Exception as error:  # any unpickling failure is a codec error, whatever its class
        raise CodecError(f"frame body failed to unpickle: {error}") from error
    if not isinstance(message, Message) or type(message).type not in MESSAGE_TYPES:
        raise CodecError(f"frame decoded to {type(message).__name__}, not a registered message")
    return message


# -- asyncio side (coordinator) -----------------------------------------------------------
async def read_message(reader: asyncio.StreamReader) -> Message | None:
    """Read one frame from a stream; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise CodecError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame header declares {length} bytes (cap {MAX_FRAME_BYTES})")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise CodecError("connection closed mid-frame") from error
    return decode_body(body)


async def write_message(writer: asyncio.StreamWriter, message: Message) -> None:
    """Write one frame to a stream and drain (the asyncio back-pressure point)."""
    writer.write(encode_frame(message))
    await writer.drain()


# -- blocking-socket side (client runner) -------------------------------------------------
def send_message(sock: socket.socket, message: Message) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, length: int) -> bytearray | None:
    """Read exactly ``length`` bytes; ``None`` on EOF before the first byte."""
    buffer = bytearray(length)
    view = memoryview(buffer)
    received = 0
    while received < length:
        try:
            count = sock.recv_into(view[received:])
        except (ConnectionResetError, BrokenPipeError):
            count = 0
        if not count:
            if not received:
                return None
            raise CodecError("connection closed mid-frame")
        received += count
    return buffer


def recv_message(sock: socket.socket) -> Message | None:
    """Read one frame from a blocking socket; ``None`` on EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame header declares {length} bytes (cap {MAX_FRAME_BYTES})")
    body = _recv_exact(sock, length)
    if body is None:
        raise CodecError("connection closed between header and frame body")
    return decode_body(body)
