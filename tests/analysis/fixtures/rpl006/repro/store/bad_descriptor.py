"""RPL006 fixture: raw descriptors inside the store layer."""
import os
from os import writev


def save(path: str, payload: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.write(fd, payload)
    os.close(fd)


def append(path: str, parts: list[bytes], flags: int) -> None:
    fd = os.open(path, flags)
    writev(fd, parts)
    os.close(fd)


def head(path: str, size: int) -> bytes:
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)  # flagged too: flags are not read
    try:
        return os.read(fd, size)
    finally:
        os.close(fd)
