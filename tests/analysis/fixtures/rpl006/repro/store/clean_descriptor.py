"""RPL006 fixture: buffers go to write_atomic; reads need no descriptor."""
from pathlib import Path

from repro.store.objects import write_atomic


def save(path: Path, header: bytes, body: memoryview) -> None:
    write_atomic(path, [header, body])


def head(path: Path, size: int) -> bytes:
    with open(path, "rb") as stream:
        return stream.read(size)
