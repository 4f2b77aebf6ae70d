"""In-process sequential execution — the reference all executors must match."""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.base import Executor, run_stacked

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Runs every task in the calling thread.

    This is the default executor and the parity reference: thread and
    process executors are required (and tested) to produce bit-identical
    results to this one at a fixed seed.  Tasks that share a stack key run
    as one stacked pass (:func:`~repro.engine.base.run_stacked`).
    """

    name = "serial"

    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Run every task in this process; results in submission order."""
        return run_stacked(tasks)

    @property
    def effective_workers(self) -> int:
        """Always 1: serial execution has no pool."""
        return 1
