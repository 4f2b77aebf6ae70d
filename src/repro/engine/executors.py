"""The in-process executors: one ``map`` contract, three pools.

:class:`SerialExecutor`, :class:`ThreadExecutor` and
:class:`ProcessExecutor` only run the tasks they are handed, results in
submission order.  The round groups its tasks into stacks before any
executor sees them (:func:`repro.engine.tasks.map_stacked`), so every
task a round hands over is one :class:`~repro.engine.tasks.StackTask`
piece, and no executor reads a ``stack_key``.

The pool is the only difference.  Serial runs the tasks in order in the
calling thread: W = 1, so no stack splits and no ``cost`` is read.  The
thread and process executors hand them to ``pool.map`` costliest first
(:func:`~repro.engine.base.map_longest_first`).
"""

from __future__ import annotations

from concurrent.futures import Executor as Pool, ProcessPoolExecutor, ThreadPoolExecutor
from operator import methodcaller
from typing import Any, Sequence

from repro.engine.base import Executor, map_longest_first

__all__ = ["SerialExecutor", "ThreadExecutor", "ProcessExecutor"]


class SerialExecutor(Executor):
    """Runs every task in the calling thread, in order.

    This is the default executor and the parity reference: thread and
    process executors are required (and tested) to produce bit-identical
    results to this one at a fixed seed.
    """

    name = "serial"

    #: serial execution has no pool
    effective_workers = 1

    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Run the tasks one after another."""
        return [task.run() for task in tasks]


class _PoolExecutor(Executor):
    """Maps tasks over a reusable ``pool_class`` pool, costliest first.

    ``pool.map`` re-raises the first task exception when its result is
    consumed, preserving the serial error behaviour.
    """

    pool_class: type[Pool]

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: Pool | None = None

    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Run the tasks on the pool, costliest first; results in submission order."""
        if self._pool is None:
            self._pool = self.pool_class(max_workers=self.effective_workers)
        # a methodcaller pickles (a lambda would not), so process workers can run it
        return map_longest_first(lambda batch: self._pool.map(methodcaller("run"), batch), tasks)

    def shutdown(self) -> None:
        """Join the pool (a later map() lazily rebuilds it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """A thread pool: no pickling, the cheapest to spin up; overlaps the numpy
    kernels that release the GIL and any simulated device latency."""

    name = "thread"
    pool_class = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """A process pool: every task is pickled to a worker and its result back;
    workers bypass the GIL, so CPU-bound local training scales with cores."""

    name = "process"
    is_interprocess = True
    pool_class = ProcessPoolExecutor
