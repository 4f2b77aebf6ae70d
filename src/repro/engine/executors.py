"""The in-process executors: one dispatch path, three pools.

:class:`SerialExecutor`, :class:`ThreadExecutor` and
:class:`ProcessExecutor` share one ``map``.  A round's tasks group by
``stack_key()`` (:meth:`repro.engine.tasks.ClientTask.stack_key`; a task
without one, or whose key is None, is a stack of one).  With W workers
each stack of K tasks splits into ``min(K, W)`` contiguous pieces whose
sizes differ by at most one, every piece runs through :func:`run_piece`,
and the results come back in submission order.

The pool is the only difference.  Serial maps the pieces with the builtin
``map``: W = 1, so no stack splits and no ``cost`` is read.  The thread and
process executors hand them to ``pool.map`` costliest first
(:func:`~repro.engine.base.map_longest_first`), a piece costing its length
times its first task's ``cost`` — members of one stack train one submodel.
"""

from __future__ import annotations

from abc import abstractmethod
from concurrent.futures import Executor as Pool, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Iterable, Sequence

from repro.engine.base import Executor, map_longest_first

__all__ = ["SerialExecutor", "ThreadExecutor", "ProcessExecutor", "run_piece", "stack_pieces"]


def run_piece(tasks: Sequence[Any]) -> list[Any]:
    """The results of one piece, in order: a lone task through its own ``run``,
    more through one ``run_stack`` call of their class (module-level so process
    pools can pickle it by name)."""
    return type(tasks[0]).run_stack(tasks) if len(tasks) > 1 else [tasks[0].run()]


def stack_pieces(tasks: Sequence[Any], workers: int) -> list[list[int]]:
    """The submission indices of every piece, stacks in the order of their first task.

    Tasks with an equal ``stack_key()`` that is not None form a stack; each
    stack of K splits into ``min(K, workers)`` contiguous pieces whose sizes
    differ by at most one.
    """
    stacks: dict[Any, list[int]] = {}
    for index, task in enumerate(tasks):
        key = task.stack_key() if hasattr(task, "stack_key") else None
        stacks.setdefault(index if key is None else key, []).append(index)
    pieces = []
    for members in stacks.values():
        count = min(len(members), workers)
        pieces.extend(
            members[len(members) * piece // count : len(members) * (piece + 1) // count] for piece in range(count)
        )
    return pieces


class _InProcessExecutor(Executor):
    """The one ``map`` of the in-process executors; subclasses supply how pieces are mapped."""

    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Run every task as part of its stack's pieces; results in submission order."""
        pieces = stack_pieces(tasks, self.effective_workers)
        results: list[Any] = [None] * len(tasks)
        for piece, outcomes in zip(pieces, self._map_pieces([[tasks[index] for index in piece] for piece in pieces])):
            for index, outcome in zip(piece, outcomes):
                results[index] = outcome
        return results

    @abstractmethod
    def _map_pieces(self, pieces: list[list[Any]]) -> Iterable[list[Any]]:
        """Every piece's results, in the order of ``pieces``."""


class SerialExecutor(_InProcessExecutor):
    """Runs every piece in the calling thread, in order.

    This is the default executor and the parity reference: thread and
    process executors are required (and tested) to produce bit-identical
    results to this one at a fixed seed.
    """

    name = "serial"

    def _map_pieces(self, pieces: list[list[Any]]) -> Iterable[list[Any]]:
        return map(run_piece, pieces)

    @property
    def effective_workers(self) -> int:
        """Always 1: serial execution has no pool."""
        return 1


class _PoolExecutor(_InProcessExecutor):
    """Maps pieces over a reusable ``pool_class`` pool, costliest first.

    ``pool.map`` re-raises the first task exception when its result is
    consumed, preserving the serial error behaviour.
    """

    pool_class: type[Pool]

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: Pool | None = None

    def _map_pieces(self, pieces: list[list[Any]]) -> Iterable[list[Any]]:
        if not pieces:
            return []
        if self._pool is None:
            self._pool = self.pool_class(max_workers=self.effective_workers)
        return map_longest_first(
            lambda batch: self._pool.map(run_piece, batch),
            pieces,
            cost=lambda piece: len(piece) * getattr(piece[0], "cost", 0),
        )

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
    """A process pool: every piece is pickled to a worker and its results back;
    workers bypass the GIL, so CPU-bound local training scales with cores."""

    name = "process"
    is_interprocess = True
    pool_class = ProcessPoolExecutor
