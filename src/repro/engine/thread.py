"""Thread-pool execution of client tasks.

Threads share the interpreter, so pure-Python sections serialise on the
GIL; the win comes from numpy kernels that release the GIL and from
overlapping any simulated device/communication latency.  No pickling is
involved, which makes this the cheapest parallel executor to spin up and
the right default for latency-dominated simulations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.engine.base import Executor, map_longest_first, run_task

__all__ = ["ThreadExecutor"]


class ThreadExecutor(Executor):
    """Fans tasks out over a reusable :class:`ThreadPoolExecutor`."""

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.effective_workers,
                thread_name_prefix="repro-client",
            )
        return self._pool

    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Fan the tasks across the thread pool, costliest first; results in submission order.

        ``Executor.map`` re-raises the first task exception when its
        result is consumed, preserving the serial error behaviour.
        """
        if not tasks:
            return []
        pool = self._ensure_pool()
        return map_longest_first(lambda batch: pool.map(run_task, batch), tasks)

    def shutdown(self) -> None:
        """Join the thread pool (a later map() lazily rebuilds it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
