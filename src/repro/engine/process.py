"""Process-pool execution of client tasks.

Each task (client, submodel weights, dataset reference, RNG stream) is
pickled to a worker process, trained there and the result pickled back.
Workers bypass the GIL entirely, so CPU-bound local training scales with
cores — at the price of per-task serialisation overhead, which the
CI-scale models keep small relative to the training itself.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from repro.engine.base import Executor, map_longest_first, run_task

__all__ = ["ProcessExecutor"]


class ProcessExecutor(Executor):
    """Fans tasks out over a reusable :class:`ProcessPoolExecutor`."""

    name = "process"
    is_interprocess = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.effective_workers)
        return self._pool

    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Fan the tasks across worker processes, costliest first; results in submission order."""
        if not tasks:
            return []
        pool = self._ensure_pool()
        return map_longest_first(lambda batch: pool.map(run_task, batch), tasks)

    def shutdown(self) -> None:
        """Terminate the worker pool (a later map() lazily rebuilds it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
