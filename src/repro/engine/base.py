"""The ``Executor`` protocol: how per-client work fans out across workers.

An executor runs a batch of independent :class:`~repro.engine.tasks.ClientTask`
objects and returns their results **in submission order**.  Determinism is
the contract that makes executors interchangeable: every task carries its
own :class:`numpy.random.SeedSequence` stream, so a task's result depends
only on the task itself — never on which worker ran it, in which order, or
alongside what — and every executor produces bit-identical results.

This module is self-contained (no imports from the rest of the package) so
that low-level modules such as :mod:`repro.core.config` can reference the
executor vocabulary without import cycles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Sequence

from repro.perf.lanes import usable_cpus

__all__ = ["Executor", "default_max_workers", "map_longest_first"]


def map_longest_first(ordered_map: Callable[[list[Any]], Iterable[Any]], tasks: Sequence[Any]) -> list[Any]:
    """``ordered_map(tasks)``, costliest first, results in submission order.

    A round's tasks differ severalfold in size (S/M/L submodels): started
    in submission order, the last big one leaves the other workers idle.
    ``ordered_map`` (order-preserving, hands items out first to last) gets
    them by decreasing ``task.cost`` — ties and cost-less tasks as submitted.
    """
    order = sorted(range(len(tasks)), key=lambda index: -getattr(tasks[index], "cost", 0))
    results: list[Any] = [None] * len(tasks)
    for index, result in zip(order, ordered_map([tasks[index] for index in order])):
        results[index] = result
    return results


def default_max_workers() -> int:
    """Worker count when the user does not pin one: the usable CPU count."""
    return usable_cpus()


class Executor(ABC):
    """Executes batches of independent client tasks.

    Implementations must preserve submission order in the returned list and
    propagate the first exception a task raises.  ``map`` may be called many
    times (once per federated round); worker pools are reused across calls
    and released by :meth:`shutdown`.
    """

    #: registry name of the implementation ("serial", "thread", "process")
    name: str = "executor"

    #: True when tasks cross a process boundary (results are pickled); the
    #: transport layer spills published state to disk only in that case
    is_interprocess: bool = False

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive when set")
        self.max_workers = max_workers

    @abstractmethod
    def map(self, tasks: Sequence[Any]) -> list[Any]:
        """Run every task and return their results in submission order."""

    def shutdown(self) -> None:
        """Release worker resources (idempotent; the executor may be reused)."""

    @property
    def effective_workers(self) -> int:
        """The worker count actually used by pool-based executors."""
        return self.max_workers if self.max_workers is not None else default_max_workers()

    # -- context manager ----------------------------------------------------------------
    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers!r})"
