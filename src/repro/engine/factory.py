"""Executor lookup by name — the single source of the executor vocabulary."""

from __future__ import annotations

from repro.engine.base import Executor
from repro.engine.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.serve.executor import RemoteExecutor

__all__ = ["EXECUTORS", "EXECUTOR_NAMES", "create_executor", "validate_executor_choice"]

EXECUTORS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
    RemoteExecutor.name: RemoteExecutor,
}

#: valid values of ``FederatedConfig.executor`` / the CLI ``--executor`` flag
EXECUTOR_NAMES: tuple[str, ...] = tuple(EXECUTORS)


def validate_executor_choice(name: str, max_workers: int | None) -> None:
    """Shared validation for every config layer that carries an executor choice."""
    if name not in EXECUTORS:
        raise ValueError(f"executor must be one of {', '.join(EXECUTOR_NAMES)} (got {name!r})")
    if max_workers is not None and max_workers <= 0:
        raise ValueError("max_workers must be positive when set")


def create_executor(name: str = "serial", max_workers: int | None = None) -> Executor:
    """Instantiate an executor by registry name."""
    validate_executor_choice(name, max_workers)
    return EXECUTORS[name](max_workers=max_workers)
