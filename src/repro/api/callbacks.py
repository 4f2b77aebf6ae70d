"""Training-loop callbacks: the hook protocol and the shipped implementations.

:class:`Callback` defines the four hooks threaded through
:meth:`repro.core.fl_base.FederatedAlgorithm.run`:

* ``on_round_start(algorithm, round_index)`` — before ``run_round``,
* ``on_evaluate(algorithm, record)`` — after an evaluated round's record
  (accuracies filled in) has been appended to the history,
* ``on_round_end(algorithm, record)`` — after every round,
* ``on_checkpoint(algorithm, record)`` — last hook of every round, once
  the record is final (including the late evaluation an early stop
  triggers); the durable-state hook the experiment store's
  :class:`repro.store.runstore.RunRecorder` persists checkpoints from.  If a
  checkpoint callback itself requests a stop, the driver evaluates the
  record and *re-fires* ``on_checkpoint`` so durable state always saw
  the final record — it may therefore fire twice for one round, with
  the same round index (reprolint rule ``RPL008`` enforces this
  ordering statically),
* ``on_fit_end(algorithm, history)`` — once, when the loop exits (also on
  early stop).

A callback stops training by calling ``algorithm.request_stop(reason)``;
the loop finishes the current round and exits before the next one.  If
that final round was not scheduled for evaluation it is evaluated at exit
and its ``on_evaluate`` fires after ``on_round_end`` (the only deviation
from the order above), so histories always end with an evaluated record.
Shipped callbacks: :class:`ProgressCallback` (replacing the old
``progress: bool`` print), :class:`EarlyStopping`,
:class:`WallClockBudget` and :class:`JsonHistoryStreamer`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fl_base import FederatedAlgorithm
    from repro.core.history import RoundRecord, TrainingHistory

__all__ = [
    "Callback",
    "CallbackList",
    "ProgressCallback",
    "EarlyStopping",
    "WallClockBudget",
    "JsonHistoryStreamer",
]


class Callback:
    """Base class of every training callback; all hooks default to no-ops."""

    def on_round_start(self, algorithm: "FederatedAlgorithm", round_index: int) -> None:
        """Called before ``run_round(round_index)``."""

    def on_evaluate(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Called after an evaluated round (record carries accuracies)."""

    def on_round_end(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Called after every round, evaluated or not."""

    def on_checkpoint(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Called as the last hook of every round, once the record is final.

        Unlike ``on_round_end`` this hook fires *after* the late evaluation
        an early stop can trigger, so the record it sees is exactly what
        the history keeps — the safe place to persist durable state
        (:class:`repro.store.runstore.RunRecorder` writes its checkpoints here).
        When a checkpoint callback requests a stop, the hook re-fires with
        the same (now evaluated) record; implementations must be
        idempotent per round index.
        """

    def on_fit_end(self, algorithm: "FederatedAlgorithm", history: "TrainingHistory") -> None:
        """Called once when the training loop exits."""


class CallbackList(Callback):
    """Dispatches every hook to an ordered collection of callbacks."""

    def __init__(self, callbacks: Iterable[Callback] | None = None):
        self.callbacks: list[Callback] = list(callbacks or [])

    def append(self, callback: Callback) -> None:
        """Add one callback to the end of the dispatch order."""
        self.callbacks.append(callback)

    def __len__(self) -> int:
        return len(self.callbacks)

    def on_round_start(self, algorithm: "FederatedAlgorithm", round_index: int) -> None:
        """Dispatch ``on_round_start`` to every callback, in order."""
        for callback in self.callbacks:
            callback.on_round_start(algorithm, round_index)

    def on_evaluate(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Dispatch ``on_evaluate`` to every callback, in order."""
        for callback in self.callbacks:
            callback.on_evaluate(algorithm, record)

    def on_round_end(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Dispatch ``on_round_end`` to every callback, in order."""
        for callback in self.callbacks:
            callback.on_round_end(algorithm, record)

    def on_checkpoint(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Dispatch ``on_checkpoint`` to every callback, in order."""
        for callback in self.callbacks:
            callback.on_checkpoint(algorithm, record)

    def on_fit_end(self, algorithm: "FederatedAlgorithm", history: "TrainingHistory") -> None:
        """Dispatch ``on_fit_end`` to every callback, in order."""
        for callback in self.callbacks:
            callback.on_fit_end(algorithm, history)


class ProgressCallback(Callback):
    """Per-round console logging (the old ``progress: bool`` print, as a hook)."""

    def __init__(self, stream: TextIO | None = None, every: int = 1):
        if every <= 0:
            raise ValueError("every must be positive")
        self.stream = stream
        self.every = every

    def on_round_end(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Print the round line (every ``every``-th round)."""
        if (record.round_index + 1) % self.every != 0:
            return
        total = algorithm.planned_rounds
        accuracy = f"{record.full_accuracy:.3f}" if record.full_accuracy is not None else "-"
        loss = f"{record.train_loss:.3f}" if record.train_loss is not None else "-"
        print(
            f"[{algorithm.name}] round {record.round_index + 1}/{total if total else '?'} "
            f"loss={loss} full_acc={accuracy}",
            file=self.stream or sys.stdout,
        )

    def on_fit_end(self, algorithm: "FederatedAlgorithm", history: "TrainingHistory") -> None:
        """Print the early-stop reason, if the run stopped early."""
        if algorithm.stop_reason is not None:
            print(f"[{algorithm.name}] stopped early: {algorithm.stop_reason}", file=self.stream or sys.stdout)


class EarlyStopping(Callback):
    """Stop when the monitored accuracy stops improving.

    ``monitor`` is ``"full"`` or ``"avg"``; the counter advances once per
    *evaluation* (not per round), so ``patience=3`` means three consecutive
    evaluations without an improvement larger than ``min_delta``.
    """

    def __init__(self, monitor: str = "full", patience: int = 3, min_delta: float = 0.0):
        if monitor not in {"full", "avg"}:
            raise ValueError("monitor must be 'full' or 'avg'")
        if patience <= 0:
            raise ValueError("patience must be positive")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = min_delta
        self.best: float | None = None
        self.stale_evaluations = 0

    def on_evaluate(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Track the monitored accuracy; request a stop when it stalls."""
        value = record.full_accuracy if self.monitor == "full" else record.avg_accuracy
        if value is None:
            return
        if self.best is None or value > self.best + self.min_delta:
            self.best = value
            self.stale_evaluations = 0
            return
        self.stale_evaluations += 1
        if self.stale_evaluations >= self.patience:
            algorithm.request_stop(
                f"early stopping: no {self.monitor} improvement > {self.min_delta} "
                f"in {self.patience} evaluations (best {self.best:.4f})"
            )

    def on_fit_end(self, algorithm: "FederatedAlgorithm", history: "TrainingHistory") -> None:
        """Reset so a reused instance judges each run (e.g. of a comparison) afresh."""
        self.best = None
        self.stale_evaluations = 0


class WallClockBudget(Callback):
    """Stop after a wall-clock budget; the current round always completes.

    ``clock`` is injectable for tests (defaults to :func:`time.monotonic`).
    """

    def __init__(self, budget_seconds: float, clock: Callable[[], float] = time.monotonic):
        if budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        self.budget_seconds = budget_seconds
        self.clock = clock
        self.started_at: float | None = None

    def on_round_start(self, algorithm: "FederatedAlgorithm", round_index: int) -> None:
        """Start the budget clock on the first round."""
        if self.started_at is None:
            self.started_at = self.clock()

    def on_round_end(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Request a stop once the elapsed wall-clock exceeds the budget."""
        if self.started_at is None:
            return
        elapsed = self.clock() - self.started_at
        if elapsed >= self.budget_seconds:
            algorithm.request_stop(
                f"wall-clock budget exhausted ({elapsed:.1f}s >= {self.budget_seconds:.1f}s)"
            )

    def on_fit_end(self, algorithm: "FederatedAlgorithm", history: "TrainingHistory") -> None:
        """Reset so a reused instance grants each run its own budget."""
        self.started_at = None


class JsonHistoryStreamer(Callback):
    """Stream one JSON line per round to a file (tail-able during long runs).

    The file is truncated at the first round of a run; each line is the
    round record's :meth:`~repro.core.history.RoundRecord.to_dict` plus the
    algorithm name.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._started = False

    def on_round_end(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Append the round record as one JSON line (truncating on round one)."""
        mode = "a" if self._started else "w"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, mode, encoding="utf-8") as stream:
            payload = {"algorithm": algorithm.name, **record.to_dict()}
            stream.write(json.dumps(payload) + "\n")
        self._started = True
