""":class:`RunStore` — the durable, resumable experiment store.

One store is one directory::

    <root>/
      store.json                     # store-level schema marker
      runs/<run_id>/run.json         # run key + status
      runs/<run_id>/history.json     # final TrainingHistory (on completion)
      runs/<run_id>/checkpoints/round_000007.ckpt   # one file per checkpoint

A **run** is identified by the SHA-256 of its canonical run key (the
experiment setting plus algorithm, strategy, scenario and round budget),
so re-submitting the same experiment maps onto the same run directory —
the property sweep resumption builds on.  A **checkpoint** is one
self-checking file (:mod:`repro.store.objects`) holding a
:class:`~repro.store.checkpoint.Checkpoint`'s arrays and JSON state behind
a SHA-256 trailer, so truncation anywhere surfaces as
:class:`~repro.store.objects.StoreCorruptionError` instead of a silently
wrong resume.

:class:`RunRecorder` is the callback that feeds a store from a live run:
it hands a checkpoint to the store on the ``on_checkpoint`` hook (every
``every`` rounds and always on the final/stopped round) and can prune
older checkpoints to bound disk use (``keep``; a pruned checkpoint's file
is its only copy, so pruning frees all of it).  The store writes a
handed-off checkpoint on a background thread, one at a time per
:class:`RunStore` handle, so the next round trains while the previous
round's state goes to disk; :meth:`RunStore.flush` (called by every
checkpoint read path, by the next hand-off and when the run ends) is where
that write becomes visible and where its failure, if any, is raised.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.api.callbacks import Callback
from repro.obs.clock import perf_counter
from repro.obs.events import get_event_bus
from repro.store.checkpoint import Checkpoint, CheckpointSchemaError
from repro.store.objects import (
    StoreCorruptionError,
    canonical_json,
    read_checkpoint,
    sha256_hex,
    write_atomic,
    write_checkpoint,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fl_base import FederatedAlgorithm
    from repro.core.history import RoundRecord, TrainingHistory

__all__ = ["RunStore", "RunEntry", "RunRecorder", "STORE_SCHEMA_VERSION"]

#: version of the store directory layout itself
STORE_SCHEMA_VERSION = 2
#: version of the ``run.json`` layout, which store schema 2 left as it was
_RUN_ENTRY_SCHEMA_VERSION = 1

_RUN_STATUSES = {"running", "completed"}


@dataclass(frozen=True)
class RunEntry:
    """One run's identity and lifecycle state inside a store."""

    run_id: str
    #: canonical run key (algorithm + setting + strategy + scenario + rounds)
    key: dict
    #: ``"running"`` (started, maybe checkpointed) or ``"completed"``
    status: str
    #: why the run stopped early (None = ran its full round budget)
    stop_reason: str | None = None

    @property
    def completed(self) -> bool:
        """True when the run finished (including a legitimate early stop)."""
        return self.status == "completed"


class _CheckpointJob:
    """One checkpoint handed to the writer: what it is, and how its write went.

    Holds the snapshot only until the write starts (:meth:`RunStore._write`
    takes it), so the snapshot is released as soon as its write ends, not
    when someone next looks at the job.
    """

    def __init__(self, run_id: str, checkpoint: Checkpoint, keep: int | None, trace_id: str):
        self.run_id = run_id
        self.round_index = checkpoint.round_index
        self.keep = keep
        self.trace_id = trace_id
        self.checkpoint: Checkpoint | None = checkpoint
        self.seconds = 0.0
        self.future: Future | None = None


class RunStore:
    """On-disk store of runs, checkpoints and histories.

    A handle belongs to one thread.  It keeps at most one checkpoint write
    in flight (:meth:`save_checkpoint` with ``background=True``); every
    method that reads or lists checkpoints, :meth:`finish_run` and the next
    save :meth:`flush` it first, so a handle always reads its own writes
    and a failed background write is raised before anything builds on it.
    Other handles and processes see a checkpoint once its file has been
    renamed into place.

    Background writes run on one writer thread per handle, started by the
    first hand-off and ended when the handle is garbage-collected.  It is
    a :class:`~concurrent.futures.ThreadPoolExecutor` worker, which the
    interpreter joins at exit after the writes queued on it, so the
    interpreter never exits on a half-written checkpoint.
    """

    def __init__(self, root: str | Path, *, create: bool = True):
        self._in_flight: _CheckpointJob | None = None
        self._writer: ThreadPoolExecutor | None = None
        self.root = Path(root)
        marker = self.root / "store.json"
        if not create and not marker.exists():
            # read paths (reports, inspection) must not fabricate stores on
            # typo'd directories — a wrong --store would silently look empty
            raise ValueError(
                f"no experiment store at {self.root} (missing store.json); "
                "pass the directory a sweep or a --store run wrote into"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        if marker.exists():
            payload = self._read_json(marker, what="store marker")
            version = payload.get("schema_version")
            if version != STORE_SCHEMA_VERSION:
                raise CheckpointSchemaError(
                    f"store at {self.root} uses schema version {version}, this build "
                    f"supports {STORE_SCHEMA_VERSION}; refusing to open it (run its "
                    "experiments again into a new store, or read it with the build that wrote it)"
                )
        else:
            write_atomic(marker, json.dumps({"schema_version": STORE_SCHEMA_VERSION}) + "\n")
        self._runs_dir = self.root / "runs"
        self._runs_dir.mkdir(parents=True, exist_ok=True)

    # -- run identity -------------------------------------------------------------------
    @staticmethod
    def run_id_for(key: Mapping[str, Any]) -> str:
        """Deterministic run ID: SHA-256 of the canonical JSON run key."""
        return sha256_hex(canonical_json(dict(key)).encode("utf-8"))[:16]

    def _run_dir(self, run_id: str) -> Path:
        return self._runs_dir / run_id

    # -- run lifecycle ------------------------------------------------------------------
    def begin_run(self, key: Mapping[str, Any]) -> RunEntry:
        """Register a run for ``key`` (idempotent) and return its entry.

        An existing entry — running or completed — is returned as-is; the
        caller decides whether to resume, skip or restart.
        """
        run_id = self.run_id_for(key)
        existing = self.get_run(run_id)
        if existing is not None:
            return existing
        entry = RunEntry(run_id=run_id, key=dict(key), status="running")
        self._write_run_entry(entry)
        return entry

    def _write_run_entry(self, entry: RunEntry) -> None:
        payload = {
            "schema_version": _RUN_ENTRY_SCHEMA_VERSION,
            "run_id": entry.run_id,
            "key": entry.key,
            "status": entry.status,
            "stop_reason": entry.stop_reason,
        }
        write_atomic(self._run_dir(entry.run_id) / "run.json", json.dumps(payload, indent=2) + "\n")

    def get_run(self, run_id: str) -> RunEntry | None:
        """The run's entry, or None when the store has never seen it."""
        path = self._run_dir(run_id) / "run.json"
        if not path.exists():
            return None
        payload = self._read_json(path, what="run entry")
        status = payload.get("status")
        if status not in _RUN_STATUSES:
            raise StoreCorruptionError(f"run entry {path} carries unknown status {status!r}")
        return RunEntry(
            run_id=str(payload["run_id"]),
            key=dict(payload["key"]),
            status=status,
            stop_reason=payload.get("stop_reason"),
        )

    def runs(self) -> list[RunEntry]:
        """Every run registered in the store, sorted by run ID."""
        entries = []
        if self._runs_dir.exists():
            for run_dir in sorted(self._runs_dir.iterdir()):
                if (run_dir / "run.json").exists():
                    entry = self.get_run(run_dir.name)
                    if entry is not None:
                        entries.append(entry)
        return entries

    def is_completed(self, run_id: str) -> bool:
        """True when the run finished (its history is durable)."""
        entry = self.get_run(run_id)
        return entry is not None and entry.completed

    def finish_run(self, run_id: str, history: "TrainingHistory", stop_reason: str | None = None) -> None:
        """Mark a run completed and persist its final history.

        Flushes first: a run is never marked completed past a checkpoint
        whose background write failed.
        """
        self.flush()
        entry = self.get_run(run_id)
        if entry is None:
            raise ValueError(f"run {run_id} was never registered with begin_run")
        write_atomic(
            self._run_dir(run_id) / "history.json",
            json.dumps(history.to_dict(), indent=2) + "\n",
        )
        self._write_run_entry(RunEntry(run_id=run_id, key=entry.key, status="completed", stop_reason=stop_reason))

    def load_history(self, run_id: str) -> "TrainingHistory":
        """The final history of a completed run (strict round-trip)."""
        from repro.core.history import TrainingHistory

        path = self._run_dir(run_id) / "history.json"
        if not path.exists():
            raise ValueError(f"run {run_id} has no stored history (did it complete?)")
        return TrainingHistory.from_dict(self._read_json(path, what="history"))

    # -- checkpoints --------------------------------------------------------------------
    def _checkpoint_dir(self, run_id: str) -> Path:
        return self._run_dir(run_id) / "checkpoints"

    def _checkpoint_path(self, run_id: str, round_index: int) -> Path:
        return self._checkpoint_dir(run_id) / f"round_{round_index:06d}.ckpt"

    def checkpoint_rounds(self, run_id: str) -> list[int]:
        """Rounds with a stored checkpoint, ascending (empty = none yet)."""
        self.flush()
        return self._checkpoint_rounds(run_id)

    def _checkpoint_rounds(self, run_id: str) -> list[int]:
        """:meth:`checkpoint_rounds` without the flush (the writer thread prunes through it)."""
        directory = self._checkpoint_dir(run_id)
        if not directory.exists():
            return []
        rounds = []
        for path in directory.glob("round_*.ckpt"):
            try:
                rounds.append(int(path.stem.split("_", 1)[1]))
            except ValueError:  # pragma: no cover - foreign file
                continue
        return sorted(rounds)

    def save_checkpoint(
        self,
        run_id: str,
        checkpoint: Checkpoint,
        keep: int | None = None,
        *,
        background: bool = False,
        trace_id: str = "",
    ) -> Path:
        """Persist one checkpoint as one file; returns its path.

        ``keep`` prunes older checkpoints down to the newest ``keep``,
        deleting their files.

        When this returns the checkpoint is complete and renamed into
        place, not fsynced: a power loss can still lose it.  With
        ``background=True`` (the hand-off :class:`RunRecorder` uses) it
        returns as soon as the write is queued on the handle's writer thread:
        the caller must not mutate ``checkpoint`` afterwards, and the
        file exists — or the write's exception is raised — at the
        next :meth:`flush`.  Either way the previous background write is
        flushed first and ``run_id``/``keep`` are checked before a byte is
        written.  ``trace_id`` tags the ``checkpoint_saved`` event.
        """
        self.flush()
        if keep is not None and keep < 1:
            raise ValueError("keep must be at least 1")
        if self.get_run(run_id) is None:
            raise ValueError(f"run {run_id} was never registered with begin_run")
        job = _CheckpointJob(run_id, checkpoint, keep, trace_id)
        if background and self._hand_off(job):
            self._in_flight = job
        else:
            self._write(job)
            self._report(job, blocked_seconds=job.seconds)
        return self._checkpoint_path(run_id, job.round_index)

    def _hand_off(self, job: _CheckpointJob) -> bool:
        """Queue ``job`` on the handle's writer; False once the interpreter is shutting down.

        A ``ThreadPoolExecutor`` takes no work after that, so a run on a
        thread the main module left behind writes its checkpoints inline.
        """
        if self._writer is None:
            self._writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-checkpoint")
        try:
            job.future = self._writer.submit(self._write, job)
        except RuntimeError:
            return False
        return True

    def flush(self) -> None:
        """Wait for the checkpoint write in flight, if any; re-raise its error.

        On success emits ``checkpoint_saved`` — here, on the caller's
        thread, because this is the first moment the file is known to
        exist — with ``write_ms`` (how long the write took) and
        ``blocked_ms`` (how much of that the caller spent waiting here).
        An error is raised once; the slot is empty afterwards.
        """
        job = self._in_flight
        if job is None:
            return
        started = perf_counter()
        error = job.future.exception()  # waits for the write; never raises its error
        self._in_flight = None
        if error is not None:
            raise error
        self._report(job, blocked_seconds=perf_counter() - started)

    @staticmethod
    def _report(job: _CheckpointJob, blocked_seconds: float) -> None:
        get_event_bus().emit(
            "checkpoint_saved",
            trace_id=job.trace_id,
            run_id=job.run_id,
            round=job.round_index,
            write_ms=round(job.seconds * 1000.0, 3),
            blocked_ms=round(blocked_seconds * 1000.0, 3),
        )

    def _write(self, job: _CheckpointJob) -> None:
        """Write the job's file, then prune (on the writer thread, or inline for a direct save).

        Must not call :meth:`flush` or anything that does: the writer
        cannot wait for itself.
        """
        checkpoint, job.checkpoint = job.checkpoint, None
        started = perf_counter()
        write_checkpoint(self._checkpoint_path(job.run_id, job.round_index), checkpoint)
        if job.keep is not None:
            for stale in self._checkpoint_rounds(job.run_id)[: -job.keep]:
                self._checkpoint_path(job.run_id, stale).unlink(missing_ok=True)
        job.seconds = perf_counter() - started

    def load_checkpoint(self, run_id: str, round_index: int | None = None) -> Checkpoint:
        """Load one checkpoint (default: the latest round), fully verified.

        The file's SHA-256 trailer is checked before anything is parsed
        (:class:`~repro.store.objects.StoreCorruptionError`), then its
        schema version (:class:`~repro.store.checkpoint.CheckpointSchemaError`);
        both errors name the file.
        """
        rounds = self.checkpoint_rounds(run_id)  # flushes the write in flight
        if not rounds:
            raise ValueError(f"run {run_id} has no checkpoints")
        if round_index is None:
            round_index = rounds[-1]
        elif round_index not in rounds:
            raise ValueError(f"run {run_id} has no checkpoint for round {round_index} (has {rounds})")
        return read_checkpoint(self._checkpoint_path(run_id, round_index))

    def latest_checkpoint(self, run_id: str) -> Checkpoint | None:
        """The newest checkpoint of a run, or None when it has none."""
        if not self.checkpoint_rounds(run_id):
            return None
        return self.load_checkpoint(run_id)

    # -- helpers ------------------------------------------------------------------------
    @staticmethod
    def _read_json(path: Path, what: str) -> dict:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise StoreCorruptionError(
                f"{what} {path} is not valid JSON ({error}); the file was truncated or "
                "corrupted mid-write"
            ) from None

    def __iter__(self) -> Iterator[RunEntry]:
        return iter(self.runs())


class RunRecorder(Callback):
    """Callback that checkpoints a live run into a :class:`RunStore`.

    Hands the round's snapshot to the store on the
    :meth:`~repro.api.callbacks.Callback.on_checkpoint` hook — the last
    hook of every round, after any late evaluation — and lets the store
    write it while the next round trains; ``on_fit_end`` flushes the last
    one.  An exception or a normal exit therefore loses nothing (the
    interpreter joins the store's writer at exit and ``run_algorithm``
    flushes on the way out); a ``kill -9`` loses at most the round in flight and the one
    checkpoint being written.  A failed write is raised at the next
    hand-off or flush.  ``every`` thins the cadence (the final and
    early-stopped rounds are always persisted); ``keep`` bounds how many
    checkpoints stay on disk.
    """

    def __init__(self, store: RunStore, run_id: str, every: int = 1, keep: int | None = None):
        if every <= 0:
            raise ValueError("every must be positive")
        if keep is not None and keep < 1:
            raise ValueError("keep must be at least 1 when set")
        self.store = store
        self.run_id = run_id
        self.every = every
        self.keep = keep
        self.saved_rounds: list[int] = []
        self._start_round: int | None = None

    def on_round_start(self, algorithm: "FederatedAlgorithm", round_index: int) -> None:
        """Remember where this run() began (resumed runs start past zero)."""
        if self._start_round is None:
            self._start_round = round_index

    def on_checkpoint(self, algorithm: "FederatedAlgorithm", record: "RoundRecord") -> None:
        """Hand the algorithm's state to the store if this round is on the cadence."""
        start = self._start_round if self._start_round is not None else 0
        completed_here = record.round_index - start + 1
        is_last = algorithm.planned_rounds is not None and completed_here >= algorithm.planned_rounds
        due = completed_here % self.every == 0
        stopping = algorithm.stop_reason is not None
        if not (due or stopping or is_last):
            return
        self.store.save_checkpoint(
            self.run_id,
            algorithm.checkpoint_state(),
            keep=self.keep,
            background=True,
            trace_id=algorithm.current_trace_id,
        )
        # the driver re-fires on_checkpoint when a checkpoint callback stops
        # the run (the record gains its late evaluation); the checkpoint write
        # above overwrites by round index, so only the log needs deduping
        if not self.saved_rounds or self.saved_rounds[-1] != record.round_index:
            self.saved_rounds.append(record.round_index)

    def on_fit_end(self, algorithm: "FederatedAlgorithm", history: "TrainingHistory") -> None:
        """Wait for the last checkpoint: it is on disk (or has raised) when ``run()`` returns."""
        self.store.flush()
