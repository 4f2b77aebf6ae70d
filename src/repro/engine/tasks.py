"""Picklable units of per-client work dispatched through an executor.

A task bundles everything one client's local round needs — model slice,
data, hyper-parameters and a private RNG stream — so it can run anywhere:
inline (:class:`~repro.engine.executors.SerialExecutor`), on a thread, or
pickled to a worker process.  Tasks are pure: they read only their own
fields, mutate nothing shared, and derive all randomness from their
``rng_stream``, which is what guarantees bit-identical results across
executors and worker counts.

Weight transport (see :mod:`repro.engine.transport`): ``initial_state`` is
a :class:`StateHandle` — the worker resolves it against its per-process
cache of the published global state and cuts the submodel slice locally,
so the task payload stays tiny.  The trained slice itself is the upload
(exact: a pickled float array is lossless), or a lossy codec's encoding
when the task carries a ``codec``.  An exact upload is the task's row of
its pass's :class:`~repro.core.aggregation.UploadStack`, which the server
checks and weights once per stack; it pickles as a plain dict.

Tasks with equal :meth:`ClientTask.stack_key` train one submodel from one
published state on datasets of one length; their ``run_stack`` resolves
the slice once, trains them as one stacked pass and encodes each upload on
its own, every result bit-identical to the task's own ``run``.

Stacks are work, not executor policy: :func:`map_stacked` hands every
executor — serial, pool or remote — one :class:`StackTask` per piece of a
stack, one pickle to a process worker and one frame on the wire.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace as dataclass_replace
from itertools import chain
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from repro.core.config import LocalTrainingConfig
from repro.core.local_training import LocalTrainingResult, train_local_model, train_local_models
from repro.core.pruning import slice_state_dict
from repro.data.datasets import Dataset
from repro.engine.base import Executor
from repro.engine.codecs import UpdateCodec, encode_client_update
from repro.engine.transport import StateHandle
from repro.nn.dtype import resolve_dtype
from repro.nn.models.spec import SlimmableArchitecture
from repro.obs.trace import TraceContext

__all__ = ["ClientTask", "StackTask", "TrainSubmodelTask", "map_stacked"]


# benchmarks/e2e/tracing.py (frozen between benchmark PRs) times the exact upload
# by wrapping this name in the module's __dict__; delete together with its hook row
def encode_state_delta(trained: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """An exact upload: the trained slice itself (a stacked pass's row stays one)."""
    return trained


class ClientTask(ABC):
    """One independent unit of client work executed by an :class:`Executor`."""

    #: private randomness of this task (see :mod:`repro.engine.rng`)
    rng_stream: np.random.SeedSequence
    #: relative running time (parameters trained): pool executors start the
    #: costliest work first (:func:`repro.engine.base.map_longest_first`)
    cost: int = 0

    @abstractmethod
    def run(self) -> Any:
        """Execute the work and return its result (runs on any worker)."""

    def stack_key(self) -> Hashable | None:
        """The key under which tasks run as one stacked pass; None runs alone.

        Tasks with equal keys form a stack; each piece of it
        (:func:`map_stacked`) goes to one ``run_stack(tasks)`` call of their
        class, which returns their results in order.
        """
        return None

    def rng(self) -> np.random.Generator:
        """A fresh generator over the task's stream (same bits every call)."""
        return np.random.default_rng(self.rng_stream)


@dataclass
class TrainSubmodelTask(ClientTask):
    """One client's local round: train a fixed submodel slice on local data.

    Every algorithm's round builds these (AdaptiveFL's device-side pruning
    is already resolved into ``group_sizes`` when the round is planned).
    """

    architecture: SlimmableArchitecture
    group_sizes: Mapping[str, int]
    initial_state: StateHandle
    dataset: "Dataset | StateHandle"
    local_config: LocalTrainingConfig
    # required on purpose: an OS-entropy default would silently break the
    # engine's determinism guarantee
    rng_stream: np.random.SeedSequence
    client_id: int = -1
    #: lossy update codec (None = exact upload of the trained slice)
    codec: UpdateCodec | None = None
    #: server-banked error-feedback carry for this client
    codec_residual: "Mapping[str, np.ndarray] | None" = None
    #: telemetry identity (round trace + task span); never read by run()
    trace: TraceContext | None = None

    @property
    def cost(self) -> int:
        """Parameters of the assigned submodel."""
        return self.architecture.parameter_count(self.group_sizes)

    def local_dataset(self) -> Dataset:
        """The client's data (a published handle resolves against the worker cache)."""
        return self.dataset.load() if isinstance(self.dataset, StateHandle) else self.dataset

    def _initial_slice(self) -> dict[str, np.ndarray]:
        """The slice this task trains, cut from the worker-cached published state."""
        return slice_state_dict(self.initial_state.load(), self.architecture, dict(self.group_sizes))

    def _upload(self, trained: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray]):
        """What travels back: the codec's encoding of ``trained − reference`` (rounded on
        the task's own stream), or else the trained weights themselves."""
        if self.codec is not None:
            return encode_client_update(
                self.codec,
                trained,
                reference,
                rng_stream=self.rng_stream,
                residual=self.codec_residual,
                client_id=self.client_id,
                buffers=self.architecture.buffer_names(),
            )
        return encode_state_delta(trained)

    def run(self) -> LocalTrainingResult:
        """Train the assigned submodel on the client's data (worker-side)."""
        initial_state = self._initial_slice()
        result = train_local_model(
            architecture=self.architecture,
            group_sizes=self.group_sizes,
            initial_state=initial_state,
            dataset=self.local_dataset(),
            config=self.local_config,
            rng=self.rng(),
        )
        return dataclass_replace(result, state=self._upload(result.state, initial_state))

    def stack_key(self) -> Hashable:
        """Equal for clients of one submodel, published state, config and data length."""
        return (
            type(self), self.architecture.signature(), tuple(sorted(self.group_sizes.items())), resolve_dtype(),
            self.initial_state.store_id, self.initial_state.version, self.local_config, len(self.local_dataset()),
        )

    @staticmethod
    def run_stack(tasks: Sequence["TrainSubmodelTask"]) -> list[LocalTrainingResult]:
        """Clients of one stack key as one pass."""
        first = tasks[0]
        initial_state = first._initial_slice()
        trained = train_local_models(
            first.architecture, first.group_sizes, initial_state, [task.local_dataset() for task in tasks],
            first.local_config, [task.rng() for task in tasks],
        )
        return [
            dataclass_replace(result, state=task._upload(result.state, initial_state))
            for task, result in zip(tasks, trained)
        ]


# benchmarks/e2e/tracing.py (frozen between benchmark PRs) wraps ``run`` under
# this name too; delete together with its hook row
LocalRoundTask = TrainSubmodelTask


@dataclass
class StackTask(ClientTask):
    """One piece of a stack: member tasks of one ``stack_key()``, run as one unit.

    Members share a round, so the piece's ``rng_stream`` (a worker reads the
    round from it) and ``trace`` (a wire dispatch carries it) are the first
    member's; members train one submodel, so it costs K times the first.
    """

    tasks: list[ClientTask]

    rng_stream = property(lambda self: self.tasks[0].rng_stream)
    trace = property(lambda self: getattr(self.tasks[0], "trace", None))
    cost = property(lambda self: len(self.tasks) * self.tasks[0].cost)

    def run(self) -> list[Any]:
        """The members' results in order: one member through its own ``run``,
        more through one ``run_stack`` call of their class."""
        return type(self.tasks[0]).run_stack(self.tasks) if len(self.tasks) > 1 else [self.tasks[0].run()]


def map_stacked(executor: Executor, tasks: Sequence[ClientTask]) -> list[Any]:
    """Every task's result in submission order, each task run in a piece of its stack.

    Tasks with an equal ``stack_key()`` that is not None form a stack; with
    W = ``executor.effective_workers`` a stack of K splits into ``min(K, W)``
    contiguous pieces whose sizes differ by at most one, and ``executor.map``
    runs one :class:`StackTask` per piece.
    """
    stacks: dict[Hashable, list[int]] = {}
    for index, task in enumerate(tasks):
        key = task.stack_key()
        stacks.setdefault(object() if key is None else key, []).append(index)
    workers, pieces = executor.effective_workers, []
    for members in stacks.values():
        count = min(len(members), workers)
        pieces += [members[len(members) * part // count : len(members) * (part + 1) // count] for part in range(count)]
    outcomes = executor.map([StackTask([tasks[index] for index in piece]) for piece in pieces])
    by_index = dict(zip(chain.from_iterable(pieces), chain.from_iterable(outcomes)))
    return [by_index[index] for index in range(len(tasks))]
