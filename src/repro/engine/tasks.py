"""Picklable units of per-client work dispatched through an executor.

A task bundles everything one client's local round needs — model slice,
data, hyper-parameters and a private RNG stream — so it can run anywhere:
inline (:class:`~repro.engine.serial.SerialExecutor`), on a thread, or
pickled to a worker process.  Tasks are pure: they read only their own
fields, mutate nothing shared, and derive all randomness from their
``rng_stream``, which is what guarantees bit-identical results across
executors and worker counts.

Weight transport (see :mod:`repro.engine.transport`): ``initial_state``/
``dispatched_state`` is a :class:`StateHandle` — the worker resolves it
against its per-process cache of the published global state and cuts
the submodel slice locally, so the task payload stays tiny.  The trained
slice itself is the upload (exact: a pickled float array is lossless), or
a lossy codec's encoding when the task carries a ``codec``.

Tasks with equal :meth:`ClientTask.stack_key` train one submodel from one
published state on datasets of one length; their ``run_stack`` resolves
the slice once, trains them as one stacked pass and encodes each upload on
its own, every result bit-identical to the task's own ``run``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from repro.core.client import ClientRoundResult, SimulatedClient
from repro.core.config import LocalTrainingConfig
from repro.core.local_training import LocalTrainingResult, train_local_model, train_local_models
from repro.core.model_pool import ModelPool, SubmodelConfig
from repro.core.pruning import resource_aware_prune, slice_state_dict
from repro.data.datasets import Dataset
from repro.engine.codecs import UpdateCodec, encode_client_update
from repro.engine.transport import StateHandle
from repro.nn.dtype import resolve_dtype
from repro.nn.models.spec import SlimmableArchitecture
from repro.obs.trace import TraceContext

__all__ = ["ClientTask", "LocalRoundTask", "TrainSubmodelTask"]


def _resolve_state(
    source: StateHandle,
    architecture: SlimmableArchitecture,
    group_sizes: Mapping[str, int],
) -> Mapping[str, np.ndarray]:
    """Materialise the submodel slice a task trains.

    The handle resolves to the worker-cached global state, which is
    sliced here (worker-side).
    """
    return slice_state_dict(source.load(), architecture, dict(group_sizes))


# benchmarks/e2e/tracing.py (frozen between benchmark PRs) times the exact upload
# by wrapping this name in the module's __dict__; delete together with its hook row
def encode_state_delta(trained: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """An exact upload: the trained slice itself."""
    return dict(trained)


def _upload(task, trained: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray], client_id: int):
    """What travels back: the codec's encoding of ``trained − reference`` (rounded on
    the task's own stream), or else the trained weights themselves."""
    if task.codec is not None:
        return encode_client_update(
            task.codec,
            trained,
            reference,
            rng_stream=task.rng_stream,
            residual=task.codec_residual,
            client_id=client_id,
        )
    return encode_state_delta(trained)


def _stack_key(task, architecture, group_sizes, source: StateHandle, config, dataset) -> tuple:
    """Everything tasks must share to train in lockstep from one slice."""
    return (
        type(task), architecture.signature(), tuple(sorted(group_sizes.items())), resolve_dtype(),
        source.store_id, source.version, config, len(dataset),
    )


class ClientTask(ABC):
    """One independent unit of client work executed by an :class:`Executor`."""

    #: private randomness of this task (see :mod:`repro.engine.rng`)
    rng_stream: np.random.SeedSequence
    #: relative running time (parameters trained): parallel executors start
    #: the costliest task first (:func:`repro.engine.base.map_longest_first`)
    cost: int = 0

    @abstractmethod
    def run(self) -> Any:
        """Execute the work and return its result (runs on any worker)."""

    def stack_key(self) -> Hashable | None:
        """The key under which tasks run as one stacked pass; None runs alone.

        Tasks with equal keys go to one ``run_stack(tasks)`` call of their
        class, which returns their results in order.
        """
        return None

    def rng(self) -> np.random.Generator:
        """A fresh generator over the task's stream (same bits every call)."""
        return np.random.default_rng(self.rng_stream)


@dataclass
class LocalRoundTask(ClientTask):
    """AdaptiveFL's full client round: adapt (prune) then train (Algorithm 1).

    The device-side resource adaptation runs inside the task, exactly as it
    would on a real client; the server only planned the dispatch.  The
    task carries only the *planned-return* configuration's slice (the
    weights the device actually trains — a prefix of the dispatched model,
    so slicing the global state directly to it is value-identical to
    pruning the dispatched slice on device).
    """

    client: SimulatedClient
    pool: ModelPool
    dispatched: SubmodelConfig
    dispatched_state: StateHandle
    available_capacity: float
    # required on purpose: an OS-entropy default would silently break the
    # engine's determinism guarantee
    rng_stream: np.random.SeedSequence
    #: the submodel the resource plan predicts the device trains; the
    #: worker cuts its slice of ``dispatched_state``
    planned_return: SubmodelConfig
    #: lossy update codec (None = exact upload of the trained slice); the
    #: trained slice uploads as an :class:`EncodedUpdate` of ``trained −
    #: reference``, rounded on the task's own stream
    codec: UpdateCodec | None = None
    #: server-banked error-feedback carry for this client (sliced to the
    #: dispatched shapes), added to the update before encoding
    codec_residual: "Mapping[str, np.ndarray] | None" = None
    #: telemetry identity (round trace + task span); never read by run()
    trace: TraceContext | None = None

    @property
    def cost(self) -> int:
        """Parameters of the submodel the device trains."""
        return self.planned_return.num_params

    def run(self) -> ClientRoundResult:
        """Execute the client's full local round (worker-side entry point)."""
        initial_state = _resolve_state(
            self.dispatched_state, self.pool.architecture, self.pool.group_sizes(self.planned_return)
        )
        result = self.client.local_round(
            pool=self.pool,
            dispatched=self.dispatched,
            dispatched_state=initial_state,
            available_capacity=self.available_capacity,
            rng=self.rng(),
        )
        # encode_client_update prefix-slices the reference to the trained
        # shapes itself, should the device prune below the plan
        result.state = _upload(self, result.state, initial_state, self.client.client_id)
        return result

    def stack_key(self) -> Hashable | None:
        """The device's stack key; None when it prunes below the plan (it then trains alone)."""
        adapted = resource_aware_prune(self.pool, self.dispatched, self.available_capacity)
        if adapted.name != self.planned_return.name:  # pragma: no cover - plan invariant
            return None
        return _stack_key(
            self, self.pool.architecture, self.pool.group_sizes(self.planned_return),
            self.dispatched_state, self.client.local_config, self.client.dataset,
        )

    @staticmethod
    def run_stack(tasks: Sequence["LocalRoundTask"]) -> list[ClientRoundResult]:
        """Devices of one stack key, which all train their planned return, as one pass."""
        first = tasks[0]
        architecture, group_sizes = first.pool.architecture, first.pool.group_sizes(first.planned_return)
        initial_state = _resolve_state(first.dispatched_state, architecture, group_sizes)
        trained = train_local_models(
            architecture, group_sizes, initial_state, [task.client.dataset for task in tasks],
            first.client.local_config, [task.rng() for task in tasks],
        )
        return [
            dataclass_replace(
                task.client.round_result(task.dispatched, task.planned_return, result),
                state=_upload(task, result.state, initial_state, task.client.client_id),
            )
            for task, result in zip(tasks, trained)
        ]


@dataclass
class TrainSubmodelTask(ClientTask):
    """A baseline's client round: train a fixed submodel slice on local data."""

    architecture: SlimmableArchitecture
    group_sizes: Mapping[str, int]
    initial_state: StateHandle
    dataset: "Dataset | StateHandle"
    local_config: LocalTrainingConfig
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

    def run(self) -> LocalTrainingResult:
        """Train the assigned submodel on the client's data (worker-side)."""
        initial_state = _resolve_state(self.initial_state, self.architecture, self.group_sizes)
        result = train_local_model(
            architecture=self.architecture,
            group_sizes=self.group_sizes,
            initial_state=initial_state,
            dataset=self.local_dataset(),
            config=self.local_config,
            rng=self.rng(),
        )
        return dataclass_replace(result, state=_upload(self, result.state, initial_state, self.client_id))

    def stack_key(self) -> Hashable:
        """Equal for clients of one submodel, published state, config and data length."""
        return _stack_key(
            self, self.architecture, self.group_sizes, self.initial_state, self.local_config, self.local_dataset()
        )

    @staticmethod
    def run_stack(tasks: Sequence["TrainSubmodelTask"]) -> list[LocalTrainingResult]:
        """Clients of one stack key as one pass."""
        first = tasks[0]
        initial_state = _resolve_state(first.initial_state, first.architecture, first.group_sizes)
        trained = train_local_models(
            first.architecture, first.group_sizes, initial_state, [task.local_dataset() for task in tasks],
            first.local_config, [task.rng() for task in tasks],
        )
        return [
            dataclass_replace(result, state=_upload(task, result.state, initial_state, task.client_id))
            for task, result in zip(tasks, trained)
        ]
