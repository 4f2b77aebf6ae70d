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
weights return as a bit-exact XOR :class:`StateDelta` against that slice,
or as a lossy codec's encoding when the task carries a ``codec``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Mapping

import numpy as np

from repro.core.client import ClientRoundResult, SimulatedClient
from repro.core.config import LocalTrainingConfig
from repro.core.local_training import LocalTrainingResult, train_local_model
from repro.core.model_pool import ModelPool, SubmodelConfig
from repro.core.pruning import slice_state_dict
from repro.data.datasets import Dataset
from repro.engine.codecs import UpdateCodec, encode_client_update
from repro.engine.transport import StateHandle, encode_state_delta
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


def _upload(task, trained: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray], client_id: int):
    """What travels back: the codec's encoding of ``trained − reference`` (rounded on
    the task's own stream), or else a bit-exact XOR delta."""
    if task.codec is not None:
        return encode_client_update(
            task.codec,
            trained,
            reference,
            rng_stream=task.rng_stream,
            residual=task.codec_residual,
            client_id=client_id,
        )
    return encode_state_delta(trained, reference)


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
    #: lossy update codec (None = exact XOR delta); the trained slice
    #: uploads as an :class:`EncodedUpdate` of ``trained − reference``,
    #: rounded on the task's own stream
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
        # shapes itself; the XOR delta needs it cut when the device pruned
        # below the plan
        reference = initial_state
        if result.returned.name != self.planned_return.name:  # pragma: no cover - plan invariant
            reference = slice_state_dict(
                dict(initial_state), self.pool.architecture, self.pool.group_sizes(result.returned)
            )
        result.state = _upload(self, result.state, reference, self.client.client_id)
        return result


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
    #: lossy update codec (None = exact XOR delta)
    codec: UpdateCodec | None = None
    #: server-banked error-feedback carry for this client
    codec_residual: "Mapping[str, np.ndarray] | None" = None
    #: telemetry identity (round trace + task span); never read by run()
    trace: TraceContext | None = None

    @property
    def cost(self) -> int:
        """Parameters of the assigned submodel."""
        return self.architecture.parameter_count(self.group_sizes)

    def run(self) -> LocalTrainingResult:
        """Train the assigned submodel on the client's data (worker-side)."""
        initial_state = _resolve_state(self.initial_state, self.architecture, self.group_sizes)
        dataset = self.dataset.load() if isinstance(self.dataset, StateHandle) else self.dataset
        result = train_local_model(
            architecture=self.architecture,
            group_sizes=self.group_sizes,
            initial_state=initial_state,
            dataset=dataset,
            config=self.local_config,
            rng=self.rng(),
        )
        return dataclass_replace(result, state=_upload(self, result.state, initial_state, self.client_id))
