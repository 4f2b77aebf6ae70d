"""Shared federated-training scaffolding for AdaptiveFL and the baselines.

Every algorithm here follows the same synchronous protocol — select
participants, dispatch weights, train locally, aggregate, evaluate — and
differs only in the first step.  :meth:`FederatedAlgorithm.run_round` is
the one round body; a subclass implements
:meth:`~FederatedAlgorithm.plan_round`, which says who trains which
submodel of which weight stream as a :class:`RoundPlan` of equal-length
columns.  The round asks the fleet which slots will arrive
(:meth:`~FederatedAlgorithm.plan_round_outcome`), publishes each weight
stream once, builds one task per arriving slot
(:meth:`~FederatedAlgorithm.make_task`), fans the tasks out across the
configured :class:`~repro.engine.base.Executor` with bit-identical results
for every executor choice, folds the uploads
(:meth:`~FederatedAlgorithm.fold_round`) and writes the
:class:`~repro.core.history.RoundRecord`.

When a :mod:`repro.sim` scenario is active (``federated_config.scenario``
or the ``scenario=`` argument; ``paper_testbed`` is the paper's §4.5
test-bed clock), :meth:`dispatch_count` adds its
over-selection margin, :meth:`selectable_mask` restricts selection to
reachable devices, :meth:`plan_round_outcome` exchanges one columnar
:class:`~repro.sim.fleet.DispatchBatch` for one
:class:`~repro.sim.fleet.RoundOutcome` before training fans out, and
:meth:`finalize_round` records wall-clock, arrivals, drops and bytes.
:meth:`run` drives the :class:`repro.api.callbacks.Callback` protocol and
honours :meth:`request_stop`.
"""

from __future__ import annotations

from abc import ABC
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.api.callbacks import Callback, CallbackList, ProgressCallback
from repro.core.aggregation import ClientUpdate, HeterogeneousAggregator, StackRow
from repro.core.config import FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.client import LazyClients, SimulatedClient
from repro.core.history import RoundRecord, TrainingHistory
from repro.core.metrics import communication_waste_rate, evaluate_heads
from repro.engine.base import Executor
from repro.engine.codecs import (
    EncodedUpdate,
    NonFiniteUpdateError,
    ResidualBank,
    UpdateCodec,
    apply_encoded_update,
    get_codec,
    inflate_ahead,
)
from repro.engine.factory import create_executor
from repro.engine.rng import client_stream
from repro.engine.tasks import ClientTask, TrainSubmodelTask, map_stacked
from repro.engine.transport import StateHandle, StateStore, state_nbytes
from repro.obs.events import get_event_bus
from repro.obs.metrics import registry as obs_registry
from repro.obs.trace import TraceContext, new_span_id, new_trace_id
from repro.obs.clock import monotonic
from repro.perf.profiler import Profiler
from repro.perf.workspace import reset_workspace_stats, workspace_stats
from repro.core.model_pool import ModelPool
from repro.data.datasets import Dataset
from repro.data.partition import ClientPartition
from repro.devices.profiles import DeviceProfile
from repro.devices.resources import ResourceModel
from repro.nn.dtype import resolve_dtype
from repro.nn.models.spec import SlimmableArchitecture
from repro.perf.flops import count_flops

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    # imported lazily at runtime: repro.sim.scenario pulls in
    # repro.core.serialization, so a module-level import here would make
    # `import repro.sim` (before repro.core is initialised) circular
    from repro.sim.fleet import FleetSimulator, RoundOutcome
    from repro.sim.scenario import ScenarioSpec
    from repro.store.checkpoint import Checkpoint, StatePart

__all__ = ["FederatedAlgorithm", "RoundPlan"]


@dataclass
class RoundPlan:
    """Who trains what this round: equal-length columns, one entry per dispatched slot."""

    clients: list[int]
    #: pool-entry names sent / expected back (what the record and the fleet clock read)
    dispatched: list[str]
    returned: list[str]
    #: their parameter counts (communication waste, modeled downlink)
    sent_params: list[int]
    back_params: list[int]
    #: channel-group sizes of the submodel each slot trains
    group_sizes: list[Mapping[str, int]]
    #: the weight stream (a key of ``round_streams()``) each slot reads
    streams: list[str]


def _check_upload_layout(
    uploaded, shapes: Mapping[str, tuple[int, ...]], source_state: Mapping[str, np.ndarray]
) -> None:
    """Refuse an upload whose tensors are not exactly ``shapes`` in the source's dtypes.

    Raises ``ValueError`` naming the first missing, extra, misshapen or
    mistyped tensor, with the expected and the received layout.  A row of
    a stack is checked with its whole stack, once per slice and source.
    """
    if isinstance(uploaded, StackRow):
        stack = uploaded.stack
        checked = stack.checked_against
        if checked is not None and checked[0] is shapes and checked[1] is source_state:
            return
        received = {name: (tensor.shape[1:], tensor.dtype) for name, tensor in stack.tensors.items()}
    elif isinstance(uploaded, EncodedUpdate):
        received = {name: (tuple(uploaded.shapes[name]), np.dtype(uploaded.dtypes[name])) for name in uploaded.blobs}
    else:
        received = {name: (np.shape(value), np.asarray(value).dtype) for name, value in uploaded.items()}

    def describe(layout) -> str:
        return "no tensor" if layout is None else f"shape {layout[0]} dtype {layout[1]}"

    for name, shape in shapes.items():
        expected = (shape, np.asarray(source_state[name]).dtype)
        got = received.pop(name, None)
        if got != expected:
            raise ValueError(f"upload tensor {name!r}: expected {describe(expected)}, received {describe(got)}")
    for name, got in received.items():
        raise ValueError(f"upload tensor {name!r}: expected {describe(None)}, received {describe(got)}")
    if isinstance(uploaded, StackRow):
        uploaded.stack.checked_against = (shapes, source_state)


class FederatedAlgorithm(ABC):
    """Base class of every federated algorithm in the repository."""

    #: short identifier ("adaptivefl", "all_large", "heterofl", ...)
    name: str = "federated"

    def __init__(
        self,
        architecture: SlimmableArchitecture,
        train_dataset: Dataset,
        partition: ClientPartition,
        test_dataset: Dataset,
        profiles: list[DeviceProfile],
        federated_config: FederatedConfig,
        local_config: LocalTrainingConfig,
        pool_config: ModelPoolConfig | None = None,
        resource_model: ResourceModel | None = None,
        scenario: "ScenarioSpec | str | None" = None,
        seed: int = 0,
    ):
        if partition.num_clients != len(profiles):
            raise ValueError("partition and device profiles must cover the same number of clients")
        if federated_config.clients_per_round > partition.num_clients:
            raise ValueError("clients_per_round cannot exceed the number of clients")
        self.architecture = architecture
        self.train_dataset = train_dataset
        self.partition = partition
        self.test_dataset = test_dataset
        self.profiles = list(profiles)
        self.federated_config = federated_config
        self.local_config = local_config
        self.pool = ModelPool(architecture, pool_config or ModelPoolConfig())
        self.resource_model = resource_model or ResourceModel(
            self.profiles, architecture.parameter_count(), uncertainty=0.0, seed=seed
        )
        self.seed = seed
        self.rng = np.random.default_rng(seed)

        # -- fleet simulation (repro.sim): an explicit `scenario=` argument wins,
        # otherwise the federated config's scenario name applies; each algorithm
        # owns its fleet because fleets are stateful (batteries, availability)
        from repro.sim.fleet import FleetSimulator
        from repro.sim.scenario import get_scenario

        if scenario is None:
            scenario = federated_config.scenario
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        self.scenario: "ScenarioSpec | None" = scenario
        self.fleet: "FleetSimulator | None" = (
            FleetSimulator(scenario, num_clients=partition.num_clients, seed=seed)
            if scenario is not None
            else None
        )

        #: local data sizes, known without cutting any shard (planning reads these)
        self._client_sizes = partition.sizes()
        if 0 in self._client_sizes:
            raise ValueError(f"client {self._client_sizes.index(0)} has no local data")
        self.clients: Sequence[SimulatedClient] = LazyClients(
            lambda index: SimulatedClient(
                client_id=index,
                dataset=partition.client_dataset(train_dataset, index),
                profile=profiles[index],
                local_config=local_config,
            ),
            partition.num_clients,
        )
        self.global_state = architecture.build(rng=np.random.default_rng(seed)).state_dict()
        self.history = TrainingHistory(self.name)
        self._executor: Executor | None = None
        self._owns_executor = False
        self._flops_cache: dict[str, int] = {}
        #: tensor shapes of each submodel slice uploads arrive as, by sorted group sizes
        self._slice_shape_cache: dict[tuple, dict[str, tuple[int, ...]]] = {}
        #: phase-grained scoped timers + transport/workspace counters
        #: (disabled unless run(profile=True) / CLI --profile enables it)
        self.profiler = Profiler(enabled=False)
        #: reused accumulation buffers for heterogeneous aggregation
        self._aggregator = HeterogeneousAggregator()
        #: lossy update codec layered on the transport ("none" resolves to
        #: None so the exact upload path stays byte-for-byte untouched)
        self._codec: UpdateCodec | None = (
            get_codec(federated_config.transport_codec)
            if federated_config.transport_codec != "none"
            else None
        )
        #: per-client error-feedback residuals of the lossy codec (None = exact
        #: transport); the model's running statistics carry none
        self._residuals = None
        if self._codec is not None:
            buffers = architecture.buffer_names()
            carried = {name: value for name, value in self.global_state.items() if name not in buffers}
            self._residuals = ResidualBank(self._codec, carried)
        #: true wire-byte accounting of the round in flight (reset by
        #: :meth:`finalize_round`); encoded sizes, never nominal ones
        self._round_bytes_up = 0
        self._round_raw_bytes_up = 0
        self._round_bytes_down = 0
        #: one publisher per logical weight stream
        self._state_stores: dict[str, StateStore] = {}
        #: one-time published per-client datasets: workers
        #: cache them across rounds, so dispatching never re-ships data
        self._dataset_handles: dict[int, StateHandle] = {}
        #: built eval networks per group-size configuration (weights are
        #: reloaded per evaluation; construction happens once)
        self._eval_model_cache: dict = {}
        #: total rounds of the active run() (read by progress callbacks)
        self.planned_rounds: int | None = None
        self._stop_reason: str | None = None
        #: telemetry identity of the round in flight ("" outside run())
        self.current_trace_id: str = ""

    # -- the round ---------------------------------------------------------------------
    def plan_round(self, round_index: int, rng: np.random.Generator) -> RoundPlan:
        """Choose this round's clients and submodels (the one step algorithms differ in).

        ``rng`` is the round's generator (:meth:`round_rng`); everything
        the plan draws comes from it.  Not enforced at construction: a
        subclass may replace :meth:`run_round` whole instead.
        """
        raise NotImplementedError(f"{type(self).__name__} must implement plan_round (or override run_round)")

    def round_streams(self) -> Mapping[str, Mapping[str, np.ndarray]]:
        """The weight streams published each round, by the name ``RoundPlan.streams`` uses."""
        return {"global": self.global_state}

    def make_task(
        self,
        round_index: int,
        plan: RoundPlan,
        slot: int,
        source: StateHandle,
    ) -> ClientTask:
        """The task of one slot that will be aggregated: train its submodel of ``source``.

        ``source`` is the slot's published stream: the worker cuts the
        slice and uploads the trained slice itself.
        """
        client_id, group_sizes = plan.clients[slot], plan.group_sizes[slot]
        self.count_downlink(plan.back_params[slot] * np.dtype(resolve_dtype()).itemsize)
        residuals = self._residuals
        carry = None if residuals is None else residuals.carry_for(client_id, self._slice_shapes(group_sizes))
        return TrainSubmodelTask(
            architecture=self.architecture,
            group_sizes=group_sizes,
            initial_state=source,
            dataset=self.client_dataset_source(client_id),
            local_config=self.local_config,
            client_id=client_id,
            rng_stream=self.client_stream(round_index, client_id),
            codec=self._codec,
            codec_residual=carry,
            trace=self.task_trace(),
        )

    def fold_round(
        self, plan: RoundPlan, keep: Sequence[int], results: Sequence
    ) -> dict[int, NonFiniteUpdateError]:
        """Fold ``results`` (of slots ``keep``, in order) into the weights; returns the refused slots."""
        refused = self.fold_results(results, [plan.group_sizes[slot] for slot in keep])
        return {keep[position]: error for position, error in refused.items()}

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one federated round and return its (unevaluated) record.

        Plan, then ask the fleet which slots arrive — every duration and
        dropout is a pure function of ``(seed, round, client)``, so this
        resolves before any training runs and training fans out only for
        the uploads that will be aggregated.  Waste counts every dispatch:
        a dropped or late client's downlinked model returns nothing, which
        is exactly what the paper's §4.4 rate measures.  An upload refused
        as non-finite (:meth:`decode_result_state`) is treated the same:
        no weight in the aggregate or the loss, listed in
        ``dropped_clients``, one ``update_rejected`` event.
        """
        plan = self.plan_round(round_index, self.round_rng(round_index))
        outcome = self.plan_round_outcome(round_index, plan.clients, plan.dispatched, plan.returned)
        keep = list(outcome.aggregated_positions()) if outcome is not None else list(range(len(plan.clients)))
        sources = {stream: self.publish_state(state, stream=stream) for stream, state in self.round_streams().items()}
        tasks = [self.make_task(round_index, plan, slot, sources[plan.streams[slot]]) for slot in keep]
        with self.profiler.scope("round.training"):
            results = self.execute_client_tasks(tasks)
        refused = self.fold_round(plan, keep, results)

        losses = [result.mean_loss for slot, result in zip(keep, results) if slot not in refused]
        aggregated = set(keep).difference(refused)
        back = [size if slot in aggregated else 0 for slot, size in enumerate(plan.back_params)]
        record = RoundRecord(
            round_index=round_index,
            train_loss=float(np.mean(losses)) if losses else None,
            communication_waste=communication_waste_rate(plan.sent_params, back) if plan.clients else None,
            dispatched=plan.dispatched,
            returned=plan.returned,
            selected_clients=plan.clients,
        )
        self.finalize_round(record, outcome)
        for slot, error in refused.items():
            record.dropped_clients.append(plan.clients[slot])
            get_event_bus().emit(
                "update_rejected",
                trace_id=self.current_trace_id,
                round=round_index,
                client=plan.clients[slot],
                tensor=error.tensor,
            )
        return record

    # -- helpers ------------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def round_rng(self, round_index: int) -> np.random.Generator:
        """Deterministic per-round RNG, independent of evaluation cadence."""
        return np.random.default_rng((self.seed, round_index))

    def client_stream(self, round_index: int, client_id: int) -> np.random.SeedSequence:
        """The private RNG stream of one client's work in one round.

        Streams are keyed on (seed, round, client), so a client's local
        training is bit-identical no matter which executor, worker or
        execution order runs it.
        """
        return client_stream(self.seed, round_index, client_id)

    def task_trace(self) -> TraceContext:
        """Mint the telemetry identity one dispatched task carries.

        The trace id is the round's (set by :meth:`run` before
        ``run_round`` fires); the span id is fresh per task.  Identity
        only — never read by task ``run()`` and never entering results —
        so minting it unconditionally cannot perturb determinism.
        """
        return TraceContext(trace_id=self.current_trace_id, span_id=new_span_id())

    # -- parallel client execution --------------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The client-execution engine (lazily built from the federated config)."""
        if self._executor is None:
            self._executor = create_executor(
                self.federated_config.executor, self.federated_config.max_workers
            )
            self._owns_executor = True
        return self._executor

    def set_executor(self, executor: Executor | None) -> None:
        """Inject a pre-built executor (tests, benchmarks, latency wrappers).

        The caller keeps ownership: the algorithm will use the executor but
        never shut it down — :meth:`close` and the end of :meth:`run` leave
        it attached and alive.  Pass ``None`` to drop an injected executor
        and fall back to the config-built one.
        """
        self.close()
        self._executor = executor
        self._owns_executor = False

    def close(self) -> None:
        """Release the config-built executor's worker pools (idempotent).

        Called at the end of every :meth:`run`; a later run lazily rebuilds
        the executor from the same config.  Injected executors
        (:meth:`set_executor`) belong to their caller and are left running.
        """
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown()
            self._executor = None
            self._owns_executor = False
        for store in self._state_stores.values():
            store.close()
        # spill files are gone: force a fresh publish on the next run
        self._dataset_handles.clear()

    def execute_client_tasks(self, tasks: Sequence[ClientTask]) -> list:
        """Fan per-client tasks out through the executor as stack pieces (order-preserving)."""
        return map_stacked(self.executor, tasks)

    # -- weight transport (repro.engine.transport) ---------------------------------------
    def publish_state(self, state: Mapping[str, np.ndarray], stream: str = "global") -> StateHandle:
        """Publish this round's weights of one stream for the client tasks."""
        store = self._state_store(stream)
        handle = store.publish(state, spill=self.executor.is_interprocess, keep_bytes=True)
        # rounds are synchronous (map() returns only when every task did),
        # so once a new version is out nothing can reference versions more
        # than one behind; keep that one-version straggler window and
        # release the rest instead of unlinking at publish time
        store.release_below(store.version - 1)
        if self.profiler.enabled:
            self.profiler.count("transport.publishes")
            if handle.path is not None:
                self.profiler.count("transport.spilled_bytes", state_nbytes(state))
        return handle

    def _state_store(self, stream: str) -> StateStore:
        """The publisher of one stream, built on first use."""
        store = self._state_stores.get(stream)
        if store is None:
            store = self._state_stores[stream] = StateStore(label=f"{self.name}-{stream}")
        return store

    def count_downlink(self, num_bytes: int) -> None:
        """Account one client's downlink: the submodel slice it receives.

        The *modeled* downlink: the wire carries only a tiny handle, and
        the slice — parameters × itemsize, batch-norm statistics excluded
        — is what a real deployment would send.
        """
        self._round_bytes_down += num_bytes
        if self.profiler.enabled:
            self.profiler.count("transport.bytes_down", num_bytes)

    def decode_result_state(
        self,
        uploaded,
        group_sizes: Mapping[str, int],
        source_state: Mapping[str, np.ndarray],
        inflated: "Future[dict[str, bytes]] | None" = None,
    ) -> Mapping[str, np.ndarray]:
        """Resolve an upload (the trained slice itself, or a codec payload) into plain weights.

        An upload whose tensor names, shapes or dtypes are not exactly
        those of the ``group_sizes`` slice raises ``ValueError`` naming the
        tensor, before any arithmetic.  Both branches account the upload's
        *actual* wire size on the round accumulators — for an
        :class:`EncodedUpdate` that is the compressed blob length, so lossy
        payloads are never overstated.  An exact upload is returned as is;
        an encoded one decodes against the same reference slice the worker
        trained from.  With ``inflated`` (see :meth:`fold_results`) its
        weights are rebuilt in the open aggregation round's scratch, valid
        until the next decode; without, the caller owns them.

        This is where an upload becomes weights, so it is where one that
        is not a number stops: decoded weights holding NaN or ±inf raise
        :class:`~repro.engine.codecs.NonFiniteUpdateError` naming the
        tensor — after the bytes are counted (they crossed the wire),
        before the client's error-feedback residual is banked.  One
        ``isfinite`` pass per tensor: ≈ 22 µs per 120k-parameter upload,
        ≈ 0.17 ms per 584k-parameter one.  A row of an
        :class:`~repro.core.aggregation.UploadStack` shares its stack's
        layout check and ``isfinite`` passes, made by its first row; only
        a tensor whose stack fails is checked row by row, so the refusal
        still names this client's tensor and its stack mates still fold.
        """
        shapes = self._slice_shapes(group_sizes)
        _check_upload_layout(uploaded, shapes, source_state)
        if isinstance(uploaded, EncodedUpdate):
            nbytes = uploaded.nbytes
            self._round_raw_bytes_up += uploaded.raw_nbytes
            # views, not slice_state_dict's copies: the reference is only read
            reference = {
                name: np.asarray(source_state[name])[tuple(slice(0, n) for n in shape)]
                for name, shape in shapes.items()
            }
            if inflated is None:
                state = apply_encoded_update(uploaded, reference)
            else:
                state = apply_encoded_update(
                    uploaded, reference, self._aggregator.scratch_for, inflated.result()
                )
        else:
            nbytes = uploaded.stack.row_nbytes if isinstance(uploaded, StackRow) else state_nbytes(uploaded)
            state = uploaded
        self._round_bytes_up += nbytes
        if self.profiler.enabled:
            self.profiler.count("transport.bytes_up", nbytes)
        # a row of a stack is only looked at where its stack is not finite
        suspects = uploaded.stack.nonfinite() if isinstance(uploaded, StackRow) else state
        for name in suspects:
            value = np.asarray(state[name])
            if value.dtype.kind == "f" and not np.isfinite(value).all():
                raise NonFiniteUpdateError(f"decoded upload holds NaN or ±inf in tensor {name!r}", tensor=name)
        if isinstance(uploaded, EncodedUpdate) and self._residuals is not None:
            self._residuals.bank(uploaded)
        return state

    def _slice_shapes(self, group_sizes: Mapping[str, int]) -> dict[str, tuple[int, ...]]:
        """Every tensor's shape in the ``group_sizes`` slice (cached per group sizes)."""
        key = tuple(sorted(group_sizes.items()))
        shapes = self._slice_shape_cache.get(key)
        if shapes is None:
            shapes = self._slice_shape_cache[key] = {
                spec.name: self.architecture.param_shape_for(spec, group_sizes)
                for spec in self.architecture.param_specs()
            }
        return shapes

    def aggregate(self, updates: "Iterable[ClientUpdate]") -> dict[str, np.ndarray]:
        """Heterogeneous aggregation into reused accumulation buffers.

        ``updates`` may be a generator: uploads are decoded, accumulated
        into the reused partial-sum buffers and released one at a time,
        so peak memory never holds every client delta at once.
        """
        with self.profiler.scope("round.aggregate"):
            return self._aggregator.aggregate(self.global_state, updates)

    def fold_results(
        self, results: Sequence, group_sizes: Sequence[Mapping[str, int]]
    ) -> dict[int, NonFiniteUpdateError]:
        """Decode each result's upload (``group_sizes[i]`` is what ``results[i]`` trained) and aggregate.

        A generator feeds :meth:`aggregate`, so a decoded upload exists only
        while it is folded; an encoded one is rebuilt in the aggregator's
        scratch while a helper thread, alive for this call, inflates the next.
        An upload :meth:`decode_result_state` refuses is left out; the
        refusals come back keyed by position in ``results``.
        """
        refused: dict[int, NonFiniteUpdateError] = {}
        if not results:
            return refused

        def decoded(inflated):
            for position, (result, sizes, codes) in enumerate(zip(results, group_sizes, inflated)):
                try:
                    state = self.decode_result_state(result.state, sizes, self.global_state, codes)
                except NonFiniteUpdateError as error:
                    refused[position] = error
                else:
                    yield ClientUpdate(state, result.num_samples)

        with closing(inflate_ahead([result.state for result in results])) as inflated:
            self.global_state = self.aggregate(decoded(inflated))
        return refused

    def client_dataset_source(self, client_id: int) -> StateHandle:
        """The dataset reference a client task should carry.

        Each client's local data is published once and referenced by
        handle ever after (workers cache it across rounds).
        """
        spill = self.executor.is_interprocess
        handle = self._dataset_handles.get(client_id)
        if handle is None or (spill and handle.path is None):
            handle = self._state_store(f"dataset-{client_id}").publish(self.clients[client_id].dataset, spill=spill)
            self._dataset_handles[client_id] = handle
            if self.profiler.enabled and spill:
                self.profiler.count("transport.dataset_spills")
        return handle

    def client_capacity(self, client_id: int, round_index: int) -> float:
        """The client's available resources this round.

        Conceptually device-side information: the *real* server never
        observes it, and no algorithm may use it to steer selection.  The
        simulation reads it in one place, which stands in for the device:
        AdaptiveFL's planning runs each selected device's resource-aware
        pruning on it (Algorithm 1, Step 4), and the outcome is the
        submodel that device trains and the ⟨dispatched, returned⟩ pair
        the RL tables learn from.
        """
        return self.resource_model.available_capacity(client_id, round_index)

    def level_group_sizes(self) -> dict[str, dict[str, int]]:
        """Channel sizes of the per-level heads (S1 / M1 / L1) used for "avg"."""
        return {level: self.pool.group_sizes(cfg) for level, cfg in self.pool.level_heads().items()}

    def submodel_flops(self, config_name: str) -> int:
        """Per-sample MACs of a pool entry (cached; the fleet clock reads it)."""
        if config_name not in self._flops_cache:
            config = self.pool.by_name(config_name)
            model = self.architecture.build(self.pool.group_sizes(config), rng=np.random.default_rng(0))
            self._flops_cache[config_name] = count_flops(model, self.architecture.input_shape).flops
        return self._flops_cache[config_name]

    # -- fleet simulation (scenario-conditioned rounds) -----------------------------------
    def dispatch_count(self) -> int:
        """How many clients the server dispatches to this round.

        ``clients_per_round`` plus the scenario's over-selection margin
        (extra dispatches whose updates hedge against dropouts and
        deadline misses), capped at the fleet size.
        """
        base = min(self.federated_config.clients_per_round, self.num_clients)
        if self.fleet is None:
            return base
        return min(base + self.fleet.spec.over_selection, self.num_clients)

    def selectable_clients(self, round_index: int) -> list[int] | None:
        """Clients reachable at the start of the round (None = everyone).

        Unused under ``src/``; ``benchmarks/e2e/tracing.py`` (frozen between
        benchmark PRs) wraps it by name.
        """
        if self.fleet is None:
            return None
        return np.flatnonzero(self.fleet.available_mask(round_index)).tolist()

    def selectable_mask(self, round_index: int) -> "np.ndarray | None":
        """Boolean reachability mask (None = everyone reachable).

        O(N) vector work, no Python list — what every selection path
        consumes.
        """
        if self.fleet is None:
            return None
        return self.fleet.available_mask(round_index)

    def plan_round_outcome(
        self,
        round_index: int,
        selected_clients: Sequence[int],
        dispatched_names: Sequence[str],
        returned_names: Sequence[str],
    ) -> "RoundOutcome | None":
        """Simulate the round's system dynamics before any training runs.

        Because every duration, dropout and arrival is a pure function of
        ``(seed, round, client)``, the fate of each dispatched client is
        known *before* local training executes — so training fans out only
        for the updates that will actually join aggregation, and results
        are bit-identical across executors.
        """
        if self.fleet is None:
            return None
        from repro.sim.fleet import DispatchBatch

        params_up = [self.pool.by_name(name).num_params for name in returned_names]
        if self._codec is not None and self._codec.nominal_bytes_per_param != 4.0:
            # a lossy codec shrinks the modeled uplink: the fleet clock (and any
            # byte-budget admission) must see the compressed transfer, so the
            # nominal per-param rate scales params_up for the simulator
            uplink_scale = self._codec.nominal_bytes_per_param / 4.0
            params_up = [max(1, int(round(params * uplink_scale))) for params in params_up]
        batch = DispatchBatch(
            client_ids=selected_clients,
            params_down=[self.pool.by_name(name).num_params for name in dispatched_names],
            params_up=params_up,
            flops_per_sample=[self.submodel_flops(name) for name in returned_names],
            num_samples=[self._client_sizes[client_id] for client_id in selected_clients],
            local_epochs=self.local_config.local_epochs,
        )
        return self.fleet.simulate_round(round_index, batch)

    def finalize_round(self, record: RoundRecord, outcome: "RoundOutcome | None" = None) -> RoundRecord:
        """Attach the round's system accounting to its record (how :meth:`run_round` ends).

        With a fleet outcome it records the simulated duration, per-client
        arrivals, dropped clients, the deadline and the bytes moved;
        otherwise the record stays untimed.

        Under a lossy codec ``record.bytes_up`` is always the round's
        *true encoded* uplink (summed compressed payload sizes from
        :meth:`decode_result_state`) — never the nominal 4-bytes-per-param
        model — and the ``codec_bytes_up_total`` / ``codec_raw_bytes_up_total``
        obs counters advance so compression ratios are scrapeable live.
        """
        codec_bytes_up = self._round_bytes_up
        codec_raw_up = self._round_raw_bytes_up
        codec_bytes_down = self._round_bytes_down
        self._round_bytes_up = 0
        self._round_raw_bytes_up = 0
        self._round_bytes_down = 0
        if self._codec is not None:
            registry = obs_registry()
            registry.counter(
                "codec_bytes_up_total", "encoded (post-codec) uplink bytes aggregated"
            ).inc(codec_bytes_up)
            registry.counter(
                "codec_raw_bytes_up_total", "uncompressed bytes the same uploads would have moved"
            ).inc(codec_raw_up)
        if outcome is None:
            # measured wire bytes (exact or encoded) — populated whenever the
            # round actually moved payloads, so codec ratios have a baseline
            if codec_bytes_up > 0 or codec_bytes_down > 0:
                record.bytes_up = codec_bytes_up
                record.bytes_down = codec_bytes_down
            return record
        record.wall_clock_seconds = outcome.round_seconds
        record.deadline_seconds = outcome.deadline_seconds
        record.arrival_seconds = outcome.arrival_seconds()
        record.dropped_clients = outcome.dropped_client_ids()
        record.bytes_down = outcome.bytes_down_total
        record.bytes_up = outcome.bytes_up_total if self._codec is None else codec_bytes_up
        self._observe_fleet_metrics(record.round_index, outcome.round_seconds)
        return record

    #: bucket bounds for the simulated round-duration histogram — simulated
    #: rounds span sub-second static fleets to day-long deadline waits
    _SIM_ROUND_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0, 14400.0, 86400.0)

    def _observe_fleet_metrics(self, round_index: int, round_seconds: float) -> None:
        """Publish fleet gauges + the simulated-round histogram (``repro metrics``).

        Operational telemetry only — reads fleet state, never perturbs it
        or the training path.  Gauges track the population the scenario
        currently models (online / battery-recovering / battery-dead);
        the histogram tracks *simulated* seconds per round, complementing
        the real-time ``round_duration_seconds``.
        """
        if self.fleet is None:
            return
        stats = self.fleet.population_stats(round_index)
        registry = obs_registry()
        registry.gauge("sim_devices_online", "fleet devices reachable this round").set(
            stats["online"]
        )
        registry.gauge("sim_devices_recovering", "fleet devices recharging below resume level").set(
            stats["recovering"]
        )
        registry.gauge("sim_devices_battery_dead", "fleet devices at zero battery charge").set(
            stats["battery_dead"]
        )
        registry.histogram(
            "sim_round_seconds",
            "simulated wall-clock seconds of one federated round",
            buckets=self._SIM_ROUND_BUCKETS,
        ).observe(round_seconds)

    # -- evaluation -----------------------------------------------------------------------
    def evaluate(self) -> tuple[float, dict[str, float]]:
        """Accuracy of the full global model and of the per-level heads."""
        (full_accuracy, _), heads = evaluate_heads(
            self.architecture,
            self.level_group_sizes(),
            self.global_state,
            self.test_dataset,
            batch_size=self.federated_config.eval_batch_size,
            model_cache=self._eval_model_cache,
        )
        return full_accuracy, {level: accuracy for level, (accuracy, _) in heads.items()}

    def _record_evaluation(self, record: RoundRecord) -> None:
        with self.profiler.scope("evaluate"):
            full_accuracy, level_accuracies = self.evaluate()
        record.full_accuracy = full_accuracy
        record.level_accuracies = level_accuracies
        record.avg_accuracy = float(np.mean(list(level_accuracies.values()))) if level_accuracies else None
        get_event_bus().emit(
            "eval_done",
            trace_id=self.current_trace_id,
            round=record.round_index,
            full_accuracy=full_accuracy,
        )

    # -- checkpoint / resume (repro.store) ------------------------------------------------
    def state_parts(self) -> "dict[str, StatePart]":
        """The run's stateful pieces beyond weights, history and RNG, by checkpoint name.

        Each saves and restores itself (:class:`repro.store.checkpoint.StatePart`):
        the attached fleet's battery and availability watermarks, and the
        lossy codec's residual bank.  A subclass puts its own parts first.
        """
        parts = {"fleet": self.fleet, "codec": self._residuals}
        return {name: part for name, part in parts.items() if part is not None}

    def checkpoint_state(self) -> "Checkpoint":
        """Capture the run's complete restorable state at the current round.

        The returned :class:`repro.store.checkpoint.Checkpoint` holds the global
        weights, the history, the base RNG state and every :meth:`state_parts`
        part.  Everything that is *not* captured is a pure function of
        ``(seed, round, client)`` and reconstructs identically, which is what
        makes :meth:`restore_checkpoint` + :meth:`run` bit-identical to an
        uninterrupted run.
        """
        from repro.store.checkpoint import Checkpoint, save_parts

        extra_arrays, extra_state = save_parts(self.state_parts())
        return Checkpoint(
            algorithm=self.name,
            round_index=self.history.records[-1].round_index if self.history.records else 0,
            global_state={key: value.copy() for key, value in self.global_state.items()},
            history=self.history.to_dict(),
            rng_state=dict(self.rng.bit_generator.state),
            extra_arrays=extra_arrays,
            extra_state=extra_state,
            stop_reason=self._stop_reason,
        )

    def restore_checkpoint(self, checkpoint: "Checkpoint") -> None:
        """Restore :meth:`checkpoint_state` output onto a freshly built algorithm.

        The algorithm must have been constructed from the same experiment
        setting (architecture, pool, partition, seed, scenario, codec).  A
        checkpoint whose weights or state parts do not match this run is
        refused with ``ValueError`` and leaves the algorithm as built.  A
        subsequent :meth:`run` continues from the round after the checkpoint
        — ``run(num_rounds=total - completed)`` reproduces the uninterrupted
        run bit-for-bit.
        """
        from repro.store.checkpoint import load_parts

        checkpoint.validate_for(self.name, self.global_state)
        if self.history.records:
            raise RuntimeError(
                "restore_checkpoint must be called on a freshly built algorithm "
                f"(this one already has {len(self.history)} rounds of history)"
            )
        history = TrainingHistory.from_dict(checkpoint.history)
        load_parts(self.state_parts(), checkpoint.extra_arrays, checkpoint.extra_state)
        self.rng.bit_generator.state = checkpoint.rng_state
        self.global_state = {key: np.array(value) for key, value in checkpoint.global_state.items()}
        self.history = history

    # -- early stopping -------------------------------------------------------------------
    @property
    def stop_reason(self) -> str | None:
        """Why the current/last run stopped early (None = ran to completion)."""
        return self._stop_reason

    def request_stop(self, reason: str = "stop requested") -> None:
        """Ask the training loop to exit after the current round (callback API)."""
        self._stop_reason = reason

    # -- main loop --------------------------------------------------------------------------
    def run(
        self,
        num_rounds: int | None = None,
        callbacks: Iterable[Callback] | None = None,
        progress: bool = False,
        profile: bool = False,
    ) -> TrainingHistory:
        """Run the federated loop, evaluating every ``eval_every`` rounds.

        Per round the callbacks fire as ``on_round_start`` → (train) →
        ``on_evaluate`` (evaluated rounds only, after the record joined the
        history) → ``on_round_end`` → ``on_checkpoint`` (always the last
        hook of the round, after any late early-stop evaluation, so
        durable-state callbacks see the final record); ``on_fit_end``
        fires once on exit.  Any
        callback may call :meth:`request_stop` to end training after the
        round that is in flight.  One ordering exception: when a stop
        truncates the run at a round that was not scheduled for evaluation,
        that final record is evaluated *after* its ``on_round_end`` (the stop
        only becomes known then) and ``on_evaluate`` fires as the last hook
        before ``on_fit_end``, so the history always ends with an evaluated
        record.  ``progress=True`` is shorthand for appending a
        :class:`~repro.api.callbacks.ProgressCallback`.

        ``profile=True`` turns on the :class:`repro.perf.profiler.Profiler`
        attached as :attr:`profiler` — phase-grained scoped timers (round,
        training fan-out, aggregation, evaluation) plus transport and
        workspace counters, reset at the start of the run and readable
        afterwards via ``profiler.summary()`` / ``profiler.render()``.

        Caveat: the ``workspace.*`` counters are collected from *this*
        process only — under the process executor the training kernels run
        in workers whose counters do not propagate back, so the
        ``buffer_*`` counters then reflect evaluation-side reuse only and
        ``workspace.arena_bytes`` (the largest training arena) reads 0.
        """
        self.profiler.enabled = profile
        if profile:
            self.profiler.reset()
            reset_workspace_stats()
        callback_list = CallbackList(callbacks)
        if progress:
            callback_list.append(ProgressCallback())
        rounds = num_rounds if num_rounds is not None else self.federated_config.num_rounds
        start = len(self.history)
        self.planned_rounds = rounds
        self._stop_reason = None
        bus = get_event_bus()
        rounds_total = obs_registry().counter("rounds_total", "federated rounds completed")
        round_duration = obs_registry().histogram(
            "round_duration_seconds", "wall-clock duration of one federated round"
        )
        bus.emit("run_start", algorithm=self.name, rounds=rounds, start_round=start)
        try:
            for round_index in range(start, start + rounds):
                self.current_trace_id = new_trace_id(f"{self.name}-r{round_index}")
                bus.emit("round_start", trace_id=self.current_trace_id, round=round_index)
                round_started_at = monotonic()
                callback_list.on_round_start(self, round_index)
                with self.profiler.scope("round"):
                    record = self.run_round(round_index)
                should_eval = ((round_index + 1) % self.federated_config.eval_every == 0) or (
                    round_index == start + rounds - 1
                )
                if should_eval:
                    self._record_evaluation(record)
                self.history.append(record)
                if should_eval:
                    callback_list.on_evaluate(self, record)
                callback_list.on_round_end(self, record)
                if self._stop_reason is not None and record.full_accuracy is None:
                    # an early stop makes this the last round: evaluate it so the
                    # history always ends with an evaluated record
                    self._record_evaluation(record)
                    callback_list.on_evaluate(self, record)
                # the record is final from here on: durable-state callbacks
                # (e.g. repro.store.runstore.RunRecorder) persist checkpoints now
                callback_list.on_checkpoint(self, record)
                round_seconds = monotonic() - round_started_at
                rounds_total.inc()
                round_duration.observe(round_seconds)
                bus.emit(
                    "round_end",
                    trace_id=self.current_trace_id,
                    round=round_index,
                    duration_seconds=round(round_seconds, 6),
                    participants=len(record.selected_clients),
                )
                # re-check the stop flag: a checkpoint callback may itself
                # request a stop (e.g. on a persistence failure) and the
                # contract is "training ends after the round in flight"
                if self._stop_reason is not None:
                    if record.full_accuracy is None:
                        self._record_evaluation(record)
                        callback_list.on_evaluate(self, record)
                        # re-persist: durable-state callbacks must see the
                        # final, evaluated record — on_checkpoint stays the
                        # round's last hook (checkpoints overwrite by round
                        # index, so the re-fire is idempotent)
                        callback_list.on_checkpoint(self, record)
                    break
        finally:
            # release worker pools between runs; a later run() or run_round()
            # lazily rebuilds the executor from the same config
            self.close()
            self.current_trace_id = ""
            bus.emit(
                "run_end",
                algorithm=self.name,
                rounds_completed=len(self.history) - start,
                stop_reason=self._stop_reason or "",
            )
        if self.profiler.enabled:
            stats = workspace_stats()
            self.profiler.set_counter("workspace.buffer_hits", stats["hits"])
            self.profiler.set_counter("workspace.buffer_misses", stats["misses"])
            self.profiler.set_counter("workspace.arena_bytes", stats["arena_bytes"])
        callback_list.on_fit_end(self, self.history)
        return self.history
