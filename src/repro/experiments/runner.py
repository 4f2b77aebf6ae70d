"""End-to-end experiment execution, driven purely by the algorithm registry.

``run_algorithm`` looks the algorithm up in :mod:`repro.api.registry` and
instantiates it from its declared :class:`~repro.api.registry.AlgorithmSpec`
— no per-algorithm branches live here.  Paired comparisons (several
algorithms on one prepared snapshot) go through
:class:`~repro.api.session.ExperimentSession`, which calls this function
once per algorithm.  All shared prepared objects are read-only by
construction: each algorithm builds its own clients, pool and global
state, and the resource model draws are keyed on (seed, client, round),
independent of run order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.api.callbacks import Callback
from repro.api.registry import get_algorithm
from repro.core.history import TrainingHistory
from repro.experiments.settings import PreparedExperiment

__all__ = ["AlgorithmResult", "run_algorithm"]


#: Callbacks argument accepted by the runners: ready instances, or zero-arg
#: factories (recommended for stateful callbacks shared across a comparison).
CallbackArg = Callback | Callable[[], Callback]


def _materialize_callbacks(callbacks: Sequence[CallbackArg] | None) -> list[Callback] | None:
    if callbacks is None:
        return None
    return [cb if isinstance(cb, Callback) else cb() for cb in callbacks]


@dataclass
class AlgorithmResult:
    """Summary of one algorithm's run on one experiment setting."""

    algorithm: str
    history: TrainingHistory
    full_accuracy: float
    avg_accuracy: float
    communication_waste: float
    #: ``Profiler.summary()`` of the run when profiling was requested
    profile: dict | None = None

    @classmethod
    def from_history(
        cls, algorithm: str, history: TrainingHistory, profile: dict | None = None
    ) -> "AlgorithmResult":
        return cls(
            algorithm=algorithm,
            history=history,
            full_accuracy=history.final_accuracy("full"),
            avg_accuracy=history.final_accuracy("avg"),
            communication_waste=history.mean_communication_waste(),
            profile=profile,
        )


def run_algorithm(
    name: str,
    prepared: PreparedExperiment,
    selection_strategy: str | None = None,
    num_rounds: int | None = None,
    scenario: str | None = None,
    callbacks: Sequence[CallbackArg] | None = None,
    profile: bool = False,
    store: "object | str | None" = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    executor: "object | None" = None,
) -> AlgorithmResult:
    """Train one registered algorithm on a prepared experiment.

    ``scenario`` (a registered :mod:`repro.sim` scenario name) overlays the
    scenario's *dynamics* — timing, availability, dropouts, deadlines —
    on this one run; each run builds its own stateful
    :class:`~repro.sim.fleet.FleetSimulator`.  The prepared experiment's
    capacity profiles are kept as-is (useful for paired what-if runs on an
    identical snapshot); to let the scenario's device mix also define the
    capacity profiles, put it in ``ExperimentSetting.scenario`` (or use
    :meth:`repro.api.session.ExperimentSession.with_scenario`) before
    preparing.

    ``store`` (a :class:`repro.store.runstore.RunStore` or a directory path)
    persists a checkpoint every ``checkpoint_every`` rounds and the final
    history under the run's canonical key.  With ``resume=True`` a
    completed run returns its stored result without training, and a
    partially checkpointed run restores its latest checkpoint and trains
    only the remaining rounds — bit-identically to an uninterrupted run.
    Checkpoints are written in the background of the next round; the store
    is flushed before this function returns *or raises*, so every round
    handed to it is on disk by then and a failed write is raised here.

    ``executor`` injects a pre-built, caller-owned executor (see
    :meth:`~repro.core.fl_base.FederatedAlgorithm.set_executor`) — the
    run uses it but never shuts it down, so ``repro serve`` can keep one
    :class:`~repro.serve.executor.RemoteExecutor` (and its connected
    clients) alive across several algorithms.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
    if resume and store is None:
        raise ValueError("resume requires a store (there is nothing to resume from)")
    spec = get_algorithm(name)
    if store is None:
        algorithm = spec.build(prepared, selection_strategy=selection_strategy, scenario=scenario)
        if executor is not None:
            algorithm.set_executor(executor)  # type: ignore[arg-type]
        history = algorithm.run(
            num_rounds=num_rounds, callbacks=_materialize_callbacks(callbacks), profile=profile
        )
        summary = algorithm.profiler.summary() if profile else None
        return AlgorithmResult.from_history(spec.run_label(selection_strategy), history, profile=summary)

    # deferred import: repro.store sits above the runner in the layering
    from repro.store.keys import resolve_num_rounds, run_key
    from repro.store.runstore import RunRecorder, RunStore

    if not isinstance(store, RunStore):
        store = RunStore(store)
    key = run_key(
        prepared.setting,
        name,
        selection_strategy=selection_strategy,
        num_rounds=num_rounds,
        scenario_override=scenario,
    )
    total_rounds = resolve_num_rounds(prepared.setting, num_rounds)
    label = spec.run_label(selection_strategy)
    entry = store.begin_run(key)
    if resume and entry.completed:
        return AlgorithmResult.from_history(label, store.load_history(entry.run_id))

    algorithm = spec.build(prepared, selection_strategy=selection_strategy, scenario=scenario)
    if executor is not None:
        algorithm.set_executor(executor)  # type: ignore[arg-type]
    completed = 0
    if resume:
        checkpoint = store.latest_checkpoint(entry.run_id)
        if checkpoint is not None:
            algorithm.restore_checkpoint(checkpoint)
            completed = len(algorithm.history)
            if checkpoint.stop_reason is not None:
                # the run had already stopped early when this checkpoint was
                # written — the crash merely lost the completion marker;
                # training past the stop would diverge from the original run
                store.finish_run(entry.run_id, algorithm.history, stop_reason=checkpoint.stop_reason)
                return AlgorithmResult.from_history(label, algorithm.history)
    if completed >= total_rounds:
        # every round is already checkpointed; only the completion marker was lost
        store.finish_run(entry.run_id, algorithm.history, stop_reason=None)
        return AlgorithmResult.from_history(label, algorithm.history)
    recorder = RunRecorder(store, entry.run_id, every=checkpoint_every)
    run_callbacks = (_materialize_callbacks(callbacks) or []) + [recorder]
    try:
        history = algorithm.run(
            num_rounds=total_rounds - completed, callbacks=run_callbacks, profile=profile
        )
    finally:
        # an exception escaping the loop must not race whoever resumes next:
        # the checkpoint being written is on disk (or has raised) before it leaves
        store.flush()
    store.finish_run(entry.run_id, history, stop_reason=algorithm.stop_reason)
    summary = algorithm.profiler.summary() if profile else None
    return AlgorithmResult.from_history(label, history, profile=summary)
