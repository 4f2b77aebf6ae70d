"""``ExperimentSession``: prepare once, run many algorithms, collect results.

The session is the stateful counterpart of the functional runner: it
lazily prepares the experiment (dataset synthesis, partitioning, device
profiles) exactly once and reuses the snapshot for every subsequent run,
so multi-algorithm comparisons and ablation sweeps are paired and avoid
N× re-preparation.  Callbacks attach builder-style and are materialised
fresh for every run when given as factories.

    session = (ExperimentSession()
               .with_callback(ProgressCallback())
               .with_callback(lambda: EarlyStopping(patience=3)))
    session.compare(["heterofl", "adaptivefl"])
    session.save_results("results/")
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

from repro.api.callbacks import Callback
from repro.api.registry import available_algorithms, get_algorithm, validate_algorithm_names
from repro.api.spec import ExperimentSpec
from repro.experiments.runner import AlgorithmResult, run_algorithm
from repro.experiments.settings import ExperimentSetting, PreparedExperiment, prepare_experiment

__all__ = ["ExperimentSession"]


class ExperimentSession:
    """One prepared experiment, any number of algorithm runs on it."""

    def __init__(self, setting: ExperimentSetting | None = None):
        self.spec = ExperimentSpec(setting=setting if setting is not None else ExperimentSetting())
        self.results: dict[str, AlgorithmResult] = {}
        self._callbacks: list[Callback | Callable[[], Callback]] = []
        self._prepared: PreparedExperiment | None = None
        self._profile = False
        self._store = None
        self._resume = False
        self._checkpoint_every = 1

    @classmethod
    def from_spec(cls, spec: ExperimentSpec | str | Path) -> "ExperimentSession":
        """Build a session from an :class:`ExperimentSpec` or a JSON file path."""
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.load(spec)
        session = cls(spec.setting)
        session.spec = spec
        return session

    @property
    def setting(self) -> ExperimentSetting:
        """The setting every run of this session is prepared from (the spec's)."""
        return self.spec.setting

    # -- preparation ------------------------------------------------------------------
    @property
    def prepared(self) -> PreparedExperiment:
        """The prepared experiment, materialised on first use and cached."""
        if self._prepared is None:
            self._prepared = prepare_experiment(self.setting)
        return self._prepared

    # -- execution engine -------------------------------------------------------------
    def with_executor(self, executor: str, max_workers: int | None = None) -> "ExperimentSession":
        """Select the client-execution engine for every run of this session.

        ``executor`` is "serial" (default), "thread", "process" or
        "remote"; all of them produce bit-identical histories at a fixed
        seed, so this is purely a deployment/wall-clock knob.  Must be
        called before the first run (the executor is baked into the
        prepared experiment's federated config).
        """
        if self._prepared is not None:
            raise RuntimeError("with_executor must be called before the experiment is prepared")
        self.spec = replace(self.spec, setting=replace(self.setting, executor=executor, max_workers=max_workers))
        return self

    # -- fleet scenario ---------------------------------------------------------------
    def with_scenario(self, scenario: str | None) -> "ExperimentSession":
        """Condition every run of this session on a registered fleet scenario.

        ``scenario`` is a :mod:`repro.sim` scenario name (``repro
        scenarios`` lists them) or ``None`` to turn simulation off.  Must
        be called before the first run: the scenario's device mix defines
        the prepared experiment's capacity profiles, and every algorithm
        run builds its own stateful fleet from it (batteries and
        availability churn never leak across runs, keeping comparisons
        paired).
        """
        if self._prepared is not None:
            raise RuntimeError("with_scenario must be called before the experiment is prepared")
        self.spec = replace(self.spec, setting=replace(self.setting, scenario=scenario))
        return self

    # -- experiment store -------------------------------------------------------------
    def with_store(
        self,
        store,
        resume: bool = False,
        checkpoint_every: int = 1,
    ) -> "ExperimentSession":
        """Persist every subsequent run into a :class:`repro.store.runstore.RunStore`.

        ``store`` is a ready store or a directory path.  Each run writes a
        checkpoint every ``checkpoint_every`` rounds plus its final
        history, keyed by the run's canonical key.  With ``resume=True``
        a run whose key the store has already completed returns the
        stored result without preparing or training, and a partially
        checkpointed run restores its latest checkpoint and trains only
        the remaining rounds — bit-identical to the uninterrupted run.
        """
        from repro.store.runstore import RunStore

        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self._store = store if isinstance(store, RunStore) else RunStore(store)
        self._resume = resume
        self._checkpoint_every = checkpoint_every
        return self

    @property
    def store(self):
        """The attached :class:`repro.store.runstore.RunStore` (None = not persisting)."""
        return self._store

    # -- profiling --------------------------------------------------------------------
    def with_profiling(self, enabled: bool = True) -> "ExperimentSession":
        """Collect :mod:`repro.perf` profiles (timers + transport counters)
        for every subsequent run; summaries land on
        :attr:`AlgorithmResult.profile` and in ``<label>_profile.json``."""
        self._profile = enabled
        return self

    # -- callbacks --------------------------------------------------------------------
    def with_callback(self, callback: Callback | Callable[[], Callback]) -> "ExperimentSession":
        """Attach a callback instance or a zero-arg factory (builder style).

        Factories are called once per run, so stateful callbacks such as
        :class:`~repro.api.callbacks.EarlyStopping` start fresh for every
        algorithm of a comparison.
        """
        self._callbacks.append(callback)
        return self

    # -- execution --------------------------------------------------------------------
    def run(
        self,
        algorithm: str,
        *,
        selection_strategy: str | None = None,
        num_rounds: int | None = None,
        callbacks: Iterable[Callback | Callable[[], Callback]] | None = None,
        resume: bool | None = None,
        executor: "object | None" = None,
    ) -> AlgorithmResult:
        """Run one registered algorithm on the shared prepared experiment.

        ``resume`` overrides the session-level resume policy set by
        :meth:`with_store` for this one run (it requires a store).
        ``executor`` injects a pre-built, caller-owned executor instance
        (e.g. a started :class:`~repro.serve.executor.RemoteExecutor`)
        that the run uses but never shuts down — unlike
        :meth:`with_executor`, which selects an executor *by name* for
        the algorithm to build and own.
        """
        validate_algorithm_names([algorithm])
        if resume is None:
            resume = self._resume
        if num_rounds is None:
            num_rounds = self.spec.num_rounds
        result = None
        if resume and self._store is not None:
            result = self._stored_result(algorithm, selection_strategy, num_rounds)
        if result is None:
            result = run_algorithm(
                algorithm,
                self.prepared,
                selection_strategy=selection_strategy,
                num_rounds=num_rounds,
                callbacks=self._callbacks + list(callbacks or []),
                profile=self._profile,
                store=self._store,
                resume=resume,
                checkpoint_every=self._checkpoint_every,
                executor=executor,
            )
        self.results[result.algorithm] = result
        return result

    def compare(
        self,
        algorithms: Iterable[str] | None = None,
        *,
        num_rounds: int | None = None,
    ) -> dict[str, AlgorithmResult]:
        """Run several algorithms on the identical snapshot (paired comparison).

        ``algorithms`` defaults to the spec's list (or every registered
        algorithm); each one that takes a selection strategy runs the spec's.
        Every name is checked against the registry before anything is prepared.
        """
        if algorithms is None:
            algorithms = self.spec.algorithms or available_algorithms()
        return {
            name: self.run(name, selection_strategy=self.spec.strategy_for(name), num_rounds=num_rounds)
            for name in validate_algorithm_names(algorithms)
        }

    # -- persistence ------------------------------------------------------------------
    def save_results(self, directory: str | Path) -> list[Path]:
        """Write one ``<label>_history.json`` per result plus ``summary.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        summary: dict[str, dict] = {}
        for label, result in self.results.items():
            safe = label.replace("/", "_")
            path = directory / f"{safe}_history.json"
            path.write_text(json.dumps(result.history.to_dict(), indent=2) + "\n", encoding="utf-8")
            written.append(path)
            if result.profile is not None:
                profile_path = directory / f"{safe}_profile.json"
                profile_path.write_text(json.dumps(result.profile, indent=2) + "\n", encoding="utf-8")
                written.append(profile_path)
            summary[label] = {
                "full_accuracy": result.full_accuracy,
                "avg_accuracy": result.avg_accuracy,
                "communication_waste": result.communication_waste,
                "rounds": len(result.history),
                "history_file": path.name,
            }
        summary_path = directory / "summary.json"
        summary_path.write_text(
            json.dumps({"setting": self.setting.to_dict(), "results": summary}, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(summary_path)
        return written

    # -- helpers ----------------------------------------------------------------------
    def _stored_result(
        self, algorithm: str, selection_strategy: str | None, num_rounds: int | None
    ) -> AlgorithmResult | None:
        """The store's result for a run it has completed, read without preparing anything."""
        from repro.store.keys import run_key

        key = run_key(self.setting, algorithm, selection_strategy=selection_strategy, num_rounds=num_rounds)
        run_id = self._store.run_id_for(key)
        if not self._store.is_completed(run_id):
            return None
        label = get_algorithm(algorithm).run_label(selection_strategy)
        return AlgorithmResult.from_history(label, self._store.load_history(run_id))
