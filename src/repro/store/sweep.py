"""Sweep orchestration: expand a grid, skip what's done, run the rest.

A :class:`SweepSpec` takes a base :class:`~repro.api.spec.ExperimentSpec`
and crosses it with seeds and scenarios: every **cell** is one
``(algorithm, scenario, seed)`` run keyed by its canonical run key.
:func:`run_sweep` walks the grid grouped by ``(scenario, seed)`` and runs
each group through one :class:`~repro.api.session.ExperimentSession`, so
the group prepares its experiment at most once (the session's paired-
comparison property), skips cells the store has already completed
without preparing anything, resumes partially checkpointed cells from
their latest round, and runs the remainder from scratch.  Because cell
identity is the run-key hash, re-invoking the same sweep after a crash
(or on another day) does only the missing work — the acceptance path of
``repro sweep`` on the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.api.registry import available_algorithms, validate_algorithm_names
from repro.api.session import ExperimentSession
from repro.api.spec import ExperimentSpec
from repro.core.serialization import Serializable, coerce_int_tuple
from repro.experiments.runner import AlgorithmResult
from repro.sim.scenario import validate_scenario_choice
from repro.store.keys import run_key
from repro.store.objects import write_atomic
from repro.store.runstore import RunStore

__all__ = ["SweepSpec", "SweepCell", "CellResult", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec(Serializable):
    """A grid of runs: base experiment × algorithms × scenarios × seeds."""

    #: the shared experiment description (its setting's seed/scenario are
    #: overridden per cell; its algorithms list bounds the grid)
    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    #: seeds to cross (defaults to the base setting's seed)
    seeds: tuple[int, ...] = ()
    #: scenarios to cross; ``None`` entries mean "no scenario"; an empty
    #: tuple keeps the base setting's scenario as the single column
    scenarios: tuple[str | None, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", coerce_int_tuple(self.seeds, field_name="seeds") if self.seeds else ())
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        for scenario in self.scenarios:
            if scenario is not None and not isinstance(scenario, str):
                raise ValueError("scenarios must be names or None")
            validate_scenario_choice(scenario)

    # -- grid ---------------------------------------------------------------------------
    def algorithm_names(self) -> tuple[str, ...]:
        """The grid's algorithm axis (base spec's list, or every registered one)."""
        return validate_algorithm_names(self.base.algorithms or available_algorithms())

    def seed_values(self) -> tuple[int, ...]:
        """The grid's seed axis (defaults to the base setting's single seed)."""
        return self.seeds if self.seeds else (self.base.setting.seed,)

    def scenario_values(self) -> tuple[str | None, ...]:
        """The grid's scenario axis (defaults to the base setting's scenario)."""
        return self.scenarios if self.scenarios else (self.base.setting.scenario,)

    def cells(self) -> list["SweepCell"]:
        """Expand the full grid, grouped by (scenario, seed) then algorithm.

        The grouping order is load-bearing: consecutive cells of one
        ``(scenario, seed)`` pair share a session, so :func:`run_sweep`
        prepares each pair at most once.
        """
        cells = []
        for scenario in self.scenario_values():
            for seed in self.seed_values():
                setting = replace(self.base.setting, seed=seed, scenario=scenario)
                spec = replace(self.base, setting=setting)
                for algorithm in self.algorithm_names():
                    cells.append(SweepCell(algorithm=algorithm, scenario=scenario, seed=seed, spec=spec))
        return cells

    # -- serialisation ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the sweep as pretty-printed JSON (atomically); returns the path."""
        path = Path(path)
        write_atomic(path, json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        """Read a sweep back from JSON (strict: unknown keys raise)."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class SweepCell:
    """One (algorithm, scenario, seed) point of a sweep grid."""

    algorithm: str
    scenario: str | None
    seed: int
    #: the fully resolved per-cell experiment spec
    spec: ExperimentSpec

    def key(self) -> dict:
        """The cell's canonical run key (the one its run is stored under)."""
        return run_key(
            self.spec.setting,
            self.algorithm,
            selection_strategy=self.spec.strategy_for(self.algorithm),
            num_rounds=self.spec.num_rounds,
        )

    def run_id(self) -> str:
        """The cell's run ID inside a store."""
        return RunStore.run_id_for(self.key())


@dataclass(frozen=True)
class CellResult:
    """What happened to one cell during a sweep invocation."""

    cell: SweepCell
    run_id: str
    #: ``"skipped"`` (already complete), ``"resumed"`` or ``"ran"``
    status: str
    result: AlgorithmResult


@dataclass
class SweepResult:
    """The outcome of one :func:`run_sweep` invocation over a grid."""

    sweep: SweepSpec
    cells: list[CellResult]

    def counts(self) -> dict[str, int]:
        """How many cells were skipped / resumed / freshly run."""
        counts = {"skipped": 0, "resumed": 0, "ran": 0}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return counts


def run_sweep(
    sweep: SweepSpec,
    store: RunStore | str | Path,
    resume: bool = True,
    checkpoint_every: int = 1,
    callbacks: Sequence | None = None,
    on_cell: "Callable[[SweepCell, str], None] | None" = None,
) -> SweepResult:
    """Execute a sweep grid against a store, doing only the missing work.

    Cells whose run the store has already completed are **skipped**
    (their stored history becomes the cell result); cells with partial
    checkpoints are **resumed** from their latest round; fresh cells are
    **ran** end-to-end.  Each ``(scenario, seed)`` group runs through one
    :class:`~repro.api.session.ExperimentSession`: it prepares its
    experiment only when a cell has training to do, and runs all its
    algorithms on that identical snapshot.

    ``on_cell(cell, status)`` is invoked before each cell executes —
    the CLI uses it for progress lines.  The sweep spec itself is saved
    into the store root (``sweep.json``, replacing any earlier grid) so
    the grid travels with the data and can be re-invoked later with
    ``repro sweep --spec <store>/sweep.json``.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
    if not isinstance(store, RunStore):
        store = RunStore(store)
    sweep.save(store.root / "sweep.json")

    results: list[CellResult] = []
    session: ExperimentSession | None = None
    for cell in sweep.cells():
        if session is None or session.spec != cell.spec:
            session = ExperimentSession.from_spec(cell.spec).with_store(
                store, resume=resume, checkpoint_every=checkpoint_every
            )
        run_id = cell.run_id()
        if resume and store.is_completed(run_id):
            status = "skipped"
        elif resume and store.checkpoint_rounds(run_id):
            status = "resumed"
        else:
            status = "ran"
        if on_cell is not None:
            on_cell(cell, status)
        result = session.run(
            cell.algorithm, selection_strategy=cell.spec.strategy_for(cell.algorithm), callbacks=callbacks
        )
        results.append(CellResult(cell=cell, run_id=run_id, status=status, result=result))
    return SweepResult(sweep=sweep, cells=results)
