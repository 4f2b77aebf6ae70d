"""Sweep orchestration + report generation against a real store."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import ExperimentSpec
from repro.core.history import RoundRecord, TrainingHistory
from repro.experiments.settings import ExperimentSetting
from repro.store.keys import run_key
from repro.store.report import generate_report, write_report
from repro.store.runstore import RunStore
from repro.store.sweep import SweepSpec, run_sweep


@pytest.fixture(scope="module")
def sweep_spec(ci_setting) -> SweepSpec:
    return SweepSpec(
        base=ExperimentSpec(setting=ci_setting, algorithms=("adaptivefl", "heterofl"), num_rounds=2),
        seeds=(0, 1),
    )


@pytest.fixture(scope="module")
def swept_store(sweep_spec, tmp_path_factory):
    """One sweep executed start to finish (module-scoped: runs train once)."""
    store = RunStore(tmp_path_factory.mktemp("sweep") / "store")
    result = run_sweep(sweep_spec, store)
    return store, result


class TestSweepSpec:
    def test_grid_expansion_covers_every_cell(self, sweep_spec):
        cells = sweep_spec.cells()
        assert len(cells) == 4  # 2 algorithms x 1 scenario x 2 seeds
        assert {(c.algorithm, c.seed) for c in cells} == {
            ("adaptivefl", 0), ("adaptivefl", 1), ("heterofl", 0), ("heterofl", 1),
        }
        # per-cell settings really carry the cell's seed
        assert all(cell.spec.setting.seed == cell.seed for cell in cells)

    def test_round_trip_and_strictness(self, sweep_spec):
        clone = SweepSpec.from_dict(sweep_spec.to_dict())
        assert clone.to_dict() == sweep_spec.to_dict()
        with pytest.raises(ValueError, match="does not accept"):
            SweepSpec.from_dict({**sweep_spec.to_dict(), "grid": []})

    def test_unknown_scenario_is_rejected(self, sweep_spec):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({**sweep_spec.to_dict(), "scenarios": ["no_such_scenario"]})

    def test_cell_run_ids_are_distinct(self, sweep_spec):
        ids = [cell.run_id() for cell in sweep_spec.cells()]
        assert len(set(ids)) == len(ids)


class TestRunSweep:
    def test_first_invocation_runs_everything(self, swept_store):
        _, result = swept_store
        assert result.counts() == {"skipped": 0, "resumed": 0, "ran": 4}

    def test_reinvocation_skips_completed_cells(self, sweep_spec, swept_store):
        store, _ = swept_store
        again = run_sweep(sweep_spec, store)
        assert again.counts() == {"skipped": 4, "resumed": 0, "ran": 0}
        # skipped cells still surface their stored results
        assert all(cell.result.full_accuracy is not None for cell in again.cells)

    def test_all_skipped_reinvocation_prepares_nothing(self, sweep_spec, swept_store, monkeypatch):
        def explode(setting):
            raise AssertionError("a sweep with nothing left to run must not prepare an experiment")

        monkeypatch.setattr("repro.api.session.prepare_experiment", explode)
        store, _ = swept_store
        assert run_sweep(sweep_spec, store).counts() == {"skipped": 4, "resumed": 0, "ran": 0}

    def test_skipped_results_match_original(self, sweep_spec, swept_store):
        store, first = swept_store
        again = run_sweep(sweep_spec, store)
        for before, after in zip(first.cells, again.cells):
            assert before.run_id == after.run_id
            assert after.result.history.to_dict() == before.result.history.to_dict()

    def test_sweep_spec_is_saved_into_the_store(self, sweep_spec, swept_store):
        store, _ = swept_store
        saved = SweepSpec.load(store.root / "sweep.json")
        assert saved.to_dict() == sweep_spec.to_dict()

    def test_interrupted_sweep_resumes_only_missing_cells(self, sweep_spec, tmp_path):
        """Simulate a crash after the first (scenario, seed) group and re-invoke."""
        store = RunStore(tmp_path / "store")
        seed_zero = SweepSpec.from_dict({**sweep_spec.to_dict(), "seeds": [0]})
        run_sweep(seed_zero, store)
        result = run_sweep(sweep_spec, store)
        assert result.counts() == {"skipped": 2, "resumed": 0, "ran": 2}


class TestReport:
    def test_report_covers_every_cell(self, swept_store):
        store, result = swept_store
        bundle = generate_report(store)
        assert len(bundle.payload["completed"]) == 4
        reported = {
            (row["algorithm"], row["seed"]) for row in bundle.payload["completed"]
        }
        assert reported == {(c.cell.algorithm, c.cell.seed) for c in result.cells}
        # every cell appears in the per-run markdown table
        for row in bundle.payload["completed"]:
            assert f"| {row['algorithm']} | (none) | {row['seed']} |" in bundle.markdown

    def test_report_reads_stored_state_only(self, swept_store, tmp_path):
        """A report regenerated from a *copied* store directory is identical."""
        import shutil

        store, _ = swept_store
        copy_root = tmp_path / "copied-store"
        shutil.copytree(store.root, copy_root)
        original = generate_report(store)
        copied = generate_report(copy_root)
        assert copied.markdown == original.markdown
        assert copied.payload == original.payload

    def test_incomplete_runs_are_listed_not_dropped(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.begin_run({"algorithm": "adaptivefl", "setting": {"seed": 3, "scenario": None}})
        bundle = generate_report(store)
        assert "## Incomplete runs" in bundle.markdown
        assert bundle.payload["incomplete"][0]["key"]["algorithm"] == "adaptivefl"

    def test_a_stored_run_of_the_retired_full_transport_still_renders(self, tmp_path):
        """The retired "full" transport is no longer a valid setting, but a store written
        before holds it in its run keys; the report reads those keys and never rebuilds a setting."""
        store = RunStore(tmp_path / "store")
        key = run_key(ExperimentSetting(seed=5), "heterofl", num_rounds=1)
        key["setting"]["transport"] = "full"
        entry = store.begin_run(key)
        history = TrainingHistory("heterofl")
        history.append(RoundRecord(round_index=0, full_accuracy=0.5, avg_accuracy=0.4, communication_waste=0.0))
        store.finish_run(entry.run_id, history)
        bundle = generate_report(store)
        [row] = bundle.payload["completed"]
        assert (row["run_id"], row["algorithm"], row["seed"]) == (entry.run_id, "heterofl", 5)
        assert "| heterofl | (none) | 5 | 1 | 50.00 | 40.00 | 0.00 | 0 |" in bundle.markdown

    def test_write_report_defaults_to_store_root(self, swept_store):
        store, _ = swept_store
        written = write_report(store)
        assert {path.name for path in written} == {"report.md", "report.json"}
        assert all(path.parent == store.root for path in written)
        payload = json.loads((store.root / "report.json").read_text())
        assert payload["algorithms"] == ["adaptivefl", "heterofl"]


GOLDEN_PATH = "tests/store/golden/report.md"


def make_fixture_store(root) -> RunStore:
    """A deterministic hand-built store (no training) for golden testing."""
    store = RunStore(root)
    grid = [
        ("adaptivefl", 0, [0.40, 0.55], [0.38, 0.50]),
        ("adaptivefl", 1, [0.42, 0.57], [0.40, 0.52]),
        ("heterofl", 0, [0.35, 0.45], [0.30, 0.40]),
        ("heterofl", 1, [0.37, 0.49], [0.32, 0.44]),
    ]
    for algorithm, seed, fulls, avgs in grid:
        key = {
            "algorithm": algorithm,
            "selection_strategy": "rl-cs" if algorithm == "adaptivefl" else None,
            "setting": {"seed": seed, "scenario": "flaky_edge", "dataset": "cifar10"},
            "num_rounds": 2,
            "scenario_override": None,
        }
        entry = store.begin_run(key)
        history = TrainingHistory(algorithm)
        for round_index, (full, avg) in enumerate(zip(fulls, avgs)):
            history.append(
                RoundRecord(
                    round_index=round_index,
                    full_accuracy=full,
                    avg_accuracy=avg,
                    level_accuracies={"L": full, "S": avg},
                    communication_waste=0.25,
                    wall_clock_seconds=10.0,
                )
            )
        store.finish_run(entry.run_id, history)
    return store


def test_report_matches_golden_fixture(tmp_path):
    """The exact report.md for a fixed store; regenerate with
    ``python tests/store/regen_golden.py`` after intentional format changes."""
    from pathlib import Path

    store = make_fixture_store(tmp_path / "store")
    bundle = generate_report(store, title="Golden fixture report")
    golden = Path(GOLDEN_PATH).read_text(encoding="utf-8")
    assert bundle.markdown == golden
