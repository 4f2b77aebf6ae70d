"""Store wiring through ExperimentSession and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.api.cli import main
from repro.api.session import ExperimentSession
from repro.api.spec import ExperimentSpec
from repro.experiments.runner import run_algorithm
from repro.store.runstore import RunStore
from repro.store.sweep import SweepSpec, run_sweep

CLI_SETTING = ["--scale", "ci", "--rounds", "2", "--quiet"]


@pytest.fixture()
def ci_overridden(ci_setting):
    return ci_setting


class TestSessionStore:
    def test_run_persists_and_resume_returns_stored_result(self, ci_overridden, tmp_path):
        store = RunStore(tmp_path / "store")
        first = ExperimentSession(ci_overridden).with_store(store).run("heterofl")
        [entry] = store.runs()
        assert entry.completed
        assert store.checkpoint_rounds(entry.run_id)

        again = ExperimentSession(ci_overridden).with_store(store, resume=True).run("heterofl")
        assert again.history.to_dict() == first.history.to_dict()

    def test_resume_without_store_is_rejected(self, ci_overridden):
        session = ExperimentSession(ci_overridden)
        with pytest.raises(ValueError, match="resume requires a store"):
            session.run("heterofl", resume=True)

    def test_checkpoint_every_thins_the_cadence(self, ci_overridden, tmp_path):
        store = RunStore(tmp_path / "store")
        ExperimentSession(ci_overridden).with_store(store, checkpoint_every=2).run("heterofl")
        [entry] = store.runs()
        # ci_setting overrides num_rounds to 2: rounds 0 (skipped) and 1 (cadence + final)
        assert store.checkpoint_rounds(entry.run_id) == [1]


class TestRefusedStoreOptions:
    """A refused run must leave no trace: no run entry, no ``sweep.json``."""

    def test_run_algorithm_refuses_checkpoint_every_before_touching_the_store(self, ci_prepared, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_algorithm("heterofl", ci_prepared, store=store, checkpoint_every=0)
        assert store.runs() == []

    def test_run_algorithm_refuses_resume_without_store(self, ci_prepared):
        with pytest.raises(ValueError, match="resume requires a store"):
            run_algorithm("heterofl", ci_prepared, resume=True)

    def test_run_sweep_refuses_checkpoint_every_before_touching_the_store(self, ci_setting, tmp_path):
        store_dir = tmp_path / "store"
        sweep = SweepSpec(base=ExperimentSpec(setting=ci_setting, algorithms=("heterofl",)))
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_sweep(sweep, store_dir, checkpoint_every=0)
        assert not store_dir.exists()

    def test_sweep_cli_refusal_leaves_no_phantom_run(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = [
            "sweep", "--algorithms", "heterofl", *CLI_SETTING,
            "--store", str(store_dir), "--checkpoint-every", "0",
        ]
        assert main(argv) == 2
        assert "checkpoint_every" in capsys.readouterr().err
        assert not (store_dir / "sweep.json").exists()
        assert not (store_dir / "runs").exists()

    def test_sweep_of_an_unknown_model_leaves_no_run(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = ["sweep", "--algorithms", "heterofl", "--model", "alexnet", *CLI_SETTING, "--store", str(store_dir)]
        assert main(argv) == 2
        assert "error: unknown model 'alexnet'" in capsys.readouterr().err
        assert not (store_dir / "sweep.json").exists()
        assert not (store_dir / "runs").exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--distribution", "dirichlet", "--alpha", "0"], "alpha"),
            (["--distribution", "dirichlet", "--alpha", "-1.5"], "alpha"),
            (["--dataset", "cifar10", "--distribution", "natural"], "distribution 'natural'"),
        ],
    )
    def test_sweep_of_an_impossible_setting_leaves_no_file(self, flags, field, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = ["sweep", "--algorithms", "heterofl", *flags, *CLI_SETTING, "--store", str(store_dir)]
        assert main(argv) == 2
        assert f"error: {field}" in capsys.readouterr().err
        assert not store_dir.exists()

    def test_sweep_spec_with_a_negative_resource_uncertainty_leaves_no_file(self, tmp_path, capsys):
        payload = SweepSpec(base=ExperimentSpec(algorithms=("heterofl",), num_rounds=2)).to_dict()
        payload["base"]["setting"]["resource_uncertainty"] = -0.5
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(payload), encoding="utf-8")
        store_dir = tmp_path / "store"
        assert main(["sweep", "--spec", str(spec_path), "--store", str(store_dir), "--quiet"]) == 2
        assert "error: resource_uncertainty must be non-negative" in capsys.readouterr().err
        assert not store_dir.exists()

    def test_spec_with_an_unknown_override_is_a_cli_error(self, ci_setting, tmp_path, capsys):
        payload = ExperimentSpec(setting=ci_setting, algorithms=("heterofl",)).to_dict()
        payload["setting"]["overrides"] = {"num_round": 2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["compare", "--spec", str(spec_path), "--quiet", "--output-dir", str(tmp_path / "out")]) == 2
        assert "error: invalid scale 'ci' or overrides {'num_round': 2}" in capsys.readouterr().err


class TestEarlyStopResume:
    def test_crash_after_early_stop_does_not_train_past_the_stop(self, ci_overridden, tmp_path):
        """The stop decision travels with the checkpoint: a resume after a
        crash-that-lost-the-completion-marker must not run extra rounds."""
        import json

        from repro.api.callbacks import Callback

        class StopImmediately(Callback):
            def on_round_end(self, algorithm, record):
                algorithm.request_stop("test stop")

        store = RunStore(tmp_path / "store")
        session = ExperimentSession(ci_overridden).with_store(store)
        first = session.run("heterofl", callbacks=[StopImmediately()], num_rounds=5)
        assert len(first.history) == 1  # stopped after round 0 of 5

        # simulate the crash: completion marker lost, checkpoints intact
        [entry] = store.runs()
        run_dir = store.root / "runs" / entry.run_id
        payload = json.loads((run_dir / "run.json").read_text())
        payload["status"] = "running"
        (run_dir / "run.json").write_text(json.dumps(payload))
        (run_dir / "history.json").unlink()

        resumed = (
            ExperimentSession(ci_overridden)
            .with_store(store, resume=True)
            .run("heterofl", num_rounds=5)
        )
        assert len(resumed.history) == 1  # did NOT train rounds 1..4
        assert resumed.history.to_dict() == first.history.to_dict()
        assert store.get_run(entry.run_id).stop_reason == "test stop"


class TestReadOnlyOpen:
    def test_report_on_non_store_path_raises(self, tmp_path):
        from repro.store.report import generate_report

        bogus = tmp_path / "typo-dir"
        with pytest.raises(ValueError, match="no experiment store at"):
            generate_report(bogus)
        assert not bogus.exists()  # nothing was fabricated

    def test_report_cli_on_non_store_path_exits_cleanly(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "typo-dir")]) == 2
        assert "no experiment store" in capsys.readouterr().err


class TestCliStore:
    def test_run_store_resume_skips_training(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        out_dir = tmp_path / "results"
        argv = [
            "run", "--algorithm", "heterofl", *CLI_SETTING,
            "--store", str(store_dir), "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        store = RunStore(store_dir)
        [entry] = store.runs()
        assert entry.completed
        first_history = store.load_history(entry.run_id).to_dict()

        assert main([*argv, "--resume"]) == 0
        assert store.load_history(entry.run_id).to_dict() == first_history

    def test_resume_without_store_errors_cleanly(self, tmp_path, capsys):
        assert main(["run", "--algorithm", "heterofl", *CLI_SETTING, "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_sweep_then_report(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = [
            "sweep", "--algorithms", "heterofl", "--seeds", "0", "1",
            *CLI_SETTING, "--store", str(store_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 ran" not in out  # two seeds -> two cells ran
        assert "2 ran, 0 resumed, 0 skipped" in out

        assert main(argv) == 0
        assert "0 ran, 0 resumed, 2 skipped" in capsys.readouterr().out

        assert main(["report", "--store", str(store_dir), "--title", "CI sweep"]) == 0
        out = capsys.readouterr().out
        assert "# CI sweep" in out
        payload = json.loads((store_dir / "report.json").read_text())
        assert {(row["algorithm"], row["seed"]) for row in payload["completed"]} == {
            ("heterofl", 0), ("heterofl", 1),
        }
        assert (store_dir / "report.md").exists()

    def test_sweep_requires_store(self, capsys):
        assert main(["sweep", "--algorithms", "heterofl", *CLI_SETTING]) == 2
        assert "requires --store" in capsys.readouterr().err

    def test_sweep_spec_conflicts_with_grid_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"base": {}, "seeds": [0], "scenarios": []}))
        code = main([
            "sweep", "--spec", str(spec_path), "--seeds", "1",
            "--store", str(tmp_path / "store"), "--quiet",
        ])
        assert code == 2
        assert "cannot be combined with --spec" in capsys.readouterr().err
