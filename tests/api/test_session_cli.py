"""ExperimentSession (prepare-once reuse) and the ``python -m repro`` CLI."""

import dataclasses
import json

import pytest

from repro.api.callbacks import Callback
from repro.api.cli import _setting_from_args, build_parser, main
from repro.api.session import ExperimentSession
from repro.api.spec import ExperimentSpec
from repro.engine.codecs import PassthroughCodec, register_codec, unregister_codec
from repro.experiments.runner import run_algorithm
from repro.experiments.settings import prepare_experiment
from repro.store.sweep import SweepSpec

# the CI-scale setting/prepared snapshot come session-scoped from tests/conftest.py


class TestSession:
    def test_prepares_exactly_once(self, monkeypatch, ci_setting):
        calls = []
        real = prepare_experiment

        def counting(setting):
            calls.append(setting)
            return real(setting)

        monkeypatch.setattr("repro.api.session.prepare_experiment", counting)
        session = ExperimentSession(ci_setting)
        session.run("heterofl")
        session.run("scalefl")
        session.compare(["all_large"])
        assert len(calls) == 1
        assert set(session.results) == {"heterofl", "scalefl", "all_large"}

    def test_comparison_is_paired_with_functional_runner(self, ci_setting, ci_prepared):
        """Session reuse must give the same numbers as a fresh prepared run."""
        session = ExperimentSession(ci_setting)
        session.run("adaptivefl")
        fresh = run_algorithm("adaptivefl", ci_prepared)
        assert session.results["adaptivefl"].full_accuracy == pytest.approx(fresh.full_accuracy)

    def test_compare_matches_individual_runs(self, ci_setting, ci_prepared):
        results = ExperimentSession(ci_setting).compare(("heterofl", "adaptivefl"))
        single = run_algorithm("heterofl", ci_prepared)
        assert results["heterofl"].full_accuracy == pytest.approx(single.full_accuracy)

    def test_callback_factories_fresh_per_run(self, ci_setting):
        created = []

        class Tagged(Callback):
            def __init__(self):
                created.append(self)

        session = ExperimentSession(ci_setting).with_callback(Tagged)
        session.run("heterofl")
        session.run("scalefl")
        assert len(created) == 2

    def test_strategy_labelling(self, ci_setting):
        session = ExperimentSession(ci_setting)
        result = session.run("adaptivefl", selection_strategy="random")
        assert result.algorithm == "adaptivefl+random"
        assert "adaptivefl+random" in session.results

    def test_unknown_algorithm_fails_before_preparation(self, ci_setting):
        session = ExperimentSession(ci_setting)
        with pytest.raises(KeyError, match="registered"):
            session.run("fedprox")
        assert session._prepared is None  # nothing was materialised

    def test_from_spec_and_compare(self, tmp_path, ci_setting):
        spec = ExperimentSpec(setting=ci_setting, algorithms=("heterofl",), num_rounds=1)
        path = spec.save(tmp_path / "spec.json")
        session = ExperimentSession.from_spec(path)
        results = session.compare()
        assert set(results) == {"heterofl"}
        assert len(results["heterofl"].history) == 1

    def test_compare_applies_the_spec_strategy(self, ci_setting):
        spec = ExperimentSpec(
            setting=ci_setting, algorithms=("heterofl", "adaptivefl"), selection_strategy="random", num_rounds=1
        )
        session = ExperimentSession.from_spec(spec)
        compared = session.compare()
        assert [result.algorithm for result in compared.values()] == ["heterofl", "adaptivefl+random"]
        assert session.compare(["adaptivefl"])["adaptivefl"].algorithm == "adaptivefl+random"

    def test_strategy_for_applies_only_to_algorithms_that_accept_one(self, ci_setting):
        spec = ExperimentSpec(setting=ci_setting, selection_strategy="random")
        assert spec.strategy_for("adaptivefl") == "random"
        assert spec.strategy_for("heterofl") is None
        assert ExperimentSpec(setting=ci_setting).strategy_for("adaptivefl") is None

    def test_save_results(self, tmp_path, ci_setting):
        session = ExperimentSession(ci_setting)
        session.run("heterofl")
        written = session.save_results(tmp_path)
        names = {path.name for path in written}
        assert names == {"heterofl_history.json", "summary.json"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["setting"]["model"] == "simple_cnn"
        assert "heterofl" in summary["results"]
        history = json.loads((tmp_path / "heterofl_history.json").read_text())
        assert history["algorithm"] == "heterofl"
        assert len(history["rounds"]) == 2


class TestExecutorSelection:
    def test_with_executor_bakes_into_prepared(self, ci_setting):
        session = ExperimentSession(ci_setting).with_executor("thread", max_workers=2)
        assert session.prepared.federated_config.executor == "thread"
        assert session.prepared.federated_config.max_workers == 2

    def test_with_executor_after_preparation_rejected(self, ci_setting):
        session = ExperimentSession(ci_setting)
        session.prepared  # materialise
        with pytest.raises(RuntimeError, match="before"):
            session.with_executor("thread")

    def test_with_executor_keeps_attached_spec_consistent(self, ci_setting):
        spec = ExperimentSpec(setting=ci_setting, algorithms=("heterofl",), num_rounds=1)
        session = ExperimentSession.from_spec(spec).with_executor("thread", max_workers=2)
        assert session.spec.setting.executor == "thread"

    def test_cli_executor_flag_recorded_in_spec(self, tmp_path):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--executor", "thread", "--max-workers", "2", "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        spec = ExperimentSpec.load(tmp_path / "spec.json")
        assert spec.setting.executor == "thread"
        assert spec.setting.max_workers == 2


class TestScenarioSelection:
    def test_with_scenario_bakes_into_prepared(self, ci_setting):
        session = ExperimentSession(ci_setting).with_scenario("stable_lab")
        assert session.prepared.federated_config.scenario == "stable_lab"
        # the scenario's device mix drives the capacity profiles
        classes = [profile.class_name for profile in session.prepared.profiles]
        assert classes.count("weak") == 4 and classes.count("strong") == 3

    def test_with_scenario_after_preparation_rejected(self, ci_setting):
        session = ExperimentSession(ci_setting)
        session.prepared  # materialise
        with pytest.raises(RuntimeError, match="before"):
            session.with_scenario("stable_lab")

    def test_unknown_scenario_fails_at_setting_construction(self, ci_setting):
        session = ExperimentSession(ci_setting)
        with pytest.raises(ValueError, match="registered"):
            session.with_scenario("lunar_base")

    def test_scenario_run_records_fleet_accounting(self, ci_setting):
        session = ExperimentSession(ci_setting).with_scenario("stable_lab")
        result = session.run("heterofl")
        record = result.history.records[0]
        assert record.wall_clock_seconds is not None
        assert record.bytes_down > 0
        assert len(record.arrival_seconds) == len(record.selected_clients)

    def test_cli_scenario_flag_recorded_in_spec(self, tmp_path):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--scenario", "stable_lab", "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        spec = ExperimentSpec.load(tmp_path / "spec.json")
        assert spec.setting.scenario == "stable_lab"
        history = json.loads((tmp_path / "heterofl_history.json").read_text())
        assert history["rounds"][0]["wall_clock_seconds"] is not None

    def test_cli_unknown_scenario_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "lunar_base", "--scale", "ci", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "registered" in capsys.readouterr().err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("stable_lab", "flaky_edge", "diurnal", "congested_network", "battery_constrained", "paper_testbed"):
            assert name in out

    def test_scenarios_names_only(self, capsys):
        assert main(["scenarios", "--names"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "paper_testbed" in lines
        assert all(" " not in line for line in lines)


class TestCli:
    def test_run_writes_history_and_summary(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--algorithm", "adaptivefl", "--dataset", "cifar10", "--scale", "ci",
                "--rounds", "2", "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        history = json.loads((tmp_path / "adaptivefl_history.json").read_text())
        assert history["algorithm"] == "adaptivefl"
        assert len(history["rounds"]) == 2
        assert (tmp_path / "summary.json").exists()
        # the resolved spec is echoed for reproducibility
        spec = ExperimentSpec.load(tmp_path / "spec.json")
        assert spec.algorithms == ("adaptivefl",)
        assert "adaptivefl" in capsys.readouterr().out

    def test_compare_from_spec_file(self, tmp_path, capsys, ci_setting):
        spec = ExperimentSpec(setting=ci_setting, algorithms=("heterofl", "scalefl"), num_rounds=1)
        spec_path = spec.save(tmp_path / "spec.json")
        out_dir = tmp_path / "out"
        rc = main(["compare", "--spec", str(spec_path), "--quiet", "--output-dir", str(out_dir)])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["results"]) == {"heterofl", "scalefl"}

    def test_stream_history_jsonl(self, tmp_path):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "2",
                "--quiet", "--stream-history", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "heterofl_rounds.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["algorithm"] == "heterofl"

    def test_spec_conflicts_with_explicit_flags(self, tmp_path, capsys, ci_setting):
        spec_path = ExperimentSpec(setting=ci_setting, algorithms=("adaptivefl",)).save(tmp_path / "spec.json")
        rc = main(["run", "--spec", str(spec_path), "--algorithm", "heterofl"])
        assert rc == 2
        assert "cannot be combined with --spec" in capsys.readouterr().err

    def test_run_and_compare_accept_the_same_spec_with_strategy(self, tmp_path, ci_setting):
        # a spec whose strategy only applies to adaptivefl must be runnable
        # by BOTH subcommands, even with baselines in the algorithm list
        spec = ExperimentSpec(
            setting=ci_setting, algorithms=("heterofl", "adaptivefl"),
            selection_strategy="random", num_rounds=1,
        )
        spec_path = spec.save(tmp_path / "spec.json")
        for sub, out in (("run", "out_run"), ("compare", "out_cmp")):
            rc = main([sub, "--spec", str(spec_path), "--quiet", "--output-dir", str(tmp_path / out)])
            assert rc == 0, sub
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert set(summary["results"]) == {"heterofl", "adaptivefl+random"}

    def test_missing_spec_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["compare", "--spec", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_a_spec_file_naming_the_retired_full_transport_exits_2(self, tmp_path, capsys, ci_setting, command):
        spec = ExperimentSpec(setting=ci_setting, algorithms=("heterofl",), num_rounds=1).to_dict()
        spec["setting"]["transport"] = "full"
        argv = [command, "--spec", str(tmp_path / "spec.json"), "--quiet"]
        if command == "sweep":
            spec = {**SweepSpec(base=ExperimentSpec(setting=ci_setting)).to_dict(), "base": spec}
            argv += ["--store", str(tmp_path / "store")]
        else:
            argv += ["--output-dir", str(tmp_path / "out")]
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        assert main(argv) == 2
        assert "'full'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "store").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "sweep", "serve"])
    def test_an_old_transport_flag_on_the_command_line_exits_2(self, capsys, command):
        """``--transport`` is gone; an old command line is refused, never run."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([command, "--transport", "full"])
        assert exited.value.code == 2
        assert "'full'" in capsys.readouterr().err
        assert "transport" not in vars(build_parser().parse_args([command]))

    def test_unknown_algorithm_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["run", "--algorithm", "fedprox", "--scale", "ci", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "registered" in capsys.readouterr().err

    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("all_large", "decoupled", "heterofl", "scalefl", "adaptivefl"):
            assert name in out

    def test_progress_streams_by_default(self, tmp_path, capsys):
        rc = main(["run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1", "--output-dir", str(tmp_path)])
        assert rc == 0
        assert "[heterofl] round 1/1" in capsys.readouterr().out

    def test_cli_accepts_a_registered_plugin_codec(self):
        @dataclasses.dataclass(frozen=True)
        class ProbeCodec(PassthroughCodec):
            name = "cli-probe"

        register_codec("cli-probe")(ProbeCodec)
        try:
            args = build_parser().parse_args(["run", "--transport-codec", "cli-probe"])
            assert _setting_from_args(args).transport_codec == "cli-probe"
        finally:
            unregister_codec("cli-probe")


class TestTail:
    """``repro tail --limit N`` prints the last N existing events; a negative N is refused."""

    @pytest.fixture
    def log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps({"name": f"event-{index}"}) + "\n" for index in range(3)))
        return path

    @pytest.mark.parametrize("limit, shown", [(None, 3), (5, 3), (2, 2), (1, 1), (0, 0)])
    def test_limit_keeps_the_last_events(self, log, capsys, limit, shown):
        flags = [] if limit is None else ["--limit", str(limit)]
        assert main(["tail", str(log), "--raw", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["name"] for line in lines] == [f"event-{index}" for index in range(3 - shown, 3)]

    def test_a_negative_limit_is_a_clean_error(self, log, capsys):
        assert main(["tail", str(log), "--raw", "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit cannot be negative" in captured.err
