"""Experiment-harness tests: settings, scales, runner and reporting."""

import pytest

from repro.api.registry import available_algorithms
from repro.core.history import RoundRecord, TrainingHistory
from repro.experiments.reporting import PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4
from repro.experiments.runner import AlgorithmResult, run_algorithm
from repro.experiments.scaling import get_scale
from repro.experiments.settings import (
    ExperimentSetting,
    paper_pool_config,
    prepare_experiment,
    vgg16_table1_settings,
)
from repro.store.report import format_table, render_accuracy_table, render_learning_curves, render_waste_table


class TestScales:
    def test_presets_exist(self):
        for name in ("ci", "small", "paper"):
            scale = get_scale(name)
            assert scale.name == name

    def test_paper_scale_matches_publication(self):
        scale = get_scale("paper")
        assert scale.num_clients == 100
        assert scale.clients_per_round == 10
        assert scale.local_epochs == 5
        assert scale.batch_size == 50
        assert scale.image_size == 32

    def test_overrides(self):
        scale = get_scale("ci", num_rounds=3)
        assert scale.num_rounds == 3

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("huge")


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSetting(dataset="imagenet")
        with pytest.raises(ValueError):
            ExperimentSetting(distribution="dirichlet")  # missing alpha
        with pytest.raises(ValueError):
            ExperimentSetting(distribution="zipf")

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"model": "alexnet"}, "model"),
            ({"scale": "huge"}, "scale"),
            ({"overrides": {"num_round": 2}}, "overrides"),
            ({"proportion": "1:1"}, "proportion"),
            ({"proportion": "a:b:c"}, "proportion"),
        ],
    )
    def test_refuses_what_it_cannot_prepare(self, options, field):
        """Every name is checked at construction, before any spec or store is written."""
        with pytest.raises(ValueError, match=field):
            ExperimentSetting(**options)

    @pytest.mark.parametrize("scale", ["ci", "small"])
    def test_default_setting_prepares(self, scale):
        """The default model builds at the 16 px scales quick runs use (vgg16 needs 32 px)."""
        prepared = prepare_experiment(ExperimentSetting(scale=scale))
        assert prepared.architecture.input_shape == (3, 16, 16)
        assert prepared.architecture.parameter_count() > 0

    def test_prepare_experiment_wiring(self):
        setting = ExperimentSetting(dataset="cifar10", model="simple_cnn", distribution="iid", scale="ci")
        prepared = prepare_experiment(setting)
        assert prepared.partition.num_clients == prepared.scale.num_clients
        assert len(prepared.profiles) == prepared.scale.num_clients
        assert prepared.architecture.num_classes == 10
        assert prepared.train_dataset.input_shape == prepared.architecture.input_shape
        kwargs = prepared.algorithm_kwargs()
        assert set(kwargs) >= {"architecture", "train_dataset", "partition", "test_dataset", "profiles"}

    def test_femnist_uses_natural_groups(self):
        setting = ExperimentSetting(dataset="femnist", model="simple_cnn", distribution="natural", scale="ci")
        prepared = prepare_experiment(setting)
        assert prepared.train_dataset.groups is not None
        assert prepared.architecture.num_classes == 62

    def test_dirichlet_alpha_controls_partition(self):
        setting = ExperimentSetting(dataset="cifar10", model="simple_cnn", distribution="dirichlet", alpha=0.3, scale="ci")
        prepared = prepare_experiment(setting)
        prepared.partition.validate(prepared.train_dataset)

    def test_paper_pool_config_for_deep_and_shallow_models(self):
        setting = ExperimentSetting(dataset="cifar10", model="simple_cnn", scale="ci")
        prepared = prepare_experiment(setting)
        pool_config = paper_pool_config(prepared.architecture)
        assert max(pool_config.start_layers) < prepared.architecture.num_prunable_layers()
        assert len(pool_config.start_layers) == 3

    def test_table1_settings_rows(self):
        rows = vgg16_table1_settings()
        assert len(rows) == 7
        assert rows[0]["level"] == "L1"
        assert rows[0]["paper_params_m"] == pytest.approx(33.65)


class TestRunner:
    def test_run_single_algorithm_ci_scale(self):
        setting = ExperimentSetting(dataset="cifar10", model="simple_cnn", scale="ci", overrides={"num_rounds": 2, "eval_every": 2})
        prepared = prepare_experiment(setting)
        result = run_algorithm("heterofl", prepared)
        assert isinstance(result, AlgorithmResult)
        assert 0.0 <= result.full_accuracy <= 1.0
        assert len(result.history) == 2

    def test_adaptivefl_strategy_labelling(self):
        setting = ExperimentSetting(dataset="cifar10", model="simple_cnn", scale="ci", overrides={"num_rounds": 1, "eval_every": 1})
        prepared = prepare_experiment(setting)
        result = run_algorithm("adaptivefl", prepared, selection_strategy="random")
        assert result.algorithm == "adaptivefl+random"

    def test_unknown_algorithm(self):
        setting = ExperimentSetting(dataset="cifar10", model="simple_cnn", scale="ci")
        prepared = prepare_experiment(setting)
        with pytest.raises(KeyError):
            run_algorithm("fedprox", prepared)

    def test_all_algorithm_names_cover_paper_table2(self):
        assert set(available_algorithms()) == set(PAPER_TABLE2["vgg16"]["cifar10-iid"].keys())


class TestReporting:
    def make_result(self, name, accuracy):
        history = TrainingHistory(name)
        history.append(
            RoundRecord(round_index=0, full_accuracy=accuracy, avg_accuracy=accuracy - 0.02,
                        level_accuracies={"S": accuracy - 0.05, "M": accuracy, "L": accuracy},
                        communication_waste=0.1)
        )
        return AlgorithmResult.from_history(name, history)

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in text and "3" in text
        assert len(text.splitlines()) == 4

    def test_render_accuracy_table(self):
        results = {"heterofl": self.make_result("heterofl", 0.7), "adaptivefl": self.make_result("adaptivefl", 0.8)}
        text = render_accuracy_table(results, title="demo")
        assert "adaptivefl" in text
        assert "80.00" in text

    def test_render_learning_curves(self):
        results = {"adaptivefl": self.make_result("adaptivefl", 0.5)}
        text = render_learning_curves(results, kind="full")
        assert "(0, 50.0)" in text

    def test_render_waste_table(self):
        results = {"adaptivefl": self.make_result("adaptivefl", 0.5)}
        assert "10.00" in render_waste_table(results)

    def test_paper_reference_tables_are_consistent(self):
        # AdaptiveFL must be the best "full" entry of every Table 2 cell, as claimed.
        for model_rows in PAPER_TABLE2.values():
            for cell in model_rows.values():
                best = max(cell.items(), key=lambda item: item[1][1])
                assert best[0] == "adaptivefl"
        assert set(PAPER_TABLE3) == {"4:3:3", "8:1:1", "1:8:1", "1:1:8"}
        assert set(PAPER_TABLE4) == {"cifar10", "cifar100"}
