"""Algorithm-registry behaviour: completeness, capabilities, fail-fast."""

import pytest

from repro.api.registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
    validate_algorithm_names,
)
from repro.baselines.heterofl import HETEROFL_POOL_CONFIG
from repro.core.server import AdaptiveFL
from repro.api.session import ExperimentSession
from repro.experiments.settings import ExperimentSetting


@pytest.fixture(scope="module")
def prepared(ci_prepared):
    # the session-wide CI-scale snapshot from tests/conftest.py
    return ci_prepared


class TestCompleteness:
    def test_canonical_order(self):
        assert available_algorithms() == ("all_large", "decoupled", "heterofl", "scalefl", "adaptivefl")

    def test_every_spec_is_instantiable_from_algorithm_kwargs(self, prepared):
        for name in available_algorithms():
            spec = get_algorithm(name)
            algorithm = spec.build(prepared)
            assert algorithm.name == name
            assert algorithm.num_clients == prepared.scale.num_clients

    def test_descriptions_present(self):
        for name in available_algorithms():
            assert get_algorithm(name).description


class TestCapabilities:
    def test_heterofl_declares_pool_exclusion(self, prepared):
        spec = get_algorithm("heterofl")
        assert not spec.uses_pool_config
        algorithm = spec.build(prepared)
        # it keeps its canonical fixed pool rather than the experiment's
        assert algorithm.pool.config == HETEROFL_POOL_CONFIG

    def test_adaptivefl_declares_algorithm_config(self, prepared):
        spec = get_algorithm("adaptivefl")
        assert spec.uses_algorithm_config and spec.uses_selection_strategy
        algorithm = spec.build(prepared, selection_strategy="rl-c")
        assert isinstance(algorithm, AdaptiveFL)
        assert algorithm.strategy == "rl-c"

    def test_selection_strategy_rejected_for_baselines(self, prepared):
        with pytest.raises(ValueError, match="selection strategy"):
            get_algorithm("heterofl").build(prepared, selection_strategy="random")

    def test_run_labels(self):
        spec = get_algorithm("adaptivefl")
        assert spec.run_label(None) == "adaptivefl"
        assert spec.run_label("rl-cs") == "adaptivefl"
        assert spec.run_label("greedy") == "adaptivefl+greedy"
        assert get_algorithm("scalefl").run_label(None) == "scalefl"


class TestFailFast:
    def test_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="adaptivefl"):
            get_algorithm("fedprox")

    def test_validation_happens_before_data_preparation(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("prepare_experiment must not run for unknown algorithms")

        monkeypatch.setattr("repro.api.session.prepare_experiment", explode)
        session = ExperimentSession(ExperimentSetting(model="simple_cnn", scale="ci"))
        with pytest.raises(KeyError, match="fedprox"):
            session.compare(("heterofl", "fedprox"))
        assert session.results == {}  # not even the valid name ran

    def test_validate_returns_names(self):
        assert validate_algorithm_names(["heterofl"]) == ("heterofl",)


class TestCustomRegistration:
    def test_register_build_and_unregister(self, prepared):
        from repro.baselines.fedavg import AllLargeFedAvg

        @register_algorithm("all_large_again", description="clone", order=99)
        class Clone(AllLargeFedAvg):
            name = "all_large_again"

        try:
            assert "all_large_again" in available_algorithms()
            algorithm = get_algorithm("all_large_again").build(prepared)
            assert algorithm.name == "all_large_again"
        finally:
            unregister_algorithm("all_large_again")
        assert "all_large_again" not in available_algorithms()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("adaptivefl")(object)

    def test_bare_decorator_is_refused(self):
        from repro.baselines.fedavg import AllLargeFedAvg

        before = available_algorithms()
        with pytest.raises(TypeError, match="algorithm's name"):

            @register_algorithm
            class Bare(AllLargeFedAvg):
                name = "bare"

        assert available_algorithms() == before

    def test_with_kwargs_binds_constructor_arguments(self, prepared):
        spec = get_algorithm("scalefl").with_kwargs(
            level_specs={"S": (0.3, 0.5, 0.1), "M": (0.6, 0.75, 0.15), "L": (1.0, 1.0, 1.0)}
        )
        algorithm = spec.build(prepared)
        assert set(algorithm.level_specs) == {"S", "M", "L"}
        assert algorithm.level_specs["S"][0] == pytest.approx(0.3)
