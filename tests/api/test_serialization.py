"""Config ``to_dict``/``from_dict`` round-trips and payload validation."""

import json

import pytest

from repro.api.spec import ExperimentSpec
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.experiments.settings import ExperimentSetting

NON_DEFAULT_CONFIGS = [
    LocalTrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.05, momentum=0.9, max_batches_per_epoch=7),
    FederatedConfig(num_rounds=12, clients_per_round=3, eval_every=4, eval_batch_size=64, seed=9),
    FederatedConfig(num_rounds=2, clients_per_round=2, scenario="flaky_edge"),
    ModelPoolConfig(models_per_level=2, level_width_ratios={"L": 1.0, "M": 0.5, "S": 0.3}, start_layers=(5, 3), min_start_layer=2),
    AdaptiveFLConfig(
        federated=FederatedConfig(num_rounds=4),
        local=LocalTrainingConfig(local_epochs=1),
        pool=ModelPoolConfig(models_per_level=1, start_layers=(4,), min_start_layer=2),
        selection_strategy="rl-c",
        resource_reward_cap=0.7,
    ),
    ExperimentSetting(dataset="cifar100", model="simple_cnn", distribution="dirichlet", alpha=0.3,
                      proportion="8:1:1", scale="ci", seed=3, executor="process", max_workers=4,
                      overrides={"num_rounds": 2}),
    ExperimentSetting(model="simple_cnn", scale="ci", scenario="paper_testbed"),
]


@pytest.mark.parametrize("config", NON_DEFAULT_CONFIGS, ids=lambda c: type(c).__name__)
class TestRoundTrip:
    def test_identity(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    def test_json_round_trip(self, config):
        payload = json.loads(json.dumps(config.to_dict()))
        assert type(config).from_dict(payload) == config


@pytest.mark.parametrize(
    "cls",
    [LocalTrainingConfig, FederatedConfig, ModelPoolConfig, AdaptiveFLConfig, ExperimentSetting],
)
class TestBadPayloads:
    def test_unknown_key_rejected(self, cls):
        payload = cls().to_dict()
        payload["not_a_field"] = 1
        with pytest.raises(ValueError, match="not_a_field"):
            cls.from_dict(payload)

    def test_non_mapping_rejected(self, cls):
        with pytest.raises(ValueError, match="mapping"):
            cls.from_dict([1, 2, 3])


class TestValidationStillApplies:
    def test_bad_value_hits_post_init(self):
        payload = LocalTrainingConfig().to_dict()
        payload["batch_size"] = -1
        with pytest.raises(ValueError, match="batch_size"):
            LocalTrainingConfig.from_dict(payload)

    def test_unknown_scenario_rejected_everywhere(self):
        with pytest.raises(ValueError, match="registered"):
            FederatedConfig(scenario="lunar_base")
        with pytest.raises(ValueError, match="registered"):
            ExperimentSetting(model="simple_cnn", scenario="lunar_base")

    def test_nested_pool_validation(self):
        payload = AdaptiveFLConfig().to_dict()
        payload["pool"]["start_layers"] = [1, 2, 3]  # must be sorted descending
        with pytest.raises(ValueError, match="start_layers"):
            AdaptiveFLConfig.from_dict(payload)

    def test_partial_payload_uses_defaults(self):
        config = AdaptiveFLConfig.from_dict({"selection_strategy": "random"})
        assert config.selection_strategy == "random"
        assert config.federated == FederatedConfig()

    def test_start_layers_list_coerced_to_tuple(self):
        config = ModelPoolConfig.from_dict({"models_per_level": 2, "start_layers": [5, 3], "min_start_layer": 2})
        assert config.start_layers == (5, 3)

    def test_fractional_start_layers_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="whole numbers"):
            ModelPoolConfig.from_dict({"models_per_level": 2, "start_layers": [7.9, 6], "min_start_layer": 2})

    def test_whole_float_start_layers_accepted(self):
        config = ModelPoolConfig.from_dict({"models_per_level": 2, "start_layers": [5.0, 3.0], "min_start_layer": 2})
        assert config.start_layers == (5, 3)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (FederatedConfig, "num_rounds", 2.5),
            (FederatedConfig, "num_rounds", True),
            (FederatedConfig, "seed", "x"),
            (LocalTrainingConfig, "batch_size", 1.5),
            (ExperimentSetting, "seed", "x"),
        ],
    )
    def test_a_wrongly_typed_scalar_is_refused_by_its_field(self, cls, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cls.from_dict({field: value})

    def test_scalars_load_by_their_annotation(self):
        assert FederatedConfig.from_dict({"num_rounds": 2.0}).num_rounds == 2
        assert type(FederatedConfig.from_dict({"num_rounds": 2.0}).num_rounds) is int
        for value in (True, "0.1"):
            with pytest.raises(ValueError, match="^learning_rate must be a number"):
                LocalTrainingConfig.from_dict({"learning_rate": value})
        for field, value in (("scenario", 3), ("transport", None)):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                FederatedConfig.from_dict({field: value})


class TestExperimentSpec:
    def spec(self):
        return ExperimentSpec(
            setting=ExperimentSetting(model="simple_cnn", scale="ci"),
            algorithms=("heterofl", "adaptivefl"),
            selection_strategy="rl-cs",
            num_rounds=2,
        )

    def test_round_trip(self):
        spec = self.spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_save_load(self, tmp_path):
        spec = self.spec()
        path = spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == spec
        # the file is real JSON
        assert json.loads(path.read_text())["algorithms"] == ["heterofl", "adaptivefl"]

    def test_algorithms_coerced_to_tuple(self):
        spec = ExperimentSpec.from_dict({"algorithms": ["heterofl"]})
        assert spec.algorithms == ("heterofl",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            ExperimentSpec.from_dict({"budget": 10})

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError, match="num_rounds"):
            ExperimentSpec.from_dict({"num_rounds": 0})
