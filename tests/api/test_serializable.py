"""The declared codec: every ``Serializable`` class round-trips through JSON and refuses bad payloads."""

import json

import pytest

from repro.api.cli import main
from repro.api.spec import ExperimentSpec
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.history import RoundRecord
from repro.core.serialization import Serializable
from repro.engine.codecs import UpdateCodec, available_codecs, codec_from_dict, get_codec
from repro.experiments.runner import run_algorithm
from repro.experiments.settings import ExperimentSetting
from repro.obs.events import Event
from repro.sim.scenario import BatterySpec, ScenarioSpec, available_scenarios, get_scenario
from repro.store.sweep import SweepSpec

SPEC = ExperimentSpec(
    setting=ExperimentSetting(dataset="cifar100", distribution="dirichlet", alpha=0.3, seed=2, scenario="flaky_edge",
                              transport_codec="int8", overrides={"num_rounds": 2}),
    algorithms=("heterofl", "adaptivefl"),
    selection_strategy="random",
    num_rounds=2,
    output_dir="out",
)
VALUES = [
    *(get_scenario(name) for name in available_scenarios()),
    *(get_codec(name) for name in available_codecs()),
    BatterySpec(capacity_joules=900.0, compute_watts=1.5),
    LocalTrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.05, momentum=0.9, max_batches_per_epoch=7),
    FederatedConfig(num_rounds=4, clients_per_round=3, scenario="flaky_edge", transport_codec="topk"),
    ModelPoolConfig(models_per_level=2, level_width_ratios={"L": 1.0, "M": 0.5, "S": 0.3}, start_layers=(5, 3),
                    min_start_layer=2),
    AdaptiveFLConfig(federated=FederatedConfig(num_rounds=4), selection_strategy="rl-c", resource_reward_cap=0.7),
    SPEC.setting,
    SPEC,
    SweepSpec(base=SPEC, seeds=(0, 1), scenarios=(None, "flaky_edge")),
    Event(type="round_end", timestamp=12.5, source="server", trace_id="t1", span_id="s1",
          data={"round": 3, "clients": [1, 2]}),
]


def load(payload: dict, like: Serializable) -> Serializable:
    """``from_dict`` of ``like``'s class; a codec goes through its registry name."""
    return codec_from_dict(payload) if isinstance(like, UpdateCodec) else type(like).from_dict(payload)


def check_round_trip(value: Serializable) -> None:
    payload = value.to_dict()
    assert load(json.loads(json.dumps(payload)), value) == value
    with pytest.raises(ValueError, match="not_a_field"):
        load({**payload, "not_a_field": 1}, value)


@pytest.mark.parametrize("value", VALUES, ids=lambda value: f"{type(value).__name__}-{getattr(value, 'name', '')}")
def test_json_round_trip_and_unknown_key(value):
    check_round_trip(value)


@pytest.fixture(scope="module")
def run_records(ci_prepared):
    """The records of a real 2-round run under a scenario (fleet fields populated)."""
    return run_algorithm("adaptivefl", ci_prepared, num_rounds=2, scenario="flaky_edge").history.records


def test_round_records_of_a_real_run_round_trip(run_records):
    assert len(run_records) == 2
    for record in run_records:
        check_round_trip(record)
        assert list(record.to_dict())[0] == "round"


def test_every_serializable_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    ours = {cls for cls in subclasses(Serializable) if cls.__module__.startswith("repro.") and cls is not UpdateCodec}
    covered = {type(value) for value in VALUES} | {RoundRecord}
    covered |= {type(part) for spec in VALUES if isinstance(spec, ScenarioSpec)
                for part in (*spec.devices, spec.network, spec.availability)}
    assert ours <= covered, sorted(cls.__name__ for cls in ours - covered)


FLAKY = get_scenario("flaky_edge").to_dict()


@pytest.mark.parametrize(
    ("cls", "payload", "field_name"),
    [
        (SweepSpec, {"seeds": 3}, "seeds"),
        (SweepSpec, {"scenarios": 5}, "scenarios"),
        (ExperimentSpec, {"algorithms": "adaptivefl"}, "algorithms"),
        (ScenarioSpec, {**FLAKY, "battery": [1]}, "battery"),
        (ScenarioSpec, {**FLAKY, "network": 5}, "network"),
        (RoundRecord, {"round": 0, "selected_clients": [1.5]}, "selected_clients"),
    ],
    ids=["sweep-seeds", "sweep-scenarios", "spec-algorithms", "scenario-battery", "scenario-network",
         "record-fractional-client"],
)
def test_malformed_payload_is_refused_by_field(cls, payload, field_name):
    with pytest.raises(ValueError, match=field_name):
        cls.from_dict(payload)


def test_cli_sweep_spec_with_a_number_of_seeds_exits_2(tmp_path, capsys):
    payload = SweepSpec(base=ExperimentSpec(algorithms=("heterofl",), num_rounds=1)).to_dict()
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({**payload, "seeds": 3}), encoding="utf-8")
    assert main(["sweep", "--spec", str(spec_path), "--store", str(tmp_path / "store"), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert any(line.startswith("error:") and "seeds" in line for line in (captured.out + captured.err).splitlines())
