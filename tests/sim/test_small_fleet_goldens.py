"""Small-fleet goldens: the pinned traces of the fleet and selection code.

``golden/small_fleet.json`` holds

* per-round hashes of the availability mask, every
  :class:`~repro.sim.fleet.RoundOutcome` column and the battery state
  of a :class:`~repro.sim.fleet.FleetSimulator` driven alone, under every
  dynamic subsystem (markov churn + jitter + dropouts + batteries +
  relative deadline, a gated server, a fixed deadline with empty rounds, a
  byte budget, diurnal duty cycles) and under the two static scenarios
  (``paper_testbed`` at its 17 clients, a jitter-free copy of the dynamic
  device mix) that take the closed-form branch, and
* history + final-weights hashes of 17-client AdaptiveFL and HeteroFL runs
  without a scenario and under ``flaky_edge``, ``congested_network``
  (gated), ``battery_constrained``, a binding ``round_byte_budget`` and a
  fixed deadline that leaves a round empty,

each at two seeds, plus the readable per-round aggregation counts, so a
drift shows *what* moved and not only that a hash did.  An AdaptiveFL
``flaky_edge`` run crashed mid-way and resumed from its store must land
on the same golden.

The fixtures were generated on the last commit that still had a second
fleet engine, a dense RL selector and per-client draws, with the path
that survives forced on — they are what that commit's streaming selector
and vectorised engine with batched draws produced at this size.
Regenerate only for a deliberate trace change:
``PYTHONPATH=src python tests/sim/test_small_fleet_goldens.py``.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api.callbacks import Callback
from repro.baselines import HeteroFL
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.server import AdaptiveFL
from repro.data.datasets import SyntheticTaskConfig, synthesize_classification_task
from repro.data.partition import iid_partition
from repro.devices.resources import ResourceModel
from repro.devices.testbed import TestbedSimulator
from repro.nn.models import SlimmableSimpleCNN
from repro.sim.fleet import DispatchBatch, FleetSimulator
from repro.sim.scenario import (
    AvailabilitySpec,
    BatterySpec,
    DeviceTemplate,
    NetworkSpec,
    ScenarioSpec,
    get_scenario,
)
from repro.store.objects import canonical_json, sha256_hex
from repro.store.runstore import RunRecorder, RunStore

GOLDEN_PATH = Path(__file__).parent / "golden" / "small_fleet.json"
SEEDS = (0, 1)


# -- the fleet alone ---------------------------------------------------------------------

DEVICES = (
    DeviceTemplate(
        name="weak", device_class="weak", flops_per_second=5e5, bandwidth_mbps=4.0,
        fraction=0.5, compute_jitter=0.2, link_latency_s=0.05, link_jitter_s=0.02,
    ),
    DeviceTemplate(
        name="strong", device_class="strong", flops_per_second=2e6, bandwidth_mbps=20.0,
        fraction=0.5, compute_jitter=0.1, link_latency_s=0.01, link_jitter_s=0.01,
    ),
)
STOCHASTIC = ScenarioSpec(
    name="stochastic",
    devices=DEVICES,
    availability=AvailabilitySpec(kind="markov", p_drop=0.2, p_join=0.7),
    battery=BatterySpec(capacity_joules=45.0, compute_watts=2.0, recharge_watts=0.5, min_charge_fraction=0.2),
    dropout_rate=0.15,
    deadline_factor=2.0,
)
FLEET_SPECS = {
    "stochastic": STOCHASTIC,
    "gated": replace(STOCHASTIC, name="gated", network=NetworkSpec(server_concurrency=2), deadline_factor=None),
    "fixed_deadline": replace(STOCHASTIC, name="fixed_deadline", deadline_factor=None, deadline_seconds=8.0),
    "byte_budget": ScenarioSpec(name="byte_budget", devices=DEVICES, dropout_rate=0.1, round_byte_budget=1_500_000),
    "diurnal": ScenarioSpec(
        name="diurnal",
        devices=DEVICES,
        availability=AvailabilitySpec(kind="diurnal", period_rounds=4, on_fraction=0.5),
    ),
    # static: no jitter, churn, contention or deadline — the closed-form branch
    "paper_testbed": get_scenario("paper_testbed"),
    "static_mix": ScenarioSpec(
        name="static_mix",
        devices=tuple(
            replace(device, compute_jitter=0.0, link_latency_s=0.0, link_jitter_s=0.0) for device in DEVICES
        ),
    ),
}
FLEET_CLIENTS = {name: 17 if name == "paper_testbed" else 24 for name in FLEET_SPECS}
FLEET_ROUNDS = 6
FLEET_CASES = [(name, seed) for name in FLEET_SPECS for seed in SEEDS]


def fleet_trace(name, seed):
    """Drive one fleet for ``FLEET_ROUNDS`` rounds; hash everything it decided."""
    fleet = FleetSimulator(FLEET_SPECS[name], num_clients=FLEET_CLIENTS[name], seed=seed)
    rounds, aggregated, sitting_out = [], [], []
    for round_index in range(FLEET_ROUNDS):
        mask = fleet.available_mask(round_index)
        clients = np.flatnonzero(mask)[::2][:8]  # every other reachable client: both device classes
        if name == "fixed_deadline" and round_index % 2 == 0:
            clients = clients[:0]  # a round nobody is dispatched in
        batch = DispatchBatch(
            client_ids=clients,
            params_down=40_000,
            params_up=2_000 * (clients % 7 + 1),
            flops_per_sample=20_000,
            num_samples=60,
            local_epochs=2,
        )
        outcome = fleet.simulate_round(round_index, batch)
        state = fleet.state_dict()
        deadline = np.nan if outcome.deadline_seconds is None else outcome.deadline_seconds
        columns = [
            mask, outcome.client_ids, outcome.bytes_down, outcome.bytes_up, outcome.finish_seconds,
            outcome.dropped, outcome.aggregated, outcome.compute_seconds, outcome.failure_seconds,
            np.array([deadline, outcome.round_seconds], dtype=np.float64),
            np.zeros(0) if state["charge"] is None else state["charge"],
            np.array(state["recovering"], dtype=np.int64),
        ]
        rounds.append(sha256_hex(b"".join(np.ascontiguousarray(column).tobytes() for column in columns)))
        aggregated.append(f"{int(outcome.aggregated.sum())}/{len(outcome)}")
        sitting_out.append(len(state["recovering"]))
    return {"rounds": rounds, "aggregated": aggregated, "sitting_out": sitting_out}


# -- end to end --------------------------------------------------------------------------

E2E_ROUNDS = 4
E2E_CRASH_AT = 2
ALGORITHMS = {"adaptivefl": AdaptiveFL, "heterofl": HeteroFL}
BATTERY = get_scenario("battery_constrained")
SCENARIOS = {
    "plain": None,
    "flaky_edge": "flaky_edge",
    "congested_network": "congested_network",
    # the shipped battery sized down to this tiny model, so clients die mid-round and sit out
    "battery_constrained": replace(BATTERY, battery=replace(BATTERY.battery, capacity_joules=0.12)),
    "byte_budget": replace(get_scenario("congested_network"), name="byte_budget", round_byte_budget=520_000),
    "fixed_deadline": replace(
        get_scenario("flaky_edge"), name="fixed_deadline", deadline_factor=None, deadline_seconds=0.25
    ),
}
E2E_CASES = [(algorithm, scenario, seed) for algorithm in ALGORITHMS for scenario in SCENARIOS for seed in SEEDS]


@pytest.fixture(scope="module")
def federation():
    return build_federation()


def build_federation():
    """A tiny 17-client federation (the paper's test-bed size)."""
    arch = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=32)
    config = SyntheticTaskConfig(
        num_classes=4, input_shape=(1, 8, 8), train_samples=510, test_samples=170,
        clusters_per_class=1, noise_std=0.35, label_noise=0.0, seed=11,
    )
    train, test = synthesize_classification_task(config)
    profiles = TestbedSimulator().build_profiles()
    return dict(
        architecture=arch,
        train_dataset=train,
        partition=iid_partition(train, 17, np.random.default_rng(2)),
        test_dataset=test,
        profiles=profiles,
        resource_model=ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=2),
    )


def build_algorithm(federation, algorithm, scenario, seed):
    pool = ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1)
    federated = FederatedConfig(num_rounds=E2E_ROUNDS, clients_per_round=5, eval_every=2)
    local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
    extra = {}
    if algorithm == "adaptivefl":
        extra["algorithm_config"] = AdaptiveFLConfig(federated=federated, local=local, pool=pool)
    return ALGORITHMS[algorithm](
        **federation, pool_config=pool, federated_config=federated, local_config=local,
        scenario=SCENARIOS[scenario], seed=seed, **extra,
    )


def fingerprint(algorithm):
    weights = b"".join(
        key.encode("utf-8") + algorithm.global_state[key].tobytes() for key in sorted(algorithm.global_state)
    )
    return {
        "history": sha256_hex(canonical_json(algorithm.history.to_dict()).encode("utf-8")),
        "weights": sha256_hex(weights),
        "aggregated": [
            f"{len(record.selected_clients) - len(record.dropped_clients)}/{len(record.selected_clients)}"
            for record in algorithm.history.records
        ],
    }


def e2e_case(federation, algorithm, scenario, seed):
    built = build_algorithm(federation, algorithm, scenario, seed)
    built.run()
    return fingerprint(built)


class CrashBefore(Callback):
    def __init__(self, round_index):
        self.round_index = round_index

    def on_round_start(self, algorithm, round_index):
        if round_index == self.round_index:
            raise KeyboardInterrupt(f"injected crash before round {round_index}")


def case_name(*parts):
    return "-".join(str(part) for part in parts[:-1]) + f"-seed{parts[-1]}"


def counts(case):
    """A fixture entry's per-round ``"aggregated/dispatched"`` strings as int pairs."""
    return [tuple(map(int, entry.split("/"))) for entry in case["aggregated"]]


def fell_short(case):
    """True when some round aggregated fewer updates than it dispatched."""
    return any(done < sent for done, sent in counts(case))


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestFleetGoldens:
    @pytest.mark.parametrize("name,seed", FLEET_CASES)
    def test_round_outcomes(self, goldens, name, seed):
        assert fleet_trace(name, seed) == goldens["fleet"][case_name(name, seed)]

    def test_cases_show_their_dynamics(self, goldens):
        """Each spec exercises the subsystem it is named for (read off the fixture)."""
        for seed in SEEDS:
            cases = {name: goldens["fleet"][case_name(name, seed)] for name in FLEET_SPECS}
            assert fell_short(cases["stochastic"]) and any(cases["stochastic"]["sitting_out"])
            assert fell_short(cases["byte_budget"])
            assert [sent for _, sent in counts(cases["fixed_deadline"])][::2] == [0, 0, 0]
            for static in ("paper_testbed", "static_mix"):
                assert FLEET_SPECS[static].is_static and not fell_short(cases[static])


class TestEndToEndGoldens:
    @pytest.mark.parametrize("algorithm,scenario,seed", E2E_CASES)
    def test_history_and_weights_hashes(self, goldens, federation, algorithm, scenario, seed):
        assert e2e_case(federation, algorithm, scenario, seed) == goldens["e2e"][case_name(algorithm, scenario, seed)]

    def test_cases_show_their_dynamics(self, goldens):
        for algorithm in ALGORITHMS:
            for seed in SEEDS:
                empty = [done == 0 for done, _ in counts(goldens["e2e"][case_name(algorithm, "fixed_deadline", seed)])]
                assert any(empty) and not all(empty)
                for scenario in ("flaky_edge", "battery_constrained", "byte_budget"):
                    assert fell_short(goldens["e2e"][case_name(algorithm, scenario, seed)]), scenario

    def test_crash_and_resume_reproduces_the_golden(self, goldens, federation, tmp_path):
        store = RunStore(tmp_path / "store")
        run_id = store.begin_run({"suite": "small-fleet-goldens"}).run_id
        crashed = build_algorithm(federation, "adaptivefl", "flaky_edge", 0)
        with pytest.raises(KeyboardInterrupt):
            crashed.run(callbacks=[CrashBefore(E2E_CRASH_AT), RunRecorder(store, run_id)])
        resumed = build_algorithm(federation, "adaptivefl", "flaky_edge", 0)
        resumed.restore_checkpoint(store.load_checkpoint(run_id))
        resumed.run(num_rounds=E2E_ROUNDS - E2E_CRASH_AT)
        assert fingerprint(resumed) == goldens["e2e"][case_name("adaptivefl", "flaky_edge", 0)]


if __name__ == "__main__":
    shared = build_federation()
    fixtures = {
        "fleet": {case_name(*case): fleet_trace(*case) for case in FLEET_CASES},
        "e2e": {case_name(*case): e2e_case(shared, *case) for case in E2E_CASES},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(FLEET_CASES)} fleet + {len(E2E_CASES)} end-to-end cases)", file=sys.stderr)
