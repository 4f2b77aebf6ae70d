"""Round goldens: every registered algorithm, pinned round by round.

``golden/rounds.json`` holds, for each of the five registered algorithms ×
{no scenario, ``flaky_edge``, ``paper_testbed``} × {``none``/``delta``,
``int8``/``delta``, ``topk``/``delta``}, the hash of every round's
``RoundRecord.to_dict()`` and of the final global weights of a 4-round,
17-client run at seed 3 — 45 cells.  Only AdaptiveFL and
HeteroFL had end-to-end fingerprints before (``tests/sim``,
``tests/store``, ``tests/perf``); All-Large, ScaleFL and Decoupled had
none.  The readable ``selected`` / ``aggregated`` columns say *what* moved
when a hash does.

All 45 cells run on the serial executor; the exact and the top-k (error
feedback) ``flaky_edge`` cells of each algorithm run again on ``thread``
and ``process`` and must land on the same entry.  Test ids contain the
executor name on purpose: CI's executor-parity matrix filters
``tests/engine`` with ``-k "serial|process|remote"``.

Regenerate only for a deliberate trace change:
``PYTHONPATH=src python tests/engine/test_round_goldens.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import available_algorithms, get_algorithm
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.pruning import slice_state_dict
from repro.data.datasets import SyntheticTaskConfig, synthesize_classification_task
from repro.data.partition import iid_partition
from repro.devices.resources import ResourceModel
from repro.devices.testbed import TestbedSimulator
from repro.engine.transport import state_nbytes
from repro.nn.dtype import resolve_dtype
from repro.nn.models import SlimmableSimpleCNN
from repro.store.objects import canonical_json, sha256_hex

GOLDEN_PATH = Path(__file__).parent / "golden" / "rounds.json"
SEED = 3
ROUNDS = 4
ALGORITHMS = ("all_large", "decoupled", "heterofl", "scalefl", "adaptivefl")
SCENARIOS = {"plain": None, "flaky_edge": "flaky_edge", "paper_testbed": "paper_testbed"}
#: (transport codec, transport)
WIRES = {
    "none-delta": ("none", "delta"),
    "int8-delta": ("int8", "delta"),
    "topk-delta": ("topk", "delta"),
}
SERIAL_CASES = [(name, scenario, wire) for name in ALGORITHMS for scenario in SCENARIOS for wire in WIRES]
#: the cells the parallel executors repeat: deadline drops and over-selection in play
PARALLEL_CASES = [(name, "flaky_edge", wire) for name in ALGORITHMS for wire in ("none-delta", "topk-delta")]


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


def build_algorithm(federation, name, scenario, wire, executor="serial"):
    codec, transport = WIRES[wire]
    pool = ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1)
    federated = FederatedConfig(
        num_rounds=ROUNDS, clients_per_round=5, eval_every=2, transport=transport,
        transport_codec=codec, executor=executor, max_workers=2,
    )
    local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
    spec = get_algorithm(name)
    kwargs = dict(federation, federated_config=federated, local_config=local, scenario=SCENARIOS[scenario], seed=SEED)
    if spec.uses_pool_config:
        kwargs["pool_config"] = pool
    if spec.uses_algorithm_config:
        kwargs["algorithm_config"] = AdaptiveFLConfig(federated=federated, local=local, pool=pool)
    return spec.factory(**kwargs)


def fingerprint(algorithm):
    records = algorithm.history.records
    weights = b"".join(
        key.encode("utf-8") + algorithm.global_state[key].tobytes() for key in sorted(algorithm.global_state)
    )
    return {
        "rounds": [sha256_hex(canonical_json(record.to_dict()).encode("utf-8")) for record in records],
        "weights": sha256_hex(weights),
        "selected": [record.selected_clients for record in records],
        "aggregated": [
            f"{len(record.selected_clients) - len(record.dropped_clients)}/{len(record.selected_clients)}"
            for record in records
        ],
    }


def run_case(federation, name, scenario, wire, executor="serial"):
    algorithm = build_algorithm(federation, name, scenario, wire, executor)
    algorithm.run()
    return fingerprint(algorithm)


def case_name(name, scenario, wire):
    return f"{name}-{scenario}-{wire}"


@pytest.fixture(scope="module")
def federation():
    return build_federation()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_the_matrix_covers_every_registered_algorithm(goldens):
    assert sorted(ALGORITHMS) == sorted(available_algorithms())
    assert sorted(goldens) == sorted(case_name(*case) for case in SERIAL_CASES)


def test_flaky_edge_cells_drop_uploads(goldens):
    """The column the parallel executors repeat exercises the dropped-slot bookkeeping."""
    for name in ALGORITHMS:
        done_sent = [
            tuple(map(int, entry.split("/")))
            for entry in goldens[case_name(name, "flaky_edge", "none-delta")]["aggregated"]
        ]
        assert any(done < sent for done, sent in done_sent), name


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_serial_planning_alone_draws_the_pinned_clients(goldens, federation, name, scenario):
    """``plan_round`` takes from the round's generator exactly what the whole round used to."""
    algorithm = build_algorithm(federation, name, scenario, "none-delta")
    for round_index, selected in enumerate(goldens[case_name(name, scenario, "none-delta")]["selected"]):
        plan = algorithm.plan_round(round_index, algorithm.round_rng(round_index))
        assert plan.clients == selected
        # the fleet's batteries and availability advance with the simulated round
        algorithm.plan_round_outcome(round_index, plan.clients, plan.dispatched, plan.returned)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_plain_exact_rounds_count_parameters_down_and_whole_slices_up(federation, name):
    """Without a scenario or a codec, ``bytes_down`` is the modelled downlink — the
    parameters of each slot's planned-return slice, batch-norm statistics excluded —
    and ``bytes_up`` the XOR deltas of the whole trained slices, statistics included."""
    planner = build_algorithm(federation, name, "plain", "none-delta")
    algorithm = build_algorithm(federation, name, "plain", "none-delta")
    arch, itemsize = federation["architecture"], np.dtype(resolve_dtype()).itemsize
    for round_index in range(2):
        plan = planner.plan_round(round_index, planner.round_rng(round_index))
        streams = algorithm.round_streams()
        slices = [
            slice_state_dict(streams[stream], arch, dict(sizes))
            for stream, sizes in zip(plan.streams, plan.group_sizes)
        ]
        record = algorithm.run_round(round_index)
        assert record.selected_clients == plan.clients
        assert record.bytes_down == itemsize * sum(arch.parameter_count(sizes) for sizes in plan.group_sizes)
        assert record.bytes_up == sum(state_nbytes(piece) for piece in slices)
        assert record.bytes_down < record.bytes_up


@pytest.mark.parametrize("executor", ["serial"])
@pytest.mark.parametrize("name,scenario,wire", SERIAL_CASES)
def test_round_and_weights_hashes(goldens, federation, name, scenario, wire, executor):
    assert run_case(federation, name, scenario, wire, executor) == goldens[case_name(name, scenario, wire)]


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("name,scenario,wire", PARALLEL_CASES)
def test_parallel_executors_land_on_the_serial_golden(goldens, federation, name, scenario, wire, executor):
    assert run_case(federation, name, scenario, wire, executor) == goldens[case_name(name, scenario, wire)]


if __name__ == "__main__":
    shared = build_federation()
    fixtures = {case_name(*case): run_case(shared, *case) for case in SERIAL_CASES}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(SERIAL_CASES)} cells)", file=sys.stderr)
