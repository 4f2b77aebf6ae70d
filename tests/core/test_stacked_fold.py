"""The uploads of a stacked pass fold as one stack, bit for bit as they would one by one.

A stacked pass hands back each client's upload as a :class:`StackRow`, a
read-only row of the pass's :class:`UploadStack`.  The aggregator weights
a stack with one multiply per tensor and adds its rows in submission
order; the decode checks the stack's layout and finiteness once.  The
reference is the per-upload fold this replaced, written out below: every
upload multiplied by its Python-float weight into a block of the state's
dtype, added in submission order, its weight added upload by upload.

Which mistake each test is there to catch:

* weighting a ``float32`` stack with a ``float64`` weight column —
  ``test_a_round_of_stacks_folds_as_its_uploads_one_by_one`` (a ``float32``
  stack into a ``float64`` state) and ``test_exact_and_encoded_uploads_fold_in_one_round``;
* adding a stack's rows together instead of in submission order —
  ``test_a_round_of_stacks_folds_as_its_uploads_one_by_one`` (interleaved stacks);
* skipping the ``isfinite`` check of a stack's first row —
  ``test_a_row_that_is_not_a_number_is_refused_and_its_mates_fold``;
* folding a negative batch-norm variance, which evaluation would take the
  square root of — ``test_a_row_with_a_negative_variance_is_refused_and_its_mates_fold``.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import HeteroFL
from repro.core.aggregation import ClientUpdate, HeterogeneousAggregator, StackRow, UploadStack
from repro.core.config import FederatedConfig, LocalTrainingConfig
from repro.core.local_training import LocalTrainingResult
from repro.core.pruning import slice_state_dict
from repro.engine.codecs import NegativeStatisticError, NonFiniteUpdateError, encode_client_update, get_codec
from repro.engine.rng import client_stream
from repro.engine.tasks import encode_state_delta
from repro.obs.events import configure_telemetry, shutdown_telemetry

FULL_SHAPES = {"conv.weight": (12, 3, 3, 3), "conv.bias": (12,), "fc.weight": (30, 48), "bn.running_mean": (12,)}


def reference_fold(state, updates):
    """The per-upload fold: each upload weighted alone, its weight summed upload by upload."""
    accumulators = {name: np.zeros_like(value) for name, value in state.items()}
    weight_sums = {name: np.zeros_like(value) for name, value in state.items()}
    for update in updates:
        weight = float(update.num_samples)
        for name, value in update.state.items():
            region = tuple(slice(0, extent) for extent in np.shape(value))
            product = np.empty(np.shape(value), state[name].dtype)
            np.multiply(value, weight, out=product, casting="unsafe")
            accumulators[name][region] += product
            weight_sums[name][region] += weight
    merged = {}
    for name, value in state.items():
        merged[name] = value.copy()
        np.divide(accumulators[name], weight_sums[name], out=merged[name], where=weight_sums[name] > 0)
    return merged, weight_sums


def random_cut(rng) -> dict[str, tuple[int, ...]]:
    """A random prefix shape of every tensor."""
    return {name: tuple(int(rng.integers(1, extent + 1)) for extent in shape) for name, shape in FULL_SHAPES.items()}


def random_stack(rng, dtype, clients: int) -> UploadStack:
    """``clients`` uploads of one random cut, values spread over six decades, one sample count."""
    tensors = {
        name: (rng.standard_normal((clients, *shape)) * 10.0 ** rng.integers(-3, 3, (clients,) + (1,) * len(shape)))
        .astype(dtype)
        for name, shape in random_cut(rng).items()
    }
    return UploadStack(tensors, [int(rng.integers(1, 100))] * clients)


def assert_same(merged, expected) -> None:
    assert list(merged) == list(expected)
    for name, value in expected.items():
        assert merged[name].dtype == value.dtype
        assert merged[name].tobytes() == value.tobytes(), name


def plain(updates):
    """The same uploads as plain dicts of copies."""
    return [ClientUpdate({name: np.array(value) for name, value in update.state.items()}, update.num_samples)
            for update in updates]


@pytest.mark.parametrize(
    "state_dtype, upload_dtype",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32)],
    ids=["float32", "float64", "float32-into-float64"],
)
@pytest.mark.parametrize("clients", [(1,), (2,), (5,), (5, 2, 1, 5)], ids=["K1", "K2", "K5", "interleaved"])
def test_a_round_of_stacks_folds_as_its_uploads_one_by_one(state_dtype, upload_dtype, clients):
    rng = np.random.default_rng(sum(clients))
    aggregator = HeterogeneousAggregator()
    # two rounds through one aggregator: nothing of round one may reach round two
    for _ in range(2):
        state = {name: rng.standard_normal(shape).astype(state_dtype) for name, shape in FULL_SHAPES.items()}
        rows = [row for count in clients for row in random_stack(rng, upload_dtype, count).rows()]
        updates = [ClientUpdate(rows[index], rows[index].stack.weights[rows[index].row])
                   for index in rng.permutation(len(rows))]
        # and a plain-dict upload among them
        updates.insert(1, plain([ClientUpdate(random_stack(rng, upload_dtype, 1).rows()[0], 7)])[0])
        expected, _ = reference_fold(state, plain(updates))
        assert_same(aggregator.aggregate(state, updates), expected)


def test_the_weight_tally_equals_the_per_upload_sums():
    """30 uploads of one shape — five stacks and five plain uploads, mixed — and their weight sums."""
    rng = np.random.default_rng(30)
    state = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in FULL_SHAPES.items()}
    cut = random_cut(rng)
    updates = []

    def tensors(clients: tuple[int, ...]) -> dict[str, np.ndarray]:
        return {name: rng.standard_normal(clients + shape).astype(np.float32) for name, shape in cut.items()}

    for _ in range(5):
        weights = [int(weight) for weight in rng.integers(1, 1000, 5)]
        stack = UploadStack(tensors((5,)), weights)
        updates += [ClientUpdate(row, weight) for row, weight in zip(stack.rows(), weights)]
        updates.append(ClientUpdate(tensors(()), int(rng.integers(1, 1000))))
    assert len(updates) == 30
    aggregator = HeterogeneousAggregator()
    merged = aggregator.aggregate(state, updates)
    expected, weight_sums = reference_fold(state, plain(updates))
    assert_same(merged, expected)
    for name, value in weight_sums.items():
        assert aggregator._buffers[name][1].tobytes() == value.tobytes(), name
        region = tuple(slice(0, extent) for extent in cut[name])
        assert value[region].min() == sum(update.num_samples for update in updates)


def test_a_plain_dict_upload_folds_as_a_stack_of_one():
    rng = np.random.default_rng(7)
    state = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in FULL_SHAPES.items()}
    stack = random_stack(rng, np.float32, 1)
    (row,) = stack.rows()
    as_dict = plain([ClientUpdate(row, 9)])
    expected, _ = reference_fold(state, as_dict)
    assert_same(HeterogeneousAggregator().aggregate(state, as_dict), expected)
    assert_same(HeterogeneousAggregator().aggregate(state, [ClientUpdate(row, 9)]), expected)
    # a row whose weight is not its stack's is weighted alone, with the update's weight
    pair = random_stack(rng, np.float32, 2)
    updates = [ClientUpdate(pair.rows()[0], pair.weights[0] + 1), ClientUpdate(pair.rows()[1], pair.weights[1])]
    expected, _ = reference_fold(state, plain(updates))
    assert_same(HeterogeneousAggregator().aggregate(state, updates), expected)


def test_a_row_is_a_read_only_view_that_travels_as_a_plain_dict():
    stack = random_stack(np.random.default_rng(8), np.float32, 3)
    row = stack.rows()[1]
    assert isinstance(row, StackRow) and list(row) == list(stack.tensors) and len(row) == len(stack.tensors)
    for name, value in row.items():
        assert np.shares_memory(value, stack.tensors[name]) and value.shape == stack.tensors[name].shape[1:]
    with pytest.raises(TypeError):
        row["conv.bias"] = np.zeros(1)  # type: ignore[index]
    travelled = pickle.loads(pickle.dumps(row))
    assert type(travelled) is dict and list(travelled) == list(row)
    for name, value in row.items():
        assert travelled[name].tobytes() == value.tobytes()
    assert encode_state_delta(row) is row
    assert stack.row_nbytes == sum(value.nbytes for value in row.values())
    with pytest.raises(ValueError, match="needs 3 rows"):
        UploadStack({"w": np.zeros((2, 4))}, [1, 1, 1])


# -- through the algorithm ----------------------------------------------------------------

FEDERATED = FederatedConfig(num_rounds=1, clients_per_round=4, eval_every=1, transport="delta")
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=2)


@pytest.fixture
def algorithm(easy_setup):
    algorithm = HeteroFL(
        federated_config=FEDERATED,
        local_config=LOCAL,
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )
    yield algorithm
    algorithm.close()


def trained_stack(algorithm, sizes, clients: int, seed: int, poisoned: dict[int, str] | None = None):
    """``clients`` uploads of the ``sizes`` slice as one stack, ``poisoned[row]`` a NaN tensor of that row."""
    rng = np.random.default_rng(seed)
    start = slice_state_dict(algorithm.global_state, algorithm.architecture, dict(sizes))
    tensors = {
        name: (value + 0.01 * rng.standard_normal((clients, *value.shape))).astype(value.dtype)
        for name, value in start.items()
    }
    for row, name in (poisoned or {}).items():
        tensors[name][row].flat[0] = np.nan
    weight = int(rng.integers(10, 80))
    return [
        LocalTrainingResult(state=row, num_samples=weight, mean_loss=1.0, num_steps=1)
        for row in UploadStack(tensors, [weight] * clients).rows()
    ]


def levels(algorithm):
    return list(algorithm.level_group_sizes().values())


def test_exact_and_encoded_uploads_fold_in_one_round(algorithm):
    heads = levels(algorithm)
    small, large = heads[0], heads[-1]
    stacked = trained_stack(algorithm, small, 5, seed=1) + trained_stack(algorithm, large, 2, seed=2)
    order = [0, 5, 1, 2, 6, 3, 4]
    results = [stacked[index] for index in order]
    sizes = [small if index < 5 else large for index in order]
    # an int8 upload of the large slice, second and last
    start = slice_state_dict(algorithm.global_state, algorithm.architecture, dict(large))
    for position, client in ((1, 11), (len(results) + 1, 12)):
        noise = np.random.default_rng(client)
        trained = {name: value + 0.02 * noise.standard_normal(value.shape).astype(value.dtype)
                   for name, value in start.items()}
        encoded = encode_client_update(get_codec("int8"), trained, start, client_stream(0, 0, client), client_id=client)
        results.insert(position, LocalTrainingResult(state=encoded, num_samples=33, mean_loss=1.0, num_steps=1))
        sizes.insert(position, large)

    state = algorithm.global_state
    decoded = [
        ClientUpdate(algorithm.decode_result_state(result.state, size, state), result.num_samples)
        for result, size in zip(results, sizes)
    ]
    expected, _ = reference_fold(state, plain(decoded))
    bytes_before = algorithm._round_bytes_up
    assert algorithm.fold_results(results, sizes) == {}
    assert algorithm._round_bytes_up == 2 * bytes_before
    assert_same(algorithm.global_state, expected)


@pytest.mark.parametrize("nan_row", [0, 2])
def test_a_row_that_is_not_a_number_is_refused_and_its_mates_fold(algorithm, nan_row):
    (small, *_, large) = levels(algorithm)
    name = list(algorithm._slice_shapes(small))[1]
    results = trained_stack(algorithm, small, 3, seed=3, poisoned={nan_row: name})
    results.insert(1, trained_stack(algorithm, large, 1, seed=4)[0])
    sizes = [small, large, small, small]
    state = algorithm.global_state
    nan_position = nan_row + (nan_row >= 1)
    mates = [result for position, result in enumerate(results) if position != nan_position]
    expected, _ = reference_fold(state, plain([ClientUpdate(result.state, result.num_samples) for result in mates]))

    refused = algorithm.fold_results(results, sizes)
    assert list(refused) == [nan_position]
    assert isinstance(refused[nan_position], NonFiniteUpdateError)
    assert refused[nan_position].tensor == name
    assert_same(algorithm.global_state, expected)


def test_a_malformed_stack_is_refused_by_name_for_every_row(algorithm):
    small = levels(algorithm)[0]
    results = trained_stack(algorithm, small, 2, seed=5)
    stack = results[0].state.stack
    name = next(iter(stack.tensors))
    stack_of_doubles = UploadStack({**stack.tensors, name: stack.tensors[name].astype(np.float64)}, stack.weights)
    for row in stack_of_doubles.rows():
        with pytest.raises(ValueError, match=rf"upload tensor '{name}': expected .* float32, received .* float64$"):
            algorithm.decode_result_state(row, small, algorithm.global_state)
    before = {key: value.copy() for key, value in algorithm.global_state.items()}
    broken = [replace(result, state=row) for result, row in zip(results, stack_of_doubles.rows())]
    with pytest.raises(ValueError, match="upload tensor"):
        algorithm.fold_results(broken, [small, small])
    assert_same(algorithm.global_state, before)


def declared_variances(algorithm) -> set[str]:
    """The tensors the model declares non-negative: its batch-norm layers' ``running_var``."""
    declared = {spec.name for spec in algorithm.architecture.param_specs() if spec.nonnegative}
    assert declared and all(name.endswith(".running_var") for name in declared)
    return declared


@pytest.mark.parametrize("bad_row", [0, 2])
def test_a_row_with_a_negative_variance_is_refused_and_its_mates_fold(algorithm, bad_row):
    (small, *_, large) = levels(algorithm)
    name = next(name for name in algorithm._slice_shapes(small) if name in declared_variances(algorithm))
    results = trained_stack(algorithm, small, 3, seed=3)
    tensors = results[0].state.stack.tensors
    tensors[name][bad_row, 0] = -0.5
    # a mean may be negative: the rule is the layer's declaration, not a name match
    tensors[name.replace("running_var", "running_mean")] -= 5.0
    results.insert(1, trained_stack(algorithm, large, 1, seed=4)[0])
    sizes = [small, large, small, small]
    state = algorithm.global_state
    bad_position = bad_row + (bad_row >= 1)
    mates = [result for position, result in enumerate(results) if position != bad_position]
    expected, _ = reference_fold(state, plain([ClientUpdate(result.state, result.num_samples) for result in mates]))
    with pytest.raises(NegativeStatisticError, match=rf"negative value in tensor '{name}'"):
        algorithm.decode_result_state(dict(results[bad_position].state), small, state)

    refused = algorithm.fold_results(results, sizes)
    assert list(refused) == [bad_position]
    assert isinstance(refused[bad_position], NegativeStatisticError)
    assert refused[bad_position].tensor == name
    assert_same(algorithm.global_state, expected)


def test_a_negative_variance_drops_its_client_by_name(algorithm):
    name = sorted(declared_variances(algorithm))[0]
    execute = algorithm.execute_client_tasks

    def crafted(tasks):
        results = execute(tasks)
        upload = {key: np.array(value) for key, value in results[1].state.items()}
        upload[name][-1] = -1e-3
        results[1] = replace(results[1], state=upload)
        return results

    algorithm.execute_client_tasks = crafted
    (ring,) = configure_telemetry(ring_size=64)
    try:
        record = algorithm.run_round(0)
    finally:
        shutdown_telemetry()
    client = record.selected_clients[1]
    assert record.dropped_clients == [client]
    rejected = [event.data for event in ring.events() if event.type == "update_rejected"]
    assert [(event["client"], event["tensor"]) for event in rejected] == [(client, name)]
    assert all((value >= 0).all() for key, value in algorithm.global_state.items() if key.endswith("running_var"))
