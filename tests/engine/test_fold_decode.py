"""Decoding an upload straight into the aggregator's scratch, the next one inflating meanwhile.

The reference is the owning path — ``apply_encoded_update`` into fresh
arrays against a copied reference slice, then
``HeterogeneousAggregator.add`` — which Decoupled still runs and which
every other algorithm ran before ``FederatedAlgorithm.fold_results``;
the owning path itself is held to the formula it replaced
(``base + decode_update(...)``, with its widen / scale / cast
temporaries).  The scratch path must match bit for bit, fail on the
upload that is broken, and leave no thread behind.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.aggregation import ClientUpdate, HeterogeneousAggregator
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.fl_base import FederatedAlgorithm, RoundPlan
from repro.core.server import AdaptiveFL
from repro.engine.codecs import (
    EncodedUpdate,
    apply_encoded_update,
    codec_generator,
    decode_update,
    encode_update,
    get_codec,
    inflate_ahead,
    inflate_codes,
)
from repro.engine.rng import client_stream

FULL_SHAPES = {
    "features.0.weight": (12, 3, 3, 3),
    "features.0.bias": (12,),
    "classifier.0.weight": (30, 48),
    "classifier.2.weight": (4, 30),
}
#: S / M / L prefix cuts of the shapes above (L is the full model)
LEVELS = {
    "S": {"features.0.weight": (5, 3, 3, 3), "features.0.bias": (5,), "classifier.0.weight": (12, 20),
          "classifier.2.weight": (4, 12)},
    "M": {"features.0.weight": (8, 3, 3, 3), "features.0.bias": (8,), "classifier.0.weight": (20, 32),
          "classifier.2.weight": (4, 20)},
    "L": FULL_SHAPES,
}
#: eight uploads of one round, sizes mixed as AdaptiveFL's planner mixes them
ROUND_LEVELS = ["M", "L", "S", "S", "L", "M", "S", "M"]


def inflate_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("repro-inflate")]


def prefix(full: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return full[tuple(slice(0, extent) for extent in shape)]


def make_round(dtype, codec_name: str, seed: int):
    """A global state and eight encoded uploads against it."""
    rng = np.random.default_rng(seed)
    state = {name: rng.standard_normal(shape).astype(dtype) for name, shape in FULL_SHAPES.items()}
    codec = get_codec(codec_name)
    uploads = []
    for client, level in enumerate(ROUND_LEVELS):
        update = {
            name: (rng.standard_normal(shape) * 1e-2).astype(dtype) for name, shape in LEVELS[level].items()
        }
        uploads.append(
            encode_update(codec, update, codec_generator(client_stream(seed, 0, client)), client_id=client)
        )
    samples = [int(count) for count in rng.integers(5, 60, len(uploads))]
    return state, uploads, samples


def owning_fold(aggregator, state, uploads, samples):
    def updates():
        for encoded, count in zip(uploads, samples):
            reference = {
                name: np.ascontiguousarray(prefix(state[name], shape))
                for name, shape in encoded.shapes.items()
            }
            yield ClientUpdate(apply_encoded_update(encoded, reference), count)

    return aggregator.aggregate(state, updates())


def views(state, encoded):
    """The reference slice as prefix views of the full state (nothing copied)."""
    return {name: prefix(state[name], shape) for name, shape in encoded.shapes.items()}


def scratch_fold(aggregator, state, uploads, samples):
    inflated = inflate_ahead(uploads)
    try:
        def updates():
            for encoded, count, codes in zip(uploads, samples, inflated):
                decoded = apply_encoded_update(
                    encoded, views(state, encoded), aggregator.scratch_for, codes.result()
                )
                yield ClientUpdate(decoded, count)

        return aggregator.aggregate(state, updates())
    finally:
        inflated.close()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("codec_name", ["int8", "none", "fp16", "topk"])
def test_scratch_decode_and_in_place_fold_equal_the_owning_path(dtype, codec_name):
    owning, scratch = HeterogeneousAggregator(), HeterogeneousAggregator()
    # two rounds through the same aggregators: scratch left by round one must not reach round two
    for seed in (3, 4):
        state, uploads, samples = make_round(dtype, codec_name, seed)
        expected = owning_fold(owning, state, uploads, samples)
        merged = scratch_fold(scratch, state, uploads, samples)
        assert set(merged) == set(expected)
        for name, value in expected.items():
            assert merged[name].dtype == value.dtype == np.dtype(dtype)
            assert merged[name].tobytes() == value.tobytes(), (codec_name, seed, name)
    assert not inflate_threads()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("codec_name", ["int8", "none", "fp16", "topk"])
def test_the_owning_decode_equals_the_formula_it_replaced(dtype, codec_name):
    """``base + delta`` with the delta widened, scaled and cast through temporaries, as before."""
    state, uploads, _ = make_round(dtype, codec_name, 11)
    for encoded in uploads:
        reference = {name: np.ascontiguousarray(view) for name, view in views(state, encoded).items()}
        rebuilt = apply_encoded_update(encoded, reference)
        for name, delta in decode_update(encoded).items():
            base = reference[name]
            expected = (base + delta.astype(base.dtype, copy=False)).astype(base.dtype, copy=False)
            assert rebuilt[name].dtype == expected.dtype
            assert rebuilt[name].tobytes() == expected.tobytes(), (codec_name, name)
            assert not np.shares_memory(rebuilt[name], base)


def test_float32_updates_against_a_float64_state():
    """The update's dtype need not be the state's: product in float32, sum in the state's dtype."""
    state, _, samples = make_round(np.float64, "int8", 5)
    _, uploads, _ = make_round(np.float32, "int8", 5)
    expected = owning_fold(HeterogeneousAggregator(), state, uploads, samples)
    merged = scratch_fold(HeterogeneousAggregator(), state, uploads, samples)
    for name, value in expected.items():
        assert merged[name].tobytes() == value.tobytes(), name


def test_decoded_tensors_are_the_scratch_blocks_themselves():
    state, uploads, _ = make_round(np.float32, "int8", 6)
    aggregator = HeterogeneousAggregator()
    aggregator.begin_round(state)
    try:
        decoded = apply_encoded_update(
            uploads[0], views(state, uploads[0]), aggregator.scratch_for, inflate_codes(uploads[0])
        )
        for name, value in decoded.items():
            assert np.shares_memory(value, aggregator.scratch_for(name, value.shape))
        owned = apply_encoded_update(uploads[0], views(state, uploads[0]))
        for name, value in owned.items():
            assert decoded[name].tobytes() == value.tobytes()
    finally:
        aggregator.abort_round()


def test_scratch_for_needs_an_open_round_and_a_prefix_shape():
    aggregator = HeterogeneousAggregator()
    with pytest.raises(RuntimeError, match="no open round"):
        aggregator.scratch_for("w", (2,))
    aggregator.begin_round({"w": np.zeros((3, 3), dtype=np.float32)})
    with pytest.raises(ValueError, match="not a prefix"):
        aggregator.scratch_for("w", (4, 3))
    assert aggregator.scratch_for("w", (2, 3)).shape == (2, 3)


def test_an_upload_of_unplanned_shape_is_refused():
    state, uploads, _ = make_round(np.float32, "int8", 7)
    small = uploads[ROUND_LEVELS.index("S")]
    aggregator = HeterogeneousAggregator()
    aggregator.begin_round(state)
    planned = {name: prefix(state[name], shape) for name, shape in LEVELS["M"].items()}
    with pytest.raises(ValueError, match="encoded update is"):
        apply_encoded_update(small, planned, aggregator.scratch_for, inflate_codes(small))


def corrupted(encoded: EncodedUpdate, name: str = "classifier.0.weight") -> EncodedUpdate:
    blobs = dict(encoded.blobs)
    blobs[name] = blobs[name][:10] + b"\xff\xff\xff\xff" + blobs[name][14:]
    return replace(encoded, blobs=blobs)


class TestInflateAhead:
    def test_yields_one_future_per_encoded_upload_and_none_otherwise(self):
        _, uploads, _ = make_round(np.float32, "int8", 8)
        mixed = [uploads[0], {"w": np.zeros(2)}, uploads[1]]
        inflated = inflate_ahead(mixed)
        try:
            first, second, third = list(inflated)
        finally:
            inflated.close()
        assert second is None
        assert first.result() == inflate_codes(uploads[0])
        assert third.result() == inflate_codes(uploads[1])
        assert not inflate_threads()

    def test_exact_uploads_start_no_thread(self):
        inflated = inflate_ahead([{"w": np.zeros(2)}] * 3)
        try:
            assert next(inflated) is None
            assert not inflate_threads()
            assert list(inflated) == [None, None]
        finally:
            inflated.close()

    def test_the_helper_lives_until_close(self):
        _, uploads, _ = make_round(np.float32, "int8", 9)
        inflated = inflate_ahead(uploads)
        next(inflated).result()
        assert len(inflate_threads()) == 1
        inflated.close()
        assert not inflate_threads()

    def test_a_corrupt_blob_raises_at_its_own_upload(self):
        _, uploads, _ = make_round(np.float32, "int8", 10)
        uploads[2] = corrupted(uploads[2])
        inflated = inflate_ahead(uploads)
        try:
            assert next(inflated).result() == inflate_codes(uploads[0])
            assert next(inflated).result() == inflate_codes(uploads[1])
            with pytest.raises(zlib.error):
                next(inflated).result()
        finally:
            inflated.close()
        assert not inflate_threads()

    def test_empty_sequence(self):
        assert list(inflate_ahead([])) == []


# -- through the algorithm ----------------------------------------------------------------

FEDERATED = FederatedConfig(num_rounds=1, clients_per_round=4, eval_every=1, transport="delta")
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=2)


def build_algorithm(easy_setup, codec: str) -> AdaptiveFL:
    return AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(
            federated=replace(FEDERATED, transport_codec=codec), local=LOCAL, pool=easy_setup["pool"]
        ),
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )


def train_one_round(algorithm: AdaptiveFL):
    """Four clients' results on S/M/L heads, through the base class's train-a-submodel task."""
    heads = list(algorithm.level_group_sizes().values())
    sizes = [heads[index % len(heads)] for index in range(4)]
    params = [algorithm.architecture.parameter_count(size) for size in sizes]
    plan = RoundPlan(
        clients=[0, 1, 2, 3], dispatched=["head"] * 4, returned=["head"] * 4, sent_params=params,
        back_params=params, group_sizes=sizes, streams=["global"] * 4,
    )
    handle = algorithm.publish_state(algorithm.global_state)
    tasks = [FederatedAlgorithm.make_task(algorithm, 0, plan, slot, handle) for slot in range(4)]
    return algorithm.execute_client_tasks(tasks), sizes


@pytest.mark.parametrize("codec", ["int8", "topk", "none"])
def test_fold_results_equals_the_owning_decode_through_aggregate(easy_setup, codec):
    folding, owning = build_algorithm(easy_setup, codec), build_algorithm(easy_setup, codec)
    try:
        results, sizes = train_one_round(folding)
        folding.fold_results(results, sizes)
        owning.global_state = owning.aggregate(
            ClientUpdate(
                owning.decode_result_state(result.state, size, owning.global_state), result.num_samples
            )
            for result, size in zip(results, sizes)
        )
    finally:
        folding.close()
        owning.close()
    assert folding._round_bytes_up == owning._round_bytes_up > 0
    for name, value in owning.global_state.items():
        assert folding.global_state[name].tobytes() == value.tobytes(), name
    assert not inflate_threads()


def test_a_corrupt_upload_fails_its_own_decode_and_leaves_nothing_behind(easy_setup):
    algorithm = build_algorithm(easy_setup, "int8")
    try:
        results, sizes = train_one_round(algorithm)
        before = {name: value.copy() for name, value in algorithm.global_state.items()}
        name = max(results[2].state.blobs, key=lambda key: len(results[2].state.blobs[key]))
        broken = list(results)
        broken[2] = replace(results[2], state=corrupted(results[2].state, name))

        decoded = []
        original = algorithm.decode_result_state

        def recording(uploaded, *args, **kwargs):
            decoded.append(uploaded.client_id)
            return original(uploaded, *args, **kwargs)

        algorithm.decode_result_state = recording
        with pytest.raises(zlib.error):
            algorithm.fold_results(broken, sizes)
        # uploads 0 and 1 were folded, 2 raised from its own decode, 3 was never reached
        assert decoded == [result.state.client_id for result in results[:3]]
        assert not inflate_threads()
        assert algorithm._aggregator._round_state is None
        for key, value in before.items():
            assert algorithm.global_state[key].tobytes() == value.tobytes()

        # the aggregator and the algorithm are usable again
        algorithm.fold_results(results, sizes)
        assert any(
            algorithm.global_state[key].tobytes() != value.tobytes() for key, value in before.items()
        )
    finally:
        algorithm.close()


def test_no_results_leave_the_state_alone(easy_setup):
    algorithm = build_algorithm(easy_setup, "int8")
    before = algorithm.global_state
    algorithm.fold_results([], [])
    assert algorithm.global_state is before
