"""Running statistics under an error-feedback codec: raw on the wire, never banked.

A batch-norm running variance is recomputed by every forward pass, not
stepped by a gradient, so an error-feedback carry banked for it rounds
ago is no correction of today's value: added back it drove the variance
negative and the eval-mode ``sqrt`` to NaN.  Under ``topk`` the model's
buffers (``ParamSpec.buffer``) therefore travel raw and carry no residual;
codecs without error feedback encode them as before.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.api.cli import main
from repro.engine.codecs import Int8Codec, TopKCodec, decode_update, encode_client_update
from repro.nn.models import SlimmableSimpleCNN
from repro.store.runstore import RunStore

STAT = "bn.running_var"


def stats_pair():
    rng = np.random.default_rng(4)
    reference = {
        "w": rng.normal(size=(6, 6)).astype(np.float32),
        STAT: np.full(6, 0.5, dtype=np.float32),
    }
    trained = {
        "w": reference["w"] + np.float32(0.1) * rng.normal(size=(6, 6)).astype(np.float32),
        STAT: np.linspace(0.1, 0.9, 6).astype(np.float32),
    }
    return trained, reference


def stream():
    return np.random.SeedSequence(entropy=9, spawn_key=(0, 1, 2))


def test_buffers_are_the_batch_norm_running_statistics():
    architecture = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5)
    names = architecture.buffer_names()
    assert names
    assert all(name.endswith(("running_mean", "running_var")) for name in names)
    state = architecture.build().state_dict()
    assert {name for name in state if name.endswith(("running_mean", "running_var"))} == names


def test_topk_sends_buffers_raw_and_banks_no_carry_for_them():
    trained, reference = stats_pair()
    stale = {"w": np.zeros((6, 6), np.float32), STAT: np.full(6, -1.0, np.float32)}
    encoded = encode_client_update(
        TopKCodec(), trained, reference, stream(), residual=stale, buffers={STAT}
    )
    assert encoded.encodings == {"w": "topk", STAT: "raw"}
    assert set(encoded.residual) == {"w"}
    # the stale carry was not added: the statistic arrives as trained
    assert np.array_equal(decode_update(encoded)[STAT], trained[STAT] - reference[STAT])


def test_codecs_without_error_feedback_ignore_buffers():
    trained, reference = stats_pair()
    with_buffers = encode_client_update(Int8Codec(), trained, reference, stream(), buffers={STAT})
    without = encode_client_update(Int8Codec(), trained, reference, stream())
    assert with_buffers.encodings == without.encodings == {"w": "int8", STAT: "int8"}
    assert with_buffers.blobs == without.blobs


def test_topk_run_keeps_every_rounds_running_variance_non_negative(tmp_path):
    store = tmp_path / "store"
    argv = [
        "run", "--algorithm", "adaptivefl", "--scale", "ci", "--seed", "0", "--rounds", "12",
        "--transport-codec", "topk", "--quiet", "--store", str(store), "--output-dir", str(tmp_path / "out"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    runs = RunStore(store, create=False)
    [entry] = runs.runs()
    rounds = runs.checkpoint_rounds(entry.run_id)
    assert rounds == list(range(12))
    for round_index in rounds:
        state = runs.load_checkpoint(entry.run_id, round_index).global_state
        variances = [value for name, value in state.items() if name.endswith("running_var")]
        assert variances
        for value in variances:
            assert (value >= 0).all(), f"round {round_index}: negative running variance"
