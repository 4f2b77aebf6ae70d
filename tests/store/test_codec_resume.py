"""Checkpoint/resume under lossy transport codecs.

Error-feedback residuals are training state: a top-k run that resumes
without them replays compression error it had already corrected and
silently diverges from the uninterrupted run.  This suite pins the
contract added with the codec tier:

* codec metadata and per-client residual banks travel inside
  :class:`Checkpoint` extras (``extra_state["codec"]`` +
  ``extra_arrays["codec/{client}/{key}"]``),
* a lossy run resumed from any checkpoint round is **bit-identical** to
  the uninterrupted same-seed run (same standard as the exact-transport
  resume-parity suite),
* restore refuses codec mismatches loudly: a codec run cannot resume an
  exact checkpoint, an exact run cannot resume a codec checkpoint, and
  two different codecs cannot resume each other.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.store.runstore import RunRecorder, RunStore

ROUNDS = 3
FEDERATED = FederatedConfig(num_rounds=ROUNDS, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)


def build_algorithm(easy_setup, codec: str) -> AdaptiveFL:
    federated = replace(FEDERATED, transport_codec=codec)
    return AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )


def fingerprint(history) -> list[dict]:
    return [record.to_dict() for record in history.records]


def assert_same_weights(actual, expected):
    assert set(actual) == set(expected)
    for key, value in actual.items():
        assert np.array_equal(value, expected[key]), f"weights differ in {key!r}"


@pytest.fixture(scope="module")
def codec_reference(easy_setup, tmp_path_factory):
    """Uninterrupted serial runs per codec, checkpointed every round."""
    runs = {}
    for codec in ("none", "topk", "int8"):
        store = RunStore(tmp_path_factory.mktemp(f"codec-{codec}") / "store")
        entry = store.begin_run({"suite": "codec-resume", "codec": codec})
        algorithm = build_algorithm(easy_setup, codec)
        algorithm.run(callbacks=[RunRecorder(store, entry.run_id)])
        assert store.checkpoint_rounds(entry.run_id) == list(range(ROUNDS))
        runs[codec] = (
            store,
            entry.run_id,
            fingerprint(algorithm.history),
            algorithm.global_state,
        )
    return runs


class TestResidualsTravel:
    def test_topk_checkpoint_carries_codec_state_and_residual_arrays(self, codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id, round_index=ROUNDS - 1)
        meta = checkpoint.extra_state["codec"]
        assert meta["name"] == "topk"
        # error feedback banked residuals for every client that uploaded
        assert meta["clients"], "topk run finished with no banked residuals"
        for client_id in meta["clients"]:
            keys = [
                key for key in checkpoint.extra_arrays if key.startswith(f"codec/{client_id}/")
            ]
            assert keys, f"client {client_id} listed but has no residual arrays"
            assert all(checkpoint.extra_arrays[key].dtype == np.float32 for key in keys)
            # small tensors may be fully kept (zero residual); across the
            # whole bank the dropped coordinates must show up somewhere
            assert any(
                np.any(checkpoint.extra_arrays[key] != 0.0) for key in keys
            ), f"client {client_id} residual bank is all zeros"

    def test_int8_checkpoint_carries_codec_name_but_no_residuals(self, codec_reference):
        """int8 keeps no error feedback; its codec state is just the name."""
        store, run_id, _, _ = codec_reference["int8"]
        checkpoint = store.load_checkpoint(run_id, round_index=ROUNDS - 1)
        assert checkpoint.extra_state["codec"]["name"] == "int8"
        assert checkpoint.extra_state["codec"]["clients"] == []
        assert not [key for key in checkpoint.extra_arrays if key.startswith("codec/")]

    def test_exact_checkpoint_carries_no_codec_state(self, codec_reference):
        store, run_id, _, _ = codec_reference["none"]
        checkpoint = store.load_checkpoint(run_id, round_index=ROUNDS - 1)
        assert "codec" not in checkpoint.extra_state
        assert not [key for key in checkpoint.extra_arrays if key.startswith("codec/")]


@pytest.mark.parametrize("codec", ["topk", "int8"])
@pytest.mark.parametrize("round_index", range(ROUNDS - 1))
def test_lossy_resume_bit_identical(easy_setup, codec_reference, codec, round_index):
    """Every checkpoint round of a lossy run is a bit-exact resume point."""
    store, run_id, expected_history, expected_state = codec_reference[codec]
    checkpoint = store.load_checkpoint(run_id, round_index=round_index)

    resumed = build_algorithm(easy_setup, codec)
    resumed.restore_checkpoint(checkpoint)
    assert len(resumed.history) == round_index + 1
    resumed.run(num_rounds=ROUNDS - (round_index + 1))

    assert fingerprint(resumed.history) == expected_history
    assert_same_weights(resumed.global_state, expected_state)


def test_restored_residuals_match_the_checkpointed_bank(easy_setup, codec_reference):
    """The residual arrays land back in the per-client bank bit-for-bit."""
    store, run_id, _, _ = codec_reference["topk"]
    checkpoint = store.load_checkpoint(run_id, round_index=1)
    resumed = build_algorithm(easy_setup, "topk")
    resumed.restore_checkpoint(checkpoint)
    meta = checkpoint.extra_state["codec"]
    bank = resumed.state_parts()["codec"].state_dict()
    for client_id in meta["clients"]:
        carries = {key: value for key, value in bank.items() if key.startswith(f"{client_id}/")}
        assert carries, f"client {client_id} has no restored residual"
        for key, value in carries.items():
            assert np.array_equal(value, checkpoint.extra_arrays[f"codec/{key}"])


class TestRestoreValidation:
    def test_codec_run_refuses_exact_checkpoint(self, easy_setup, codec_reference):
        store, run_id, _, _ = codec_reference["none"]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm(easy_setup, "topk")
        with pytest.raises(ValueError, match=r"missing \['codec'\]"):
            target.restore_checkpoint(checkpoint)

    def test_exact_run_refuses_codec_checkpoint(self, easy_setup, codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm(easy_setup, "none")
        with pytest.raises(ValueError, match=r"unexpected \['codec'\]"):
            target.restore_checkpoint(checkpoint)

    def test_codec_name_mismatch_refused(self, easy_setup, codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm(easy_setup, "int8")
        with pytest.raises(ValueError, match="written with transport codec 'topk'"):
            target.restore_checkpoint(checkpoint)
