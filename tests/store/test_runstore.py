"""RunStore unit tests: blobs, manifests, integrity and lifecycle."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.history import RoundRecord, TrainingHistory
from repro.store.checkpoint import CHECKPOINT_SCHEMA_VERSION, Checkpoint, CheckpointSchemaError
from repro.store.objects import ObjectStore, StoreCorruptionError, canonical_json, sha256_hex
from repro.store.runstore import RunStore


def make_checkpoint(round_index: int = 1, algorithm: str = "adaptivefl") -> Checkpoint:
    history = TrainingHistory(algorithm)
    for index in range(round_index + 1):
        history.append(RoundRecord(round_index=index, train_loss=float(index)))
    return Checkpoint(
        algorithm=algorithm,
        round_index=round_index,
        global_state={
            "conv.weight": np.arange(12, dtype=np.float32).reshape(3, 4),
            "conv.bias": np.ones(3, dtype=np.float32),
        },
        history=history.to_dict(),
        rng_state={"bit_generator": "PCG64", "state": {"state": 123, "inc": 5}},
        extra_arrays={"rl/curiosity_table": np.full((3, 8), 2.0)},
        extra_state={"fleet": {"last_simulated_round": round_index, "recovering": []}},
    )


KEY = {"algorithm": "adaptivefl", "setting": {"seed": 0}, "num_rounds": 4}


class TestObjectStore:
    def test_round_trip_bit_identical(self, tmp_path):
        objects = ObjectStore(tmp_path)
        array = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
        digest = objects.put_array(array)
        loaded = objects.get_array(digest)
        assert loaded.dtype == array.dtype
        assert np.array_equal(loaded, array)

    def test_content_addressing_dedupes(self, tmp_path):
        objects = ObjectStore(tmp_path)
        array = np.ones((4, 4), dtype=np.float64)
        first = objects.put_array(array)
        second = objects.put_array(array.copy())
        assert first == second
        blobs = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert len(blobs) == 1

    def test_truncated_blob_is_detected(self, tmp_path):
        objects = ObjectStore(tmp_path)
        digest = objects.put_array(np.arange(100, dtype=np.float32))
        path = tmp_path / digest[:2] / digest
        path.write_bytes(path.read_bytes()[:-7])  # simulate a torn write
        with pytest.raises(StoreCorruptionError, match="truncated write or disk corruption"):
            objects.get_array(digest)

    def test_missing_blob_is_reported(self, tmp_path):
        objects = ObjectStore(tmp_path)
        with pytest.raises(StoreCorruptionError, match="missing"):
            objects.get_array("ab" * 32)


class TestRunStoreLifecycle:
    def test_run_id_is_deterministic_and_order_independent(self, tmp_path):
        a = RunStore.run_id_for({"x": 1, "y": 2})
        b = RunStore.run_id_for({"y": 2, "x": 1})
        assert a == b
        assert RunStore.run_id_for({"x": 1, "y": 3}) != a

    def test_begin_run_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        first = store.begin_run(KEY)
        second = store.begin_run(KEY)
        assert first == second
        assert first.status == "running"
        assert not store.is_completed(first.run_id)

    def test_finish_run_persists_history(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        history = TrainingHistory("adaptivefl")
        history.append(RoundRecord(round_index=0, full_accuracy=0.5))
        store.finish_run(entry.run_id, history, stop_reason="early stopping")
        assert store.is_completed(entry.run_id)
        assert store.get_run(entry.run_id).stop_reason == "early stopping"
        loaded = store.load_history(entry.run_id)
        assert loaded.to_dict() == history.to_dict()

    def test_runs_lists_every_entry(self, tmp_path):
        store = RunStore(tmp_path)
        store.begin_run(KEY)
        store.begin_run({**KEY, "algorithm": "heterofl"})
        assert len(store.runs()) == 2

    def test_unknown_store_schema_is_refused(self, tmp_path):
        RunStore(tmp_path)
        (tmp_path / "store.json").write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(CheckpointSchemaError, match="schema version 999"):
            RunStore(tmp_path)


class TestCheckpoints:
    def test_checkpoint_round_trip_bit_identical(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        checkpoint = make_checkpoint()
        store.save_checkpoint(entry.run_id, checkpoint)
        loaded = store.load_checkpoint(entry.run_id)
        assert loaded.algorithm == checkpoint.algorithm
        assert loaded.round_index == checkpoint.round_index
        assert loaded.history == checkpoint.history
        assert loaded.rng_state == checkpoint.rng_state
        assert loaded.extra_state == checkpoint.extra_state
        for key, value in checkpoint.global_state.items():
            assert loaded.global_state[key].dtype == value.dtype
            assert np.array_equal(loaded.global_state[key], value)
        for key, value in checkpoint.extra_arrays.items():
            assert np.array_equal(loaded.extra_arrays[key], value)

    def test_latest_checkpoint_and_keep_pruning(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        assert store.latest_checkpoint(entry.run_id) is None
        for round_index in range(4):
            store.save_checkpoint(entry.run_id, make_checkpoint(round_index), keep=2)
        assert store.checkpoint_rounds(entry.run_id) == [2, 3]
        assert store.load_checkpoint(entry.run_id).round_index == 3
        assert store.load_checkpoint(entry.run_id, round_index=2).round_index == 2
        with pytest.raises(ValueError, match="no checkpoint for round 0"):
            store.load_checkpoint(entry.run_id, round_index=0)

    def test_truncated_manifest_is_detected(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(StoreCorruptionError, match="not valid JSON"):
            store.load_checkpoint(entry.run_id)

    def test_edited_manifest_fails_checksum(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        body = json.loads(path.read_text())
        body["round_index"] = 7  # tamper without updating the checksum
        (store._manifest_path(entry.run_id, 7)).write_text(json.dumps(body))
        with pytest.raises(StoreCorruptionError, match="failed its checksum"):
            store.load_checkpoint(entry.run_id, round_index=7)

    def test_unknown_checkpoint_schema_refuses_resume(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        body = json.loads(path.read_text())
        body["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(body))
        with pytest.raises(CheckpointSchemaError, match="refuses to resume"):
            store.load_checkpoint(entry.run_id)

    def test_truncated_blob_surfaces_on_checkpoint_load(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        ref = next(iter(json.loads(path.read_text())["arrays"].values()))["ref"]
        blob = tmp_path / "objects" / ref[:2] / ref
        blob.write_bytes(blob.read_bytes()[:-1])
        with pytest.raises(StoreCorruptionError):
            store.load_checkpoint(entry.run_id)

    def test_save_requires_registered_run(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError, match="never registered"):
            store.save_checkpoint("feedfacedeadbeef", make_checkpoint())

    @pytest.mark.parametrize("background", [False, True])
    def test_refusals_happen_before_anything_is_written(self, tmp_path, background):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        before = sorted(str(path) for path in tmp_path.rglob("*"))
        with pytest.raises(ValueError, match="keep must be at least 1"):
            store.save_checkpoint(entry.run_id, make_checkpoint(), keep=0, background=background)
        with pytest.raises(ValueError, match="never registered"):
            store.save_checkpoint("feedfacedeadbeef", make_checkpoint(), background=background)
        store.flush()
        assert sorted(str(path) for path in tmp_path.rglob("*")) == before
        assert store.checkpoint_rounds(entry.run_id) == []

    def test_manifest_is_one_compact_line_checksummed_over_its_canonical_form(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        text = path.read_text()
        body = json.loads(text)
        assert text == json.dumps(body, separators=(",", ":")) + "\n"
        checksum = body.pop("checksum")
        assert checksum == sha256_hex(canonical_json(body).encode("utf-8"))

    def test_loaded_history_keeps_its_key_order(self, tmp_path):
        """A resumed run re-serialises its history: sorted keys would change history.json's bytes."""
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        checkpoint = make_checkpoint()
        checkpoint.history["rounds"][-1]["level_accuracies"] = {"S": 0.1, "M": 0.2, "L": 0.3}
        store.save_checkpoint(entry.run_id, checkpoint)
        loaded = store.load_checkpoint(entry.run_id)
        assert json.dumps(loaded.history) == json.dumps(checkpoint.history)
        assert json.dumps(loaded.rng_state) == json.dumps(checkpoint.rng_state)

    def test_indented_manifest_of_an_earlier_build_still_loads(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
        loaded = store.load_checkpoint(entry.run_id)
        assert loaded.history == make_checkpoint().history
        assert np.array_equal(loaded.global_state["conv.bias"], np.ones(3, dtype=np.float32))
