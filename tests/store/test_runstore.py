"""RunStore unit tests: checkpoint files, integrity, pruning and lifecycle."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.callbacks import Callback
from repro.api.registry import get_algorithm
from repro.core.history import RoundRecord, TrainingHistory
from repro.store.checkpoint import CHECKPOINT_SCHEMA_VERSION, Checkpoint, CheckpointSchemaError
from repro.store.objects import StoreCorruptionError
from repro.store.runstore import RunRecorder, RunStore


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

    def test_truncated_checkpoint_is_detected(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreCorruptionError, match=f"{path.name}.*truncated write"):
            store.load_checkpoint(entry.run_id)

    def test_edited_checkpoint_fails_its_trailer(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        path = store.save_checkpoint(entry.run_id, make_checkpoint())
        edited = path.read_bytes().replace(b'"round_index":1', b'"round_index":7', 1)
        store._checkpoint_path(entry.run_id, 7).write_bytes(edited)  # tampered, trailer not updated
        with pytest.raises(StoreCorruptionError, match="round_000007.ckpt"):
            store.load_checkpoint(entry.run_id, round_index=7)

    def test_unknown_checkpoint_schema_refuses_resume(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.begin_run(KEY)
        checkpoint = make_checkpoint()
        checkpoint.schema_version = CHECKPOINT_SCHEMA_VERSION + 1  # a future build's file, trailer intact
        path = store.save_checkpoint(entry.run_id, checkpoint)
        with pytest.raises(CheckpointSchemaError, match=f"{path.name}.*refuses to resume"):
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


class TestKeepFreesDisk:
    def test_pruned_rounds_leave_no_bytes_behind(self, tmp_path, ci_prepared):
        """``RunRecorder(keep=2)`` over 5 rounds: 2 files, and no pruned round's weights anywhere."""

        class Weights(Callback):
            def __init__(self):
                self.by_round: list[bytes] = []

            def on_checkpoint(self, algorithm, record):
                self.by_round.append(max(algorithm.global_state.values(), key=np.size).tobytes())

        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        weights = Weights()
        algorithm = get_algorithm("adaptivefl").build(ci_prepared)
        algorithm.run(num_rounds=5, callbacks=[weights, RunRecorder(store, run_id, keep=2)])
        store.flush()
        files = sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*") if path.is_file())
        checkpoints = [str(path) for path in files if path.suffix == ".ckpt"]
        assert checkpoints == [f"runs/{run_id}/checkpoints/round_00000{r}.ckpt" for r in (3, 4)]
        assert not (tmp_path / "objects").exists()
        stored = [(tmp_path / path).read_bytes() for path in files]
        assert all(weights.by_round[4] != pruned for pruned in weights.by_round[:3])  # every round moved them
        assert any(weights.by_round[4] in payload for payload in stored)
        for pruned in weights.by_round[:3]:
            assert not any(pruned in payload for payload in stored)
