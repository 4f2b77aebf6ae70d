"""Background checkpoint writes: the hand-off contract, its events, and injected faults.

``RunRecorder`` hands each round's snapshot to ``RunStore``, which writes
it on one long-lived writer thread per handle while the next round trains.
These tests pin what the rest of the stack relies on:

* the hand-off returns before the write; every checkpoint read path,
  ``finish_run`` and the next hand-off on the same handle wait for it;
* what is stored is the state at hand-off, whatever the loop does next;
* one writer thread serves every hand-off of a handle, and the
  interpreter exits only after a handed-off write is on disk;
* an exception leaving ``run_algorithm`` leaves the last hand-off on disk;
* ``checkpoint_saved`` is never emitted before the checkpoint file exists;
* a write that fails — at *any* ``write_atomic`` call of a checkpointed
  run — is raised out of ``run_algorithm`` as itself, leaves only
  complete checkpoints behind, and the resumed run is bit-identical.

The writer is gated on a ``threading.Event`` patched into ``write_atomic``
so "before the write" is a state the test holds, not a race it wins.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.store.objects as objects_module
import repro.store.runstore as runstore_module
from repro.api.callbacks import Callback
from repro.core.history import RoundRecord, TrainingHistory
from repro.experiments.runner import run_algorithm
from repro.experiments.settings import ExperimentSetting, prepare_experiment
from repro.obs.events import configure_telemetry, shutdown_telemetry
from repro.store.checkpoint import Checkpoint
from repro.store.runstore import RunStore

#: every wait in this file is bounded: a broken contract fails, never hangs
TIMEOUT = 20.0
#: how long a call must stay blocked before the test believes it is waiting
BLOCKED_FOR = 0.1

KEY = {"suite": "background-writes"}
#: the ``src`` directory the subprocess test imports ``repro`` from
SRC = Path(repro.__file__).resolve().parent.parent

#: the whole-run tests: a 4-round run, crashed before round 2
ROUNDS = 4
CRASH_AT = 2


def make_checkpoint(round_index: int) -> Checkpoint:
    """A small checkpoint whose arrays differ from round to round."""
    history = TrainingHistory("adaptivefl")
    for index in range(round_index + 1):
        history.append(RoundRecord(round_index=index, train_loss=float(index)))
    return Checkpoint(
        algorithm="adaptivefl",
        round_index=round_index,
        global_state={"weight": np.full((4, 4), round_index, dtype=np.float32)},
        history=history.to_dict(),
        rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 1}},
        extra_arrays={"rl/table": np.full(3, round_index, dtype=np.float64)},
        extra_state={},
    )


class WriteGate:
    """``write_atomic`` with a gate in front and a log behind.

    While ``open`` is clear every caller blocks before touching the disk;
    ``fail_at`` makes the call with that index raise instead of writing.
    """

    def __init__(self, monkeypatch):
        self.open = threading.Event()
        self.open.set()
        self.reached = threading.Event()
        self.paths: list[str] = []
        self.fail_at: int | None = None
        self.failure: OSError | None = None
        self._real = objects_module.write_atomic
        monkeypatch.setattr(objects_module, "write_atomic", self)
        monkeypatch.setattr(runstore_module, "write_atomic", self)

    def __call__(self, path, payload) -> None:
        self.reached.set()
        assert self.open.wait(TIMEOUT), "the gate was never opened"
        index = len(self.paths)
        self.paths.append(str(path))
        if index == self.fail_at:
            self.failure = OSError(28, f"injected failure at write_atomic call {index}")
            raise self.failure
        self._real(path, payload)

    def close(self) -> None:
        self.open.clear()
        self.reached.clear()

    def checkpoints_written(self) -> list[str]:
        return [path.rsplit("/", 1)[1] for path in self.paths if "/checkpoints/round_" in path]


@pytest.fixture()
def gate(monkeypatch):
    gate = WriteGate(monkeypatch)
    yield gate
    gate.open.set()  # never leave a writer thread parked behind a failed test


@pytest.fixture()
def ring():
    sinks = configure_telemetry(ring_size=256)
    try:
        yield sinks[0]
    finally:
        shutdown_telemetry()


def saved_events(ring) -> list:
    return [event for event in ring.events() if event.type == "checkpoint_saved"]


def blocked_until_open(gate: WriteGate, call):
    """Run ``call`` on a helper thread; it must block until the gate opens. Returns its result."""
    outcome: list = []
    helper = threading.Thread(target=lambda: outcome.append(call()))
    helper.start()
    helper.join(BLOCKED_FOR)
    assert helper.is_alive(), "the call returned while the write was still gated"
    gate.open.set()
    helper.join(TIMEOUT)
    assert not helper.is_alive()
    return outcome[0]


def run_in_child(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter with ``RunStore``, ``KEY`` and ``make_checkpoint``
    imported; it must exit 0."""
    header = (
        f"import sys\nsys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]\n"
        "from repro.store.runstore import RunStore\n"
        "from test_background_writes import KEY, make_checkpoint\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", header + textwrap.dedent(body)], capture_output=True, text=True, timeout=TIMEOUT
    )
    assert child.returncode == 0, child.stderr
    return child


READERS = {
    "load_checkpoint": lambda store, run_id: store.load_checkpoint(run_id).round_index,
    "checkpoint_rounds": lambda store, run_id: store.checkpoint_rounds(run_id)[-1],
    "latest_checkpoint": lambda store, run_id: store.latest_checkpoint(run_id).round_index,
}


class TestHandOff:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_handoff_returns_early_and_reads_wait_for_it(self, tmp_path, gate, reader):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        store.save_checkpoint(run_id, make_checkpoint(0))
        gate.close()
        path = store.save_checkpoint(run_id, make_checkpoint(1), background=True)
        assert gate.reached.wait(TIMEOUT)
        assert not path.exists()  # handed off, not written
        assert blocked_until_open(gate, lambda: READERS[reader](store, run_id)) == 1
        assert path.exists()

    def test_finish_run_waits_for_the_write(self, tmp_path, gate):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.close()
        store.save_checkpoint(run_id, make_checkpoint(0), background=True)
        blocked_until_open(gate, lambda: store.finish_run(run_id, TrainingHistory("adaptivefl")))
        fresh = RunStore(tmp_path)
        assert fresh.is_completed(run_id)
        assert fresh.checkpoint_rounds(run_id) == [0]
        # the completion marker was written after the checkpoint it vouches for
        assert gate.paths.index(str(store._checkpoint_path(run_id, 0))) < len(gate.paths) - 2

    def test_second_handoff_waits_for_the_first_and_checkpoints_land_in_order(self, tmp_path, gate):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.close()
        first = store.save_checkpoint(run_id, make_checkpoint(0), background=True)
        second = blocked_until_open(
            gate, lambda: store.save_checkpoint(run_id, make_checkpoint(1), background=True)
        )
        assert first.exists()  # the second hand-off returned only after the first write
        store.flush()
        assert second.exists()
        # one write at a time, one file per checkpoint: round 0's file, then round 1's
        assert gate.paths[-2:] == [str(first), str(second)]
        assert gate.checkpoints_written() == ["round_000000.ckpt", "round_000001.ckpt"]
        assert store.checkpoint_rounds(run_id) == [0, 1]

    def test_direct_save_is_durable_on_return(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        path = store.save_checkpoint(run_id, make_checkpoint(0))
        assert path.exists()
        assert store._in_flight is None
        assert RunStore(tmp_path).load_checkpoint(run_id).round_index == 0

    def test_one_writer_thread_serves_every_handoff_of_a_handle(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        started: list[str] = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for round_index in range(20):
            store.save_checkpoint(run_id, make_checkpoint(round_index), background=True)
        store.flush()
        assert len(started) <= 1, started
        assert store.checkpoint_rounds(run_id) == list(range(20))

    def test_interpreter_exits_only_after_the_handed_off_write_is_on_disk(self, tmp_path):
        # the child's write sleeps before it touches the disk, and its main
        # module returns right after the hand-off without flushing
        child = run_in_child(
            f"""
            import time
            import repro.store.objects as objects

            real = objects.write_atomic

            def slow_write_atomic(path, payload):
                time.sleep(0.5)
                real(path, payload)

            objects.write_atomic = slow_write_atomic
            store = RunStore({str(tmp_path)!r})
            run_id = store.begin_run(KEY).run_id
            path = store.save_checkpoint(run_id, make_checkpoint(7), background=True)
            assert not path.exists()
            print(run_id)
            """
        )
        loaded = RunStore(tmp_path, create=False).load_checkpoint(child.stdout.strip())  # trailer checked
        assert loaded.round_index == 7
        assert float(loaded.global_state["weight"][0, 0]) == 7.0
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_a_run_that_outlives_the_main_module_still_saves_every_checkpoint(self, tmp_path):
        # the interpreter's shutdown starts while a non-daemon thread hands off
        child = run_in_child(
            f"""
            import threading, time

            store = RunStore({str(tmp_path)!r})
            run_id = store.begin_run(KEY).run_id

            def loop():
                for round_index in range(4):
                    store.save_checkpoint(run_id, make_checkpoint(round_index), background=True)
                    time.sleep(0.1)
                store.flush()

            threading.Thread(target=loop).start()
            print(run_id)
            """
        )
        assert child.stderr == ""
        store = RunStore(tmp_path, create=False)
        assert store.checkpoint_rounds(child.stdout.strip()) == [0, 1, 2, 3]

    def test_mutating_the_live_state_after_handoff_does_not_change_what_is_stored(
        self, tmp_path, gate, ci_prepared
    ):
        from repro.api.registry import get_algorithm

        algorithm = get_algorithm("adaptivefl").build(ci_prepared)
        algorithm.run(num_rounds=1)
        expected = {key: value.copy() for key, value in algorithm.global_state.items()}
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.close()
        store.save_checkpoint(run_id, algorithm.checkpoint_state(), background=True)
        assert gate.reached.wait(TIMEOUT)
        for value in algorithm.global_state.values():
            value[...] = -1.0  # what the next round's aggregation does, in place
        gate.open.set()
        loaded = store.load_checkpoint(run_id).global_state
        assert set(loaded) == set(expected)
        for key, value in expected.items():
            assert np.array_equal(loaded[key], value), key

    def test_many_handoffs_under_a_short_switch_interval(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(40):
                store.save_checkpoint(run_id, make_checkpoint(round_index), keep=3, background=True)
            store.flush()
        finally:
            sys.setswitchinterval(interval)
        assert store.checkpoint_rounds(run_id) == [37, 38, 39]
        for round_index in (37, 38, 39):
            loaded = store.load_checkpoint(run_id, round_index)
            assert float(loaded.global_state["weight"][0, 0]) == round_index


class TestFailedWrite:
    def test_error_surfaces_once_at_the_next_touch_and_blocks_completion(self, tmp_path, gate):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.fail_at = len(gate.paths)  # the checkpoint file
        store.save_checkpoint(run_id, make_checkpoint(0), background=True)
        with pytest.raises(OSError) as raised:
            store.finish_run(run_id, TrainingHistory("adaptivefl"))
        assert raised.value is gate.failure
        assert not store.is_completed(run_id)
        store.flush()  # raised once; the slot is empty again
        assert store.checkpoint_rounds(run_id) == []
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_next_handoff_raises_the_previous_failure_and_writes_nothing(self, tmp_path, gate):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.fail_at = len(gate.paths)
        store.save_checkpoint(run_id, make_checkpoint(0), background=True)
        with pytest.raises(OSError) as raised:
            store.save_checkpoint(run_id, make_checkpoint(1), background=True)
        assert raised.value is gate.failure
        assert store._in_flight is None
        assert store.checkpoint_rounds(run_id) == []

    def test_direct_save_raises_the_write_error_itself(self, tmp_path, gate):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.fail_at = len(gate.paths)
        with pytest.raises(OSError) as raised:
            store.save_checkpoint(run_id, make_checkpoint(0))
        assert raised.value is gate.failure


class TestCheckpointSavedEvent:
    def test_not_emitted_before_the_checkpoint_file_exists(self, tmp_path, gate, ring):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.close()
        path = store.save_checkpoint(run_id, make_checkpoint(3), background=True, trace_id="trace-r3")
        assert gate.reached.wait(TIMEOUT)
        assert saved_events(ring) == []
        timer = threading.Timer(BLOCKED_FOR, gate.open.set)
        timer.start()
        store.flush()
        timer.join(TIMEOUT)
        assert path.exists()
        [event] = saved_events(ring)
        assert event.trace_id == "trace-r3"
        assert event.data["run_id"] == run_id
        assert event.data["round"] == 3
        # the loop sat in flush() for the gated part of the write
        assert event.data["write_ms"] >= BLOCKED_FOR * 500.0
        assert event.data["blocked_ms"] >= BLOCKED_FOR * 500.0

    def test_failed_write_emits_nothing(self, tmp_path, gate, ring):
        store = RunStore(tmp_path)
        run_id = store.begin_run(KEY).run_id
        gate.fail_at = len(gate.paths)
        store.save_checkpoint(run_id, make_checkpoint(0), background=True)
        with pytest.raises(OSError):
            store.flush()
        assert saved_events(ring) == []

    def test_a_run_emits_one_event_per_checkpoint_in_round_order(self, tmp_path, tiny_prepared, ring):
        run_algorithm("adaptivefl", tiny_prepared, store=tmp_path, checkpoint_every=1)
        events = saved_events(ring)
        assert [event.data["round"] for event in events] == list(range(ROUNDS))
        for event in events:
            assert f"-r{event.data['round']}#" in event.trace_id
            assert event.data["write_ms"] > 0.0
            assert event.data["blocked_ms"] >= 0.0
        # round r is reported when the loop next touches the store: inside round r + 1
        types = [(event.type, event.data.get("round")) for event in ring.events()]
        assert types.index(("round_start", 1)) < types.index(("checkpoint_saved", 0))
        assert types.index(("checkpoint_saved", 0)) < types.index(("round_end", 1))


# -- whole runs: crashes and injected write failures ------------------------------------------

@pytest.fixture(scope="module")
def tiny_prepared():
    """A 4-round experiment small enough to run some 150 times in the fault suite."""
    setting = ExperimentSetting(
        dataset="cifar10",
        model="simple_cnn",
        scale="ci",
        overrides={
            "num_rounds": ROUNDS, "eval_every": 2, "train_samples": 80, "test_samples": 20,
            "num_clients": 4, "clients_per_round": 2, "batch_size": 10, "max_batches_per_epoch": 1,
            "width_multiplier": 0.125, "classifier_width": 8,
        },
    )
    return prepare_experiment(setting)


def fingerprint(result, store_dir) -> tuple:
    """The returned history, the stored ``history.json`` byte for byte, and the last stored weights."""
    store = RunStore(store_dir, create=False)
    [entry] = store.runs()
    assert entry.completed
    weights = store.load_checkpoint(entry.run_id).global_state
    return (
        result.history.to_dict(),
        (store.root / "runs" / entry.run_id / "history.json").read_bytes(),
        {key: value.tobytes() for key, value in weights.items()},
    )


@pytest.fixture(scope="module")
def uninterrupted(tiny_prepared, tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("uninterrupted")
    result = run_algorithm("adaptivefl", tiny_prepared, store=store_dir, checkpoint_every=1)
    return fingerprint(result, store_dir)


def assert_only_complete_checkpoints(store_dir) -> list[int]:
    """Every checkpoint on disk loads (its SHA-256 trailer checked) and no temp file is left."""
    assert not list(store_dir.rglob(".tmp-*"))
    if not (store_dir / "store.json").exists():
        return []
    store = RunStore(store_dir, create=False)
    rounds = []
    for entry in store.runs():
        rounds = store.checkpoint_rounds(entry.run_id)
        for round_index in rounds:
            assert store.load_checkpoint(entry.run_id, round_index).round_index == round_index
    return rounds


class CrashBefore(Callback):
    """Closes the gate for the last hand-off before the crash, then raises."""

    def __init__(self, gate: WriteGate, round_index: int):
        self.gate = gate
        self.round_index = round_index
        self.timer: threading.Timer | None = None

    def on_round_end(self, algorithm, record) -> None:
        if record.round_index == self.round_index - 1:
            self.gate.close()
            self.timer = threading.Timer(BLOCKED_FOR, self.gate.open.set)
            self.timer.start()

    def on_round_start(self, algorithm, round_index: int) -> None:
        if round_index == self.round_index:
            raise RuntimeError(f"injected crash before round {round_index}")


class TestCrashDuringARun:
    def test_exception_leaving_the_loop_leaves_the_last_handoff_on_disk(
        self, tmp_path, gate, tiny_prepared, uninterrupted
    ):
        crash = CrashBefore(gate, CRASH_AT)
        with pytest.raises(RuntimeError, match="injected crash"):
            run_algorithm("adaptivefl", tiny_prepared, store=tmp_path, checkpoint_every=1, callbacks=[crash])
        # the write of round CRASH_AT - 1 was still gated when the callback raised,
        # yet another handle sees it the moment the exception is out
        fresh = RunStore(tmp_path)
        [entry] = fresh.runs()
        assert not entry.completed
        assert fresh.checkpoint_rounds(entry.run_id) == list(range(CRASH_AT))
        assert fresh.load_checkpoint(entry.run_id).round_index == CRASH_AT - 1
        crash.timer.join(TIMEOUT)

        resumed = run_algorithm("adaptivefl", tiny_prepared, store=tmp_path, checkpoint_every=1, resume=True)
        assert fingerprint(resumed, tmp_path) == uninterrupted


@pytest.fixture(scope="module")
def write_calls(tiny_prepared, tmp_path_factory) -> int:
    """How many times an uninterrupted checkpointed run calls ``write_atomic``."""
    with pytest.MonkeyPatch.context() as patch:
        gate = WriteGate(patch)
        run_algorithm(
            "adaptivefl", tiny_prepared, store=tmp_path_factory.mktemp("count"), checkpoint_every=1
        )
        return len(gate.paths)


class TestWriteFailsAtEveryCallIndex:
    """ROADMAP "Break it on purpose (c)": no crash point corrupts the store or the resume."""

    def test_every_failure_is_raised_contained_and_resumable(
        self, tmp_path, gate, tiny_prepared, uninterrupted, write_calls
    ):
        # marker + run entry, one file per checkpointed round, history + completion marker
        assert write_calls == 4 + ROUNDS
        for index in range(write_calls):
            store_dir = tmp_path / f"fail-{index:03d}"
            gate.paths.clear()
            gate.fail_at = index
            with pytest.raises(OSError) as raised:
                run_algorithm("adaptivefl", tiny_prepared, store=store_dir, checkpoint_every=1)
            assert raised.value is gate.failure, f"call {index}: a different error came out"
            failed_path = gate.paths[index]
            gate.fail_at = None

            rounds = assert_only_complete_checkpoints(store_dir)
            assert rounds == list(range(len(rounds))), f"call {index}: gap in {rounds}"
            if "/checkpoints/" in failed_path:
                # the checkpoint the failed call belonged to is absent, its predecessors intact
                assert len(rounds) < ROUNDS, f"call {index} ({failed_path})"

            resumed = run_algorithm(
                "adaptivefl", tiny_prepared, store=store_dir, checkpoint_every=1, resume=True
            )
            assert fingerprint(resumed, store_dir) == uninterrupted, f"call {index} ({failed_path})"
