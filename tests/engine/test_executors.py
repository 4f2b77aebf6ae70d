"""Unit tests of the execution engine: ordering, errors, factory, RNG streams."""

import pickle

import numpy as np
import pytest

from repro.core.config import FederatedConfig
from repro.engine.base import default_max_workers
from repro.engine.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.engine.factory import EXECUTOR_NAMES, create_executor
from repro.engine.rng import client_stream, spawn_streams

ALL_EXECUTORS = ["serial", "thread", "process"]


class IndexTask:
    """Returns its index (plus a marker so results are distinguishable)."""

    def __init__(self, index: int):
        self.index = index

    def run(self) -> tuple[str, int]:
        return ("result", self.index)


class FailingTask:
    def __init__(self, message: str = "task exploded"):
        self.message = message

    def run(self):
        raise ValueError(self.message)


class StreamDrawTask:
    """Draws from its own stream — used to prove worker-independence."""

    def __init__(self, stream: np.random.SeedSequence):
        self.rng_stream = stream

    def run(self) -> list[int]:
        return np.random.default_rng(self.rng_stream).integers(0, 1_000_000, 4).tolist()


@pytest.mark.parametrize("name", ALL_EXECUTORS)
class TestExecutorContract:
    def test_map_preserves_submission_order(self, name):
        with create_executor(name, max_workers=3) as executor:
            results = executor.map([IndexTask(i) for i in range(17)])
        assert results == [("result", i) for i in range(17)]

    def test_empty_batch(self, name):
        with create_executor(name, max_workers=2) as executor:
            assert executor.map([]) == []

    def test_task_exception_propagates(self, name):
        with create_executor(name, max_workers=2) as executor:
            with pytest.raises(ValueError, match="task exploded"):
                executor.map([IndexTask(0), FailingTask(), IndexTask(2)])

    def test_reusable_across_rounds_and_after_shutdown(self, name):
        executor = create_executor(name, max_workers=2)
        try:
            assert executor.map([IndexTask(0)]) == [("result", 0)]
            executor.shutdown()
            executor.shutdown()  # idempotent
            # pools rebuild lazily after shutdown
            assert executor.map([IndexTask(1)]) == [("result", 1)]
        finally:
            executor.shutdown()

    def test_stream_tasks_identical_across_executors(self, name):
        tasks = [StreamDrawTask(client_stream(0, 2, cid)) for cid in range(5)]
        reference = [task.run() for task in tasks]
        with create_executor(name, max_workers=4) as executor:
            assert executor.map(tasks) == reference


class TestFactory:
    def test_names(self):
        assert tuple(EXECUTOR_NAMES) == ("serial", "thread", "process", "remote")
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("thread"), ThreadExecutor)
        assert isinstance(create_executor("process"), ProcessExecutor)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="executor must be one of"):
            create_executor("gpu")

    def test_bad_worker_count_rejected(self):
        for name in ALL_EXECUTORS:
            with pytest.raises(ValueError, match="max_workers"):
                create_executor(name, max_workers=0)

    def test_default_worker_resolution(self):
        assert default_max_workers() >= 1
        assert SerialExecutor().effective_workers == 1
        assert ThreadExecutor(max_workers=7).effective_workers == 7
        assert ThreadExecutor().effective_workers == default_max_workers()


class TestConfigValidation:
    def test_executor_field_validated(self):
        with pytest.raises(ValueError, match="executor"):
            FederatedConfig(executor="gpu")

    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            FederatedConfig(max_workers=0)

    def test_round_trips_with_engine_fields(self):
        config = FederatedConfig(num_rounds=3, executor="process", max_workers=4)
        assert FederatedConfig.from_dict(config.to_dict()) == config

    def test_legacy_payload_without_engine_fields_still_loads(self):
        payload = {"num_rounds": 3, "clients_per_round": 2, "eval_every": 1}
        config = FederatedConfig.from_dict(payload)
        assert config.executor == "serial" and config.max_workers is None


class TestRngStreams:
    def test_client_stream_matches_historical_serial_rng(self):
        """The engine streams must reproduce the pre-engine sequential RNGs
        (``default_rng((seed, round, client))``) bit for bit."""
        legacy = np.random.default_rng((3, 7, 5)).integers(0, 2**31, 16)
        engine = np.random.default_rng(client_stream(3, 7, 5)).integers(0, 2**31, 16)
        assert np.array_equal(legacy, engine)

    def test_streams_differ_across_clients_and_rounds(self):
        draws = {
            (r, c): tuple(np.random.default_rng(client_stream(0, r, c)).integers(0, 2**31, 4))
            for r in range(3)
            for c in range(3)
        }
        assert len(set(draws.values())) == len(draws)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            client_stream(0, -1, 0)
        with pytest.raises(ValueError):
            client_stream(0, 0, -1)

    def test_spawned_streams_deterministic_and_independent(self):
        parent = client_stream(1, 2, 3)
        first = spawn_streams(parent, 4)
        second = spawn_streams(client_stream(1, 2, 3), 4)
        draws_first = [np.random.default_rng(s).integers(0, 2**31, 4).tolist() for s in first]
        draws_second = [np.random.default_rng(s).integers(0, 2**31, 4).tolist() for s in second]
        assert draws_first == draws_second  # pure function of the parent identity
        assert len({tuple(d) for d in draws_first}) == 4  # children independent

    def test_spawn_is_insensitive_to_prior_spawns(self):
        parent = client_stream(1, 2, 3)
        spawn_streams(parent, 2)
        again = spawn_streams(parent, 2)
        reference = spawn_streams(client_stream(1, 2, 3), 2)
        assert [s.spawn_key for s in again] == [s.spawn_key for s in reference]

    def test_streams_pickle(self):
        stream = client_stream(0, 1, 2)
        clone = pickle.loads(pickle.dumps(stream))
        assert np.array_equal(
            np.random.default_rng(stream).integers(0, 2**31, 8),
            np.random.default_rng(clone).integers(0, 2**31, 8),
        )
