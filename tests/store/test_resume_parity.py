"""Resume-parity regression suite (the experiment store's core guarantee).

A run checkpointed at round *k* and resumed must produce a
**bit-identical** :class:`TrainingHistory` and final global weights to an
uninterrupted same-seed run — for every registered algorithm (AdaptiveFL's
RL tables and Decoupled's per-level models must travel with the weights),
across the serial and process executors,
and under a dynamic fleet scenario (whose battery/availability state must
travel too).  Exact float equality is intentional, mirroring
``tests/engine/test_parity.py``: resuming must not change a single bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api.registry import get_algorithm
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.store.runstore import RunRecorder, RunStore

ALGORITHMS = ["adaptivefl", "heterofl", "all_large", "scalefl", "decoupled"]
EXECUTORS = ["serial", "process"]

ROUNDS = 3
RESUME_AT = 1  # resume from the checkpoint written after this round
FEDERATED = FederatedConfig(num_rounds=ROUNDS, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)

KEY = {"suite": "resume-parity"}


def build_algorithm(name: str, easy_setup, executor: str, scenario: str | None = None):
    federated = replace(FEDERATED, executor=executor, max_workers=2)
    kwargs = dict(
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        scenario=scenario,
        seed=0,
    )
    spec = get_algorithm(name)
    if spec.uses_pool_config:
        kwargs["pool_config"] = easy_setup["pool"]
    if spec.uses_algorithm_config:
        return spec.factory(
            algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
            **kwargs,
        )
    return spec.factory(federated_config=federated, local_config=LOCAL, **kwargs)


def fingerprint(history) -> list[dict]:
    return [record.to_dict() for record in history.records]


def assert_same_weights(actual, expected):
    assert set(actual) == set(expected)
    for key, value in actual.items():
        assert value.dtype == expected[key].dtype
        assert np.array_equal(value, expected[key]), f"weights differ in {key!r}"


@pytest.fixture(scope="module")
def reference(easy_setup, tmp_path_factory):
    """Uninterrupted serial runs, checkpointed every round into a store."""
    runs = {}
    for scenario in (None, "flaky_edge"):
        for name in ALGORITHMS:
            store = RunStore(
                tmp_path_factory.mktemp(f"ref-{name}-{scenario or 'plain'}") / "store"
            )
            entry = store.begin_run({**KEY, "algorithm": name, "scenario": scenario})
            algorithm = build_algorithm(name, easy_setup, "serial", scenario=scenario)
            algorithm.run(callbacks=[RunRecorder(store, entry.run_id)])
            assert store.checkpoint_rounds(entry.run_id) == list(range(ROUNDS))
            runs[(name, scenario)] = (
                store,
                entry.run_id,
                fingerprint(algorithm.history),
                algorithm.global_state,
            )
    return runs


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_resume_bit_identical(easy_setup, reference, name, executor):
    store, run_id, expected_history, expected_state = reference[(name, None)]
    checkpoint = store.load_checkpoint(run_id, round_index=RESUME_AT)

    resumed = build_algorithm(name, easy_setup, executor)
    resumed.restore_checkpoint(checkpoint)
    assert len(resumed.history) == RESUME_AT + 1
    resumed.run(num_rounds=ROUNDS - (RESUME_AT + 1))

    assert fingerprint(resumed.history) == expected_history
    assert_same_weights(resumed.global_state, expected_state)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_resume_under_scenario_restores_fleet_state(easy_setup, reference, name):
    """Battery/availability dynamics continue exactly where they left off."""
    store, run_id, expected_history, expected_state = reference[(name, "flaky_edge")]
    checkpoint = store.load_checkpoint(run_id, round_index=RESUME_AT)

    resumed = build_algorithm(name, easy_setup, "serial", scenario="flaky_edge")
    resumed.restore_checkpoint(checkpoint)
    resumed.run(num_rounds=ROUNDS - (RESUME_AT + 1))

    assert fingerprint(resumed.history) == expected_history
    assert_same_weights(resumed.global_state, expected_state)


@pytest.mark.parametrize("round_index", range(ROUNDS - 1))
def test_every_checkpoint_round_resumes_identically(easy_setup, reference, round_index):
    """Not just the midpoint: every prefix of the run is a valid resume point."""
    store, run_id, expected_history, expected_state = reference[("adaptivefl", None)]
    checkpoint = store.load_checkpoint(run_id, round_index=round_index)
    resumed = build_algorithm("adaptivefl", easy_setup, "serial")
    resumed.restore_checkpoint(checkpoint)
    resumed.run(num_rounds=ROUNDS - (round_index + 1))
    assert fingerprint(resumed.history) == expected_history
    assert_same_weights(resumed.global_state, expected_state)


def test_rl_tables_travel_with_the_checkpoint(easy_setup, reference):
    """A resume that dropped the RL tables would silently diverge; prove they load."""
    store, run_id, _, _ = reference[("adaptivefl", None)]
    checkpoint = store.load_checkpoint(run_id, round_index=RESUME_AT)
    ids = checkpoint.extra_arrays["rl/client_ids"]
    assert ids.size > 0

    resumed = build_algorithm("adaptivefl", easy_setup, "serial")
    before = resumed.selector.snapshot()
    resumed.restore_checkpoint(checkpoint)
    after = resumed.selector.snapshot()
    assert not np.array_equal(before["curiosity"], after["curiosity"])
    assert np.array_equal(after["curiosity"][:, ids], checkpoint.extra_arrays["rl/curiosity_columns"])
    assert np.array_equal(after["resource"][:, ids], checkpoint.extra_arrays["rl/resource_columns"])


def test_decoupled_level_models_travel_with_the_checkpoint(easy_setup, reference):
    """``global_state`` is only Decoupled's L model: S and M must be checkpointed too."""
    store, run_id, _, _ = reference[("decoupled", None)]
    checkpoint = store.load_checkpoint(run_id, round_index=RESUME_AT)
    resumed = build_algorithm("decoupled", easy_setup, "serial")
    initial = {level: dict(weights) for level, weights in resumed.level_states.items()}
    resumed.restore_checkpoint(checkpoint)
    for level, weights in resumed.level_states.items():
        for key, value in weights.items():
            assert np.array_equal(value, checkpoint.extra_arrays[f"stream/{level}/{key}"])
    # a level below L was trained by then: restoring it is what the fix is about
    assert any(
        not np.array_equal(resumed.level_states[level][key], initial[level][key])
        for level in ("S", "M")
        for key in initial[level]
    )

    stripped = replace(checkpoint, extra_arrays={})
    with pytest.raises(ValueError, match=r"missing \['stream/L', 'stream/M', 'stream/S'\]"):
        build_algorithm("decoupled", easy_setup, "serial").restore_checkpoint(stripped)


class TestRestoreValidation:
    def test_restore_refuses_wrong_algorithm(self, easy_setup, reference):
        store, run_id, _, _ = reference[("adaptivefl", None)]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm("heterofl", easy_setup, "serial")
        with pytest.raises(ValueError, match="belongs to algorithm 'adaptivefl'"):
            target.restore_checkpoint(checkpoint)

    def test_restore_refuses_used_algorithm(self, easy_setup, reference):
        store, run_id, _, _ = reference[("adaptivefl", None)]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm("adaptivefl", easy_setup, "serial")
        target.run(num_rounds=1)
        with pytest.raises(RuntimeError, match="freshly built"):
            target.restore_checkpoint(checkpoint)

    def test_restore_refuses_scenario_mismatch(self, easy_setup, reference):
        store, run_id, _, _ = reference[("adaptivefl", "flaky_edge")]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm("adaptivefl", easy_setup, "serial")
        with pytest.raises(ValueError, match=r"unexpected \['fleet'\]"):
            target.restore_checkpoint(checkpoint)
