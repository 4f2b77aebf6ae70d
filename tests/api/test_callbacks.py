"""Callback protocol: invocation order, early stopping, budgets, streaming."""

import json

import pytest

from repro.api.callbacks import (
    Callback,
    CallbackList,
    EarlyStopping,
    JsonHistoryStreamer,
    ProgressCallback,
    WallClockBudget,
)
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL


class RecordingCallback(Callback):
    """Logs every hook invocation as (hook, round_index)."""

    def __init__(self):
        self.events = []

    def on_round_start(self, algorithm, round_index):
        self.events.append(("round_start", round_index))

    def on_evaluate(self, algorithm, record):
        self.events.append(("evaluate", record.round_index))

    def on_round_end(self, algorithm, record):
        self.events.append(("round_end", record.round_index))

    def on_checkpoint(self, algorithm, record):
        self.events.append(("checkpoint", record.round_index))

    def on_fit_end(self, algorithm, history):
        self.events.append(("fit_end", len(history)))


def make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, *, num_rounds=4, eval_every=2):
    federated = FederatedConfig(num_rounds=num_rounds, clients_per_round=3, eval_every=eval_every)
    local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
    config = AdaptiveFLConfig(federated=federated, local=local, pool=tiny_pool_config)
    return AdaptiveFL(
        architecture=tiny_cnn,
        train_dataset=tiny_federated_setup["train"],
        partition=tiny_federated_setup["partition"],
        test_dataset=tiny_federated_setup["test"],
        profiles=tiny_federated_setup["profiles"],
        resource_model=tiny_federated_setup["resource_model"],
        algorithm_config=config,
        seed=0,
    )


class TestInvocationOrder:
    def test_hooks_fire_in_documented_order(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        recorder = RecordingCallback()
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=4, eval_every=2)
        algorithm.run(callbacks=[recorder])
        assert recorder.events == [
            ("round_start", 0),
            ("round_end", 0),
            ("checkpoint", 0),
            ("round_start", 1),
            ("evaluate", 1),  # eval_every=2: rounds 1 and 3 are evaluated
            ("round_end", 1),
            ("checkpoint", 1),
            ("round_start", 2),
            ("round_end", 2),
            ("checkpoint", 2),
            ("round_start", 3),
            ("evaluate", 3),
            ("round_end", 3),
            ("checkpoint", 3),
            ("fit_end", 4),
        ]

    def test_checkpoint_fires_after_late_early_stop_evaluation(
        self, tiny_cnn, tiny_federated_setup, tiny_pool_config
    ):
        """On an early stop at an unevaluated round, on_checkpoint still sees
        the final (late-evaluated) record — the guarantee RunRecorder needs."""
        recorder = RecordingCallback()
        seen = []

        class StopAtFirstRound(Callback):
            def on_round_end(self, algorithm, record):
                algorithm.request_stop("test stop")

        class CheckpointReader(Callback):
            def on_checkpoint(self, algorithm, record):
                seen.append(record.full_accuracy)

        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=4, eval_every=2)
        algorithm.run(callbacks=[recorder, StopAtFirstRound(), CheckpointReader()])
        # round 0 is not on the eval cadence; the stop triggers the late evaluation
        assert recorder.events == [
            ("round_start", 0),
            ("round_end", 0),
            ("evaluate", 0),
            ("checkpoint", 0),
            ("fit_end", 1),
        ]
        assert seen == [algorithm.history.records[-1].full_accuracy]
        assert seen[0] is not None

    def test_request_stop_from_on_checkpoint_ends_after_current_round(
        self, tiny_cnn, tiny_federated_setup, tiny_pool_config
    ):
        """A stop requested inside on_checkpoint (e.g. a persistence failure)
        must end training after the round in flight, not one round later."""

        class StopFromCheckpoint(Callback):
            def on_checkpoint(self, algorithm, record):
                if record.round_index == 1:
                    algorithm.request_stop("checkpoint failed")

        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=4, eval_every=2)
        algorithm.run(callbacks=[StopFromCheckpoint()])
        assert len(algorithm.history) == 2  # rounds 0 and 1 only
        assert algorithm.stop_reason == "checkpoint failed"
        assert algorithm.history.records[-1].full_accuracy is not None

    def test_callback_list_dispatches_to_all(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        first, second = RecordingCallback(), RecordingCallback()
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=1, eval_every=1)
        algorithm.run(callbacks=CallbackList([first, second]).callbacks)
        assert first.events == second.events

    def test_planned_rounds_visible_to_callbacks(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        seen = []

        class PlanReader(Callback):
            def on_round_start(self, algorithm, round_index):
                seen.append(algorithm.planned_rounds)

        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=2, eval_every=2)
        algorithm.run(callbacks=[PlanReader()])
        assert seen == [2, 2]


class TestEarlyStopping:
    def test_stops_when_no_improvement(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        # min_delta=1.0 means accuracy (<=1) can never improve "enough":
        # the first evaluation sets the best, the second is stale -> stop.
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=1)
        history = algorithm.run(callbacks=[EarlyStopping(patience=1, min_delta=1.0)])
        assert len(history) == 2
        assert algorithm.stop_reason is not None and "early stopping" in algorithm.stop_reason

    def test_patience_counts_evaluations_not_rounds(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        # eval_every=2 over 6 rounds -> evaluations at rounds 1, 3, 5.
        # patience=1 with impossible min_delta stops after the 2nd evaluation.
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=2)
        history = algorithm.run(callbacks=[EarlyStopping(patience=1, min_delta=1.0)])
        assert len(history) == 4  # rounds 0..3; stop requested at round 3's evaluation

    def test_run_completes_without_stop(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=3, eval_every=1)
        history = algorithm.run(callbacks=[EarlyStopping(patience=10)])
        assert len(history) == 3
        assert algorithm.stop_reason is None

    def test_reused_instance_resets_between_runs(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        stopper = EarlyStopping(patience=1, min_delta=1.0)
        first = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=1)
        first.run(callbacks=[stopper])
        assert stopper.best is None and stopper.stale_evaluations == 0  # reset at fit end
        second = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=1)
        history = second.run(callbacks=[stopper])
        assert len(history) == 2  # judged afresh: stops after its own 2nd evaluation

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(monitor="loss")
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestWallClockBudget:
    def test_stops_after_budget(self, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        fake_time = iter(range(100))
        budget = WallClockBudget(budget_seconds=1.5, clock=lambda: float(next(fake_time)))
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=6)
        history = algorithm.run(callbacks=[budget])
        # clock ticks: first round_start=0, round ends at 1 (elapsed 1 < 1.5)
        # and 2 (elapsed 2 >= 1.5) -> stops after the second round
        assert len(history) == 2
        assert "budget" in algorithm.stop_reason

    def test_validation(self):
        with pytest.raises(ValueError):
            WallClockBudget(0)

    def test_reused_instance_grants_each_run_its_own_budget(
        self, tiny_cnn, tiny_federated_setup, tiny_pool_config
    ):
        # passing the same instance to several runs (as ExperimentSession.compare allows)
        # must not leak the first run's start time into the second
        fake_time = iter(range(100))
        budget = WallClockBudget(budget_seconds=1.5, clock=lambda: float(next(fake_time)))
        first = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=6)
        second = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=6)
        assert len(first.run(callbacks=[budget])) == 2
        assert len(second.run(callbacks=[budget])) == 2  # fresh budget, not instantly exhausted

    def test_stop_before_first_evaluation_still_evaluates_final_round(
        self, tiny_cnn, tiny_federated_setup, tiny_pool_config
    ):
        # budget exhausts after round 1, long before eval_every=6 would
        # evaluate; the truncated history must still end evaluated so
        # AlgorithmResult/history files can always be produced
        budget = WallClockBudget(budget_seconds=0.5, clock=iter(range(100)).__next__)
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=6, eval_every=6)
        history = algorithm.run(callbacks=[budget])
        assert len(history) == 1
        assert history.records[-1].full_accuracy is not None
        assert history.final_accuracy("full") >= 0.0


class TestJsonHistoryStreamer:
    def test_streams_one_line_per_round(self, tmp_path, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        path = tmp_path / "rounds.jsonl"
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=3, eval_every=3)
        algorithm.run(callbacks=[JsonHistoryStreamer(path)])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert [line["round"] for line in lines] == [0, 1, 2]
        assert all(line["algorithm"] == "adaptivefl" for line in lines)
        assert lines[-1]["full_accuracy"] is not None  # last round is evaluated


class TestProgressCompat:
    def test_progress_flag_prints_per_round(self, capsys, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=2, eval_every=2)
        algorithm.run(progress=True)
        out = capsys.readouterr().out
        assert "[adaptivefl] round 1/2" in out
        assert "[adaptivefl] round 2/2" in out

    def test_progress_callback_every(self, capsys, tiny_cnn, tiny_federated_setup, tiny_pool_config):
        algorithm = make_algorithm(tiny_cnn, tiny_federated_setup, tiny_pool_config, num_rounds=4, eval_every=4)
        algorithm.run(callbacks=[ProgressCallback(every=2)])
        out = capsys.readouterr().out
        assert "round 2/4" in out and "round 4/4" in out
        assert "round 1/4" not in out and "round 3/4" not in out
