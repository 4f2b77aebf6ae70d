"""The timing seam (``stage`` / ``count`` / the ``Profiler`` listener) and its use by FederatedAlgorithm.run."""

import os
import threading

import pytest

from repro.api.callbacks import Callback
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.obs.events import configure_telemetry, shutdown_telemetry
from repro.perf.profiler import Profiler, Stage, attach, count, render_summary, stage

ROUND_CHILDREN = {
    "round.plan", "round.fleet", "round.publish", "round.execute",
    "round.fold", "round.evaluate", "round.record", "round.checkpoint",
}


@pytest.fixture
def listening():
    """A fresh profiler attached for the test, detached afterwards."""
    profiler = Profiler()
    outer = attach(profiler)
    yield profiler
    attach(outer)


def scopes(profiler: Profiler) -> dict[str, dict]:
    return {row["name"]: row for row in profiler.summary()["scopes"]}


def build(easy_setup, num_rounds=2, eval_every=2, **federated) -> AdaptiveFL:
    return AdaptiveFL(
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        algorithm_config=AdaptiveFLConfig(
            federated=FederatedConfig(num_rounds=num_rounds, clients_per_round=3, eval_every=eval_every, **federated),
            local=LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2),
            pool=easy_setup["pool"],
        ),
        seed=0,
    )


def is_dormant() -> bool:
    """No listener is attached: every stage is the one shared no-op."""
    return stage("a") is stage("b")


class TestSeam:
    def test_nothing_listens_by_default(self):
        assert is_dormant()
        profiler = Profiler()
        with stage("x"):
            pass
        count("c", 5)
        assert profiler.summary() == {"scopes": [], "counters": {}}

    def test_stages_and_counters_accumulate_while_attached(self, listening):
        for _ in range(3):
            with stage("x"):
                pass
        count("c", 2)
        count("c", 3)
        summary = listening.summary()
        assert [(row["name"], row["calls"]) for row in summary["scopes"]] == [("x", 3)]
        assert summary["counters"] == {"c": 5.0}
        assert "x" in render_summary(summary)

    def test_a_stage_measures_with_or_without_a_listener(self):
        with Stage("alone") as timed:
            sum(range(1000))
        assert timed.seconds > 0.0

    def test_a_stage_raising_still_reports(self, listening):
        with pytest.raises(RuntimeError), stage("x"):
            raise RuntimeError("boom")
        assert scopes(listening)["x"]["calls"] == 1

    def test_reset(self, listening):
        with stage("x"):
            pass
        count("c")
        listening.reset()
        assert listening.summary() == {"scopes": [], "counters": {}}

    def test_unattributed_is_round_less_its_direct_children(self):
        profiler = Profiler()
        for name, seconds in [
            ("round", 1.0), ("round.a", 0.25), ("round.b", 0.5), ("round.a.inner", 0.2), ("task.train", 5.0),
        ]:
            profiler.observe(name, seconds)
        rows = scopes(profiler)
        assert rows["round.unattributed"] == {"name": "round.unattributed", "calls": 1, "seconds": 0.25}
        assert Profiler().summary()["scopes"] == []  # no round, no unattributed row

    def test_threads_report_at_the_same_time(self, listening):
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(200):
                with stage("task.train"):
                    count("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert scopes(listening)["task.train"]["calls"] == 800
        assert listening.summary()["counters"] == {"n": 800.0}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_starts_without_a_listener(self, listening):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os._exit(0 if is_dormant() else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert not is_dormant()


class TestRenderSummary:
    def test_empty_profiler_renders_header_only(self):
        text = render_summary(Profiler().summary())
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].split() == ["scope", "calls", "seconds", "avg", "ms"]

    def test_empty_dict_summary_is_tolerated(self):
        # summaries reloaded from a hand-edited profile.json may omit keys
        assert render_summary({}) == f"{'scope':<28} {'calls':>7} {'seconds':>10} {'avg ms':>9}"

    def test_zero_duration_scope_renders_zero_average(self):
        summary = {"scopes": [{"name": "noop", "calls": 0, "seconds": 0.0}], "counters": {}}
        text = render_summary(summary)
        assert "noop" in text
        assert "0.000" in text  # avg ms must not divide by zero

    def test_title_and_counter_formatting(self):
        summary = {
            "scopes": [],
            "counters": {"bytes": 1234567.0, "ratio": 0.5},
        }
        text = render_summary(summary, title="profile — x")
        assert text.startswith("profile — x")
        assert "1,234,567" in text  # integral counters grouped, no decimals
        assert "0.500" in text


class RecordingProfiler(Profiler):
    """Keeps every ``round`` measurement and the thread each ``task.*`` stage came from."""

    def __init__(self):
        super().__init__()
        self.rounds: list[float] = []
        self.task_threads: list[threading.Thread] = []

    def observe(self, name, seconds):
        super().observe(name, seconds)
        if name == "round":
            self.rounds.append(seconds)
        elif name.startswith("task."):
            self.task_threads.append(threading.current_thread())


class TestRunProfiling:
    def test_run_profile_collects_stages_and_counters(self, easy_setup):
        algorithm = build(easy_setup)
        history = algorithm.run(profile=True)
        assert len(history) == 2
        assert is_dormant()  # detached again
        summary = algorithm.profiler.summary()
        rows = {row["name"]: row for row in summary["scopes"]}
        assert ROUND_CHILDREN | {"round", "round.unattributed", "task.train", "task.encode"} <= set(rows)
        assert rows["round"]["calls"] == 2
        children = sum(rows[name]["seconds"] for name in ROUND_CHILDREN)
        assert children + rows["round.unattributed"]["seconds"] == pytest.approx(rows["round"]["seconds"], abs=1e-9)
        counters = summary["counters"]
        assert counters.get("transport.publishes") == 2.0
        assert counters.get("transport.bytes_up", 0) > 0
        # modeled downlink is counted under delta transport too
        assert counters.get("transport.bytes_down", 0) > 0
        assert counters.get("workspace.buffer_hits", 0) > 0
        # the largest training arena of the run: this thread trained every task
        assert counters.get("workspace.arena_bytes", 0) > 0

    def test_early_stop_evaluation_is_inside_round_evaluate(self, easy_setup):
        """A stop on a round off the eval cadence triggers a late evaluation;
        the profile must count it like a scheduled one."""

        class StopAfterSecondRound(Callback):
            def on_round_end(self, algorithm, record):
                if record.round_index == 1:
                    algorithm.request_stop("test stop")

        algorithm = build(easy_setup, num_rounds=6, eval_every=3)
        history = algorithm.run(callbacks=[StopAfterSecondRound()], profile=True)
        assert len(history) == 2  # truncated before the first scheduled evaluation
        evaluated = history.evaluated_records()
        assert [record.round_index for record in evaluated] == [1]
        assert scopes(algorithm.profiler)["round.evaluate"]["calls"] == len(evaluated)

    def test_unprofiled_run_attaches_nothing_and_preserves_summary(self, easy_setup):
        algorithm = build(easy_setup, num_rounds=1, eval_every=1)
        algorithm.run(profile=True)
        first = algorithm.profiler.summary()
        listener = RecordingProfiler()
        outer = attach(listener)
        try:
            algorithm.run()  # unprofiled: attaches nothing and replaces nothing ...
            assert attach(outer) is listener
        finally:
            attach(outer)
        # ... and does not pollute the profiled run's data
        assert algorithm.profiler.summary() == first

    def test_listener_is_detached_when_a_callback_raises(self, easy_setup):
        class Explode(Callback):
            def on_round_end(self, algorithm, record):
                raise RuntimeError("callback failed")

        algorithm = build(easy_setup, num_rounds=3, eval_every=1)
        with pytest.raises(RuntimeError, match="callback failed"):
            algorithm.run(callbacks=[Explode()], profile=True)
        assert is_dormant()
        assert scopes(algorithm.profiler)["round.execute"]["calls"] == 1

    def test_each_round_end_is_the_profiled_round(self, easy_setup):
        algorithm = build(easy_setup, num_rounds=3, eval_every=2)
        algorithm.profiler = RecordingProfiler()
        (ring,) = configure_telemetry(ring_size=256)
        try:
            algorithm.run(profile=True)
            ends = [event.data["duration_seconds"] for event in ring.events() if event.type == "round_end"]
        finally:
            shutdown_telemetry()
        assert ends == [round(seconds, 6) for seconds in algorithm.profiler.rounds]
        assert len(ends) == 3

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_profiling_changes_no_history_bit(self, easy_setup, executor):
        plain = build(easy_setup, num_rounds=2, eval_every=1, executor=executor, max_workers=2)
        profiled = build(easy_setup, num_rounds=2, eval_every=1, executor=executor, max_workers=2)
        profiled.profiler = RecordingProfiler()
        plain.run()
        profiled.run(profile=True)
        assert plain.history.to_dict() == profiled.history.to_dict()
        for key, value in plain.global_state.items():
            assert value.tobytes() == profiled.global_state[key].tobytes()
        # the task stages were heard, from pool threads on the thread executor
        assert profiled.profiler.task_threads
        on_main = {thread is threading.main_thread() for thread in profiled.profiler.task_threads}
        assert on_main == {executor == "serial"}
