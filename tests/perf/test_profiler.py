"""Profiler unit tests and its threading through FederatedAlgorithm.run."""

import numpy as np

from repro.api.callbacks import Callback
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.perf.profiler import Profiler, render_summary


class TestProfiler:
    def test_disabled_is_a_noop(self):
        profiler = Profiler(enabled=False)
        with profiler.scope("x"):
            pass
        profiler.count("c", 5)
        assert profiler.summary() == {"scopes": [], "counters": {}}

    def test_scopes_accumulate(self):
        profiler = Profiler(enabled=True)
        for _ in range(3):
            with profiler.scope("x"):
                pass
        profiler.count("c", 2)
        profiler.count("c", 3)
        summary = profiler.summary()
        assert summary["scopes"][0]["name"] == "x"
        assert summary["scopes"][0]["calls"] == 3
        assert summary["counters"] == {"c": 5.0}
        assert "x" in profiler.render()

    def test_reset(self):
        profiler = Profiler(enabled=True)
        with profiler.scope("x"):
            pass
        profiler.reset()
        assert profiler.summary() == {"scopes": [], "counters": {}}

    def test_backing_registry_exposes_scopes_and_counters(self):
        profiler = Profiler(enabled=True)
        with profiler.scope("round.training"):
            pass
        profiler.count("transport.bytes_up", 128)
        exposition = profiler.registry.render()
        assert "profile_scope_round_training_count 1" in exposition
        assert "profile_counter_transport_bytes_up 128" in exposition


class TestRenderSummary:
    def test_empty_profiler_renders_header_only(self):
        text = render_summary(Profiler(enabled=True).summary())
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


class TestRunProfiling:
    def test_run_profile_collects_phases_and_counters(self, easy_setup):
        federated = FederatedConfig(num_rounds=2, clients_per_round=3, eval_every=2)
        local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=AdaptiveFLConfig(federated=federated, local=local, pool=easy_setup["pool"]),
            seed=0,
        )
        history = algorithm.run(profile=True)
        assert len(history) == 2
        summary = algorithm.profiler.summary()
        names = {scope["name"] for scope in summary["scopes"]}
        assert {"round", "round.training", "round.aggregate", "evaluate"} <= names
        round_scope = next(s for s in summary["scopes"] if s["name"] == "round")
        assert round_scope["calls"] == 2
        counters = summary["counters"]
        assert counters.get("transport.publishes") == 2.0
        assert counters.get("transport.bytes_up", 0) > 0
        # modeled downlink is counted under delta transport too
        assert counters.get("transport.bytes_down", 0) > 0
        assert counters.get("workspace.buffer_hits", 0) > 0
        # the largest training arena of the run: this thread trained every task
        assert counters.get("workspace.arena_bytes", 0) > 0

    def test_early_stop_evaluation_is_inside_the_evaluate_scope(self, easy_setup):
        """A stop on a round off the eval cadence triggers a late evaluation;
        the profiler must count it like a scheduled one."""

        class StopAfterSecondRound(Callback):
            def on_round_end(self, algorithm, record):
                if record.round_index == 1:
                    algorithm.request_stop("test stop")

        federated = FederatedConfig(num_rounds=6, clients_per_round=3, eval_every=3)
        local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=1)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=AdaptiveFLConfig(federated=federated, local=local, pool=easy_setup["pool"]),
            seed=0,
        )
        history = algorithm.run(callbacks=[StopAfterSecondRound()], profile=True)
        assert len(history) == 2  # truncated before the first scheduled evaluation
        evaluated = history.evaluated_records()
        assert [record.round_index for record in evaluated] == [1]
        scopes = {scope["name"]: scope for scope in algorithm.profiler.summary()["scopes"]}
        assert scopes["evaluate"]["calls"] == len(evaluated)

    def test_unprofiled_run_disables_and_preserves_summary(self, easy_setup):
        federated = FederatedConfig(num_rounds=1, clients_per_round=3, eval_every=1)
        local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=AdaptiveFLConfig(federated=federated, local=local, pool=easy_setup["pool"]),
            seed=0,
        )
        algorithm.run(profile=True)
        first = algorithm.profiler.summary()
        algorithm.run()  # unprofiled: must turn the profiler off ...
        assert not algorithm.profiler.enabled
        # ... and must not pollute the profiled run's data
        assert algorithm.profiler.summary() == first

    def test_profiling_does_not_change_results(self, easy_setup):
        federated = FederatedConfig(num_rounds=1, clients_per_round=3, eval_every=1)
        local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)

        def build():
            return AdaptiveFL(
                architecture=easy_setup["arch"],
                train_dataset=easy_setup["train"],
                partition=easy_setup["partition"],
                test_dataset=easy_setup["test"],
                profiles=easy_setup["profiles"],
                resource_model=easy_setup["resource_model"],
                algorithm_config=AdaptiveFLConfig(federated=federated, local=local, pool=easy_setup["pool"]),
                seed=0,
            )

        plain = build()
        plain.run()
        profiled = build()
        profiled.run(profile=True)
        for key, value in plain.global_state.items():
            assert np.array_equal(value, profiled.global_state[key])
