"""Baseline algorithm tests: All-Large, Decoupled, HeteroFL, ScaleFL."""

import numpy as np
import pytest

from repro.api.cli import main
from repro.api.registry import available_algorithms, get_algorithm, register_algorithm, unregister_algorithm
from repro.baselines import AllLargeFedAvg, DecoupledFL, HeteroFL, ScaleFL
from repro.baselines.base import capacity_level_assignment
from repro.baselines.scalefl import calibrate_width_ratio, two_dimensional_group_sizes
from repro.core.fl_base import FederatedAlgorithm
from repro.core.history import RoundRecord
from repro.engine.tasks import TrainSubmodelTask
from repro.store.runstore import RunStore


def build_baseline(cls, tiny_cnn, tiny_federated_setup, fast_configs, **extra):
    setup = tiny_federated_setup
    kwargs = dict(
        architecture=tiny_cnn,
        train_dataset=setup["train"],
        partition=setup["partition"],
        test_dataset=setup["test"],
        profiles=setup["profiles"],
        federated_config=fast_configs["federated"],
        local_config=fast_configs["local"],
        resource_model=setup["resource_model"],
        seed=0,
    )
    if cls is not HeteroFL:
        kwargs["pool_config"] = fast_configs["pool"]
    kwargs.update(extra)
    return cls(**kwargs)


class TestRegistry:
    def test_algorithm_names(self):
        """Each baseline is registered under its name with the class this package exports."""
        baselines = {"all_large": AllLargeFedAvg, "decoupled": DecoupledFL, "heterofl": HeteroFL, "scalefl": ScaleFL}
        assert {name: get_algorithm(name).factory for name in baselines} == baselines
        assert set(available_algorithms()) == set(baselines) | {"adaptivefl"}


class TestAllLarge:
    def test_dispatches_full_model_with_zero_waste(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(AllLargeFedAvg, tiny_cnn, tiny_federated_setup, fast_configs)
        record = algorithm.run_round(0)
        assert all(name == "L1" for name in record.dispatched)
        assert record.communication_waste == pytest.approx(0.0)

    def test_round_changes_global_state(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(AllLargeFedAvg, tiny_cnn, tiny_federated_setup, fast_configs)
        before = {k: v.copy() for k, v in algorithm.global_state.items()}
        algorithm.run_round(0)
        assert any(not np.allclose(algorithm.global_state[k], before[k]) for k in before)

    def test_run_produces_history(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(AllLargeFedAvg, tiny_cnn, tiny_federated_setup, fast_configs)
        history = algorithm.run()
        assert history.final_accuracy("full") >= 0.0


class TestDecoupled:
    def test_levels_stay_isolated(self, tiny_cnn, tiny_federated_setup, fast_configs):
        """A round that only trains one level must leave the other level states
        untouched — the defining property of the Decoupled baseline."""
        algorithm = build_baseline(DecoupledFL, tiny_cnn, tiny_federated_setup, fast_configs)
        before = {level: {k: v.copy() for k, v in state.items()} for level, state in algorithm.level_states.items()}
        record = algorithm.run_round(0)
        trained_levels = {name[0] for name in record.dispatched}
        for level, state in algorithm.level_states.items():
            changed = any(not np.allclose(state[k], before[level][k]) for k in state)
            if level in trained_levels:
                assert changed
            else:
                assert not changed

    def test_assignment_respects_capacity(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(DecoupledFL, tiny_cnn, tiny_federated_setup, fast_configs)
        for client_id, level in algorithm.client_level.items():
            capacity = algorithm.resource_model.nominal_capacity(client_id)
            smallest = min(algorithm.level_heads.values(), key=lambda cfg: cfg.num_params)
            assigned = algorithm.level_heads[level]
            assert assigned.num_params <= capacity or assigned.name == smallest.name

    def test_evaluation_uses_per_level_states(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(DecoupledFL, tiny_cnn, tiny_federated_setup, fast_configs)
        algorithm.run_round(0)
        full_accuracy, level_accuracies = algorithm.evaluate()
        assert set(level_accuracies) == {"S", "M", "L"}
        assert 0.0 <= full_accuracy <= 1.0


class TestHeteroFL:
    def test_every_layer_pruned_in_small_level(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(HeteroFL, tiny_cnn, tiny_federated_setup, fast_configs)
        small_sizes = algorithm.pool.group_sizes(algorithm.level_heads["S"])
        full_sizes = algorithm.architecture.full_group_sizes()
        assert all(small_sizes[name] < full_sizes[name] for name in full_sizes if full_sizes[name] > 1)

    def test_static_assignment_and_waste_free_rounds(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(HeteroFL, tiny_cnn, tiny_federated_setup, fast_configs)
        record = algorithm.run_round(0)
        assert record.communication_waste == pytest.approx(0.0)
        for client_id, name in zip(record.selected_clients, record.dispatched):
            assert name == f"{algorithm.client_level[client_id]}1"

    def test_run_loop(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(HeteroFL, tiny_cnn, tiny_federated_setup, fast_configs)
        history = algorithm.run()
        assert len(history) == fast_configs["federated"].num_rounds


class TestScaleFL:
    def test_two_dimensional_sizes(self, tiny_cnn):
        sizes = two_dimensional_group_sizes(tiny_cnn, width_ratio=0.5, depth_fraction=0.5, tail_ratio=0.1)
        max_layer = tiny_cnn.num_prunable_layers()
        cutoff = int(np.ceil(0.5 * max_layer))
        for group in tiny_cnn.channel_groups():
            if group.layer_index <= cutoff:
                assert sizes[group.name] == max(1, int(group.full_size * 0.5))
            else:
                assert sizes[group.name] <= max(1, int(group.full_size * 0.1) + 1)

    def test_calibration_hits_target_budget(self, tiny_vgg):
        width = calibrate_width_ratio(tiny_vgg, target_fraction=0.5, depth_fraction=0.75, tail_ratio=0.15)
        sizes = two_dimensional_group_sizes(tiny_vgg, width, 0.75, 0.15)
        fraction = tiny_vgg.parameter_count(sizes) / tiny_vgg.parameter_count()
        assert fraction == pytest.approx(0.5, abs=0.08)

    def test_level_budgets_ordered(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(ScaleFL, tiny_cnn, tiny_federated_setup, fast_configs)
        assert algorithm.level_params["S"] < algorithm.level_params["M"] < algorithm.level_params["L"]
        assert algorithm.level_params["L"] == tiny_cnn.parameter_count()

    def test_round_and_evaluation(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(ScaleFL, tiny_cnn, tiny_federated_setup, fast_configs)
        record = algorithm.run_round(0)
        assert len(record.dispatched) == fast_configs["federated"].clients_per_round
        full_accuracy, level_accuracies = algorithm.evaluate()
        assert set(level_accuracies) == {"S", "M", "L"}
        assert 0.0 <= full_accuracy <= 1.0


class TestCapacityAssignment:
    def test_largest_affordable_level_chosen(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(AllLargeFedAvg, tiny_cnn, tiny_federated_setup, fast_configs)
        levels = {"S": 10, "M": 1_000, "L": 10**9}
        assignment = capacity_level_assignment(algorithm, levels)
        for client_id, level in assignment.items():
            capacity = algorithm.resource_model.nominal_capacity(client_id)
            assert levels[level] <= capacity or level == "S"


BASELINES = pytest.mark.parametrize("cls", [AllLargeFedAvg, DecoupledFL, HeteroFL, ScaleFL], ids=lambda cls: cls.name)


class TestRoundPlan:
    @BASELINES
    def test_columns_have_one_entry_per_slot(self, cls, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = build_baseline(cls, tiny_cnn, tiny_federated_setup, fast_configs)
        plan = algorithm.plan_round(0, algorithm.round_rng(0))
        columns = [
            plan.clients, plan.dispatched, plan.returned, plan.sent_params,
            plan.back_params, plan.group_sizes, plan.streams,
        ]
        assert {len(column) for column in columns} == {fast_configs["federated"].clients_per_round}
        assert len(set(plan.clients)) == len(plan.clients)
        assert all(back <= sent for sent, back in zip(plan.sent_params, plan.back_params))
        assert [tiny_cnn.parameter_count(sizes) for sizes in plan.group_sizes] == plan.back_params
        assert set(plan.streams) <= set(algorithm.round_streams())

    @BASELINES
    def test_the_round_records_its_plan(self, cls, tiny_cnn, tiny_federated_setup, fast_configs):
        """``run_round`` hands ``plan_round`` the round's generator and draws nothing else from it."""
        planned = build_baseline(cls, tiny_cnn, tiny_federated_setup, fast_configs)
        trained = build_baseline(cls, tiny_cnn, tiny_federated_setup, fast_configs)
        for round_index in range(2):
            plan = planned.plan_round(round_index, planned.round_rng(round_index))
            record = trained.run_round(round_index)
            assert record.selected_clients == plan.clients
            assert (record.dispatched, record.returned) == (plan.dispatched, plan.returned)

    @BASELINES
    def test_a_round_nobody_is_reachable_in_trains_nothing(
        self, cls, tiny_cnn, tiny_federated_setup, fast_configs, monkeypatch
    ):
        algorithm = build_baseline(cls, tiny_cnn, tiny_federated_setup, fast_configs, scenario="flaky_edge")
        monkeypatch.setattr(algorithm.fleet, "available_mask", lambda round_index: np.zeros(8, dtype=bool))
        before = {name: value.copy() for name, value in algorithm.global_state.items()}
        record = algorithm.run_round(0)
        assert record.selected_clients == [] and record.dispatched == [] and record.dropped_clients == []
        assert record.train_loss is None and record.communication_waste is None
        for name, value in before.items():
            assert algorithm.global_state[name].tobytes() == value.tobytes()


class WholeRound(FederatedAlgorithm):
    """The plug-in shape from before ``plan_round`` existed: the subclass owns the whole round."""

    name = "whole_round"
    crash_before_round: int | None = None

    def run_round(self, round_index):
        if round_index == self.crash_before_round:
            raise KeyboardInterrupt(f"injected crash before round {round_index}")
        selected = [int(c) for c in self.round_rng(round_index).choice(self.num_clients, size=2, replace=False)]
        sizes = self.architecture.full_group_sizes()
        handle = self.publish_state(self.global_state)
        tasks = [
            TrainSubmodelTask(
                architecture=self.architecture, group_sizes=sizes, initial_state=handle,
                dataset=self.client_dataset_source(client_id), local_config=self.local_config,
                client_id=client_id, rng_stream=self.client_stream(round_index, client_id),
            )
            for client_id in selected
        ]
        results = self.execute_client_tasks(tasks)
        self.fold_results(results, [sizes] * len(results))
        record = RoundRecord(
            round_index=round_index, train_loss=float(np.mean([result.mean_loss for result in results])),
            communication_waste=0.0, dispatched=["L1"] * 2, returned=["L1"] * 2, selected_clients=selected,
        )
        return self.finalize_round(record)


class TestWholeRoundOverride:
    def test_runs_under_repro_run_with_store_and_resume(self, tmp_path, monkeypatch):
        register_algorithm("whole_round", description="owns run_round")(WholeRound)
        try:
            argv = [
                "run", "--algorithm", "whole_round", "--scale", "ci", "--rounds", "3", "--quiet",
                "--output-dir", str(tmp_path / "results"),
            ]
            assert main([*argv, "--store", str(tmp_path / "whole")]) == 0
            whole = RunStore(tmp_path / "whole")
            [entry] = whole.runs()
            expected = whole.load_history(entry.run_id)
            assert len(expected) == 3

            crashed = [*argv, "--store", str(tmp_path / "crashed")]
            monkeypatch.setattr(WholeRound, "crash_before_round", 2)
            with pytest.raises(KeyboardInterrupt):
                main(crashed)
            monkeypatch.setattr(WholeRound, "crash_before_round", None)
            assert main([*crashed, "--resume"]) == 0
            store = RunStore(tmp_path / "crashed")
            [entry] = store.runs()
            assert entry.completed
            assert store.load_history(entry.run_id).to_dict() == expected.to_dict()
        finally:
            unregister_algorithm("whole_round")
