"""AdaptiveFL server / training-loop tests (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig
from repro.core.pruning import resource_aware_prune
from repro.core.server import AdaptiveFL
from repro.engine.tasks import TrainSubmodelTask
from repro.store.checkpoint import load_parts, save_parts


def make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="rl-cs", seed=0, scenario=None):
    config = AdaptiveFLConfig(
        federated=fast_configs["federated"],
        local=fast_configs["local"],
        pool=fast_configs["pool"],
        selection_strategy=strategy,
    )
    setup = tiny_federated_setup
    return AdaptiveFL(
        architecture=tiny_cnn,
        train_dataset=setup["train"],
        partition=setup["partition"],
        test_dataset=setup["test"],
        profiles=setup["profiles"],
        resource_model=setup["resource_model"],
        algorithm_config=config,
        scenario=scenario,
        seed=seed,
    )


class TestConfig:
    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            AdaptiveFLConfig(selection_strategy="rl-x")

    def test_federated_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(num_rounds=0)
        with pytest.raises(ValueError):
            FederatedConfig(clients_per_round=0)

    def test_an_unknown_transport_is_named_in_the_error(self):
        with pytest.raises(ValueError, match=r"one of \['delta'\], got 'raw'"):
            FederatedConfig(transport="raw")

    def test_removed_selector_backend_key_is_refused(self):
        """The knob is gone without a deprecation path: strict unknown-key error."""
        payload = {**AdaptiveFLConfig().to_dict(), "selector_backend": "dense"}
        with pytest.raises(ValueError, match="does not accept key.*'selector_backend'"):
            AdaptiveFLConfig.from_dict(payload)


class TestRound:
    def test_round_record_contents(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        record = algorithm.run_round(0)
        expected = fast_configs["federated"].clients_per_round
        assert len(record.dispatched) == expected
        assert len(record.returned) == expected
        assert len(set(record.selected_clients)) == expected
        assert 0.0 <= record.communication_waste <= 1.0
        for sent_name, back_name in zip(record.dispatched, record.returned):
            sent = algorithm.pool.by_name(sent_name)
            back = algorithm.pool.by_name(back_name)
            assert back.num_params <= sent.num_params

    def test_round_updates_global_state_and_tables(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        before = {name: value.copy() for name, value in algorithm.global_state.items()}
        curiosity_before = algorithm.selector.snapshot()["curiosity"]
        record = algorithm.run_round(0)
        changed = any(not np.allclose(algorithm.global_state[name], before[name]) for name in before)
        assert changed
        assert algorithm.selector.snapshot()["curiosity"].sum() > curiosity_before.sum()
        # RL rows materialise for the selected clients only
        assert algorithm.selector.num_touched == len(set(record.selected_clients))

    def test_greedy_always_dispatches_full_model(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="greedy")
        record = algorithm.run_round(0)
        assert all(name == "L1" for name in record.dispatched)

    def test_greedy_has_higher_waste_than_rl(self, tiny_cnn, tiny_federated_setup, fast_configs):
        """The headline claim of Figure 5a: once the resource table has seen a
        few rounds, the RL strategy wastes less communication than always
        dispatching the full model."""
        greedy = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="greedy")
        rl = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="rl-s")
        warmup, measured = 6, 8
        greedy_rates = [greedy.run_round(r).communication_waste for r in range(warmup + measured)]
        rl_rates = [rl.run_round(r).communication_waste for r in range(warmup + measured)]
        assert np.mean(greedy_rates[warmup:]) > np.mean(rl_rates[warmup:])


class TestRoundPlan:
    def test_columns_have_one_entry_per_slot(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        plan = algorithm.plan_round(0, algorithm.round_rng(0))
        columns = [
            plan.clients, plan.dispatched, plan.returned, plan.sent_params, plan.back_params,
            plan.group_sizes, plan.streams,
        ]
        assert {len(column) for column in columns} == {fast_configs["federated"].clients_per_round}
        assert len(set(plan.clients)) == len(plan.clients)
        assert set(plan.streams) == set(algorithm.round_streams())
        pool = algorithm.pool
        for slot, client in enumerate(plan.clients):
            sent, back = pool.by_name(plan.dispatched[slot]), pool.by_name(plan.returned[slot])
            assert plan.sent_params[slot] == sent.num_params
            assert plan.back_params[slot] == back.num_params
            assert back.num_params <= sent.num_params and pool.fits_within(back, sent)
            assert back.num_params <= algorithm.client_capacity(client, 0) or back is pool.by_rank(0)
            assert plan.group_sizes[slot] == pool.group_sizes(back)
            assert tiny_cnn.parameter_count(plan.group_sizes[slot]) == back.num_params

    @pytest.mark.parametrize("scenario", [None, "flaky_edge"])
    def test_every_task_trains_the_devices_pruned_submodel(
        self, tiny_cnn, tiny_federated_setup, fast_configs, monkeypatch, scenario
    ):
        """Each slot's task trains what the device's resource-aware pruning returns
        on its own capacity this round: the ⟨dispatched, returned⟩ pair the RL
        tables learn from is the layout the device uploads."""
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, scenario=scenario)
        pool, plans, dispatches = algorithm.pool, [], []
        plan_round, execute = algorithm.plan_round, algorithm.execute_client_tasks
        monkeypatch.setattr(algorithm, "plan_round", lambda *args: plans.append(plan_round(*args)) or plans[-1])
        monkeypatch.setattr(algorithm, "execute_client_tasks", lambda tasks: dispatches.append(tasks) or execute(tasks))
        pruned = 0
        for round_index in range(6):
            algorithm.run_round(round_index)
            plan, tasks = plans[round_index], dispatches[round_index]
            assert tasks and {type(task) for task in tasks} == {TrainSubmodelTask}
            for task in tasks:
                slot = plan.clients.index(task.client_id)
                dispatched = pool.by_name(plan.dispatched[slot])
                capacity = algorithm.client_capacity(task.client_id, round_index)
                expected = resource_aware_prune(pool, dispatched, capacity)
                assert task.group_sizes == pool.group_sizes(expected)
                assert task.cost == expected.num_params
                pruned += expected.name != dispatched.name
        assert pruned, "no device pruned: the check saw only unpruned slots"

    def test_no_pruning_when_capacity_sufficient(self, tiny_cnn, tiny_federated_setup, fast_configs, monkeypatch):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        pool = algorithm.pool
        monkeypatch.setattr(algorithm, "client_capacity", lambda client_id, round_index: 2 * pool.full_config.num_params)
        for round_index in range(3):
            plan = algorithm.plan_round(round_index, algorithm.round_rng(round_index))
            assert plan.returned == plan.dispatched and plan.back_params == plan.sent_params
            assert plan.group_sizes == [pool.group_sizes(pool.by_name(name)) for name in plan.dispatched]

    def test_adaptive_pruning_when_capacity_limited(self, tiny_cnn, tiny_federated_setup, fast_configs, monkeypatch):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="greedy")
        pool = algorithm.pool
        capacity = pool.level_heads()["S"].num_params + 1
        monkeypatch.setattr(algorithm, "client_capacity", lambda client_id, round_index: capacity)
        plan = algorithm.plan_round(0, algorithm.round_rng(0))
        for slot, (sent_name, back_name) in enumerate(zip(plan.dispatched, plan.returned)):
            sent, back = pool.by_name(sent_name), pool.by_name(back_name)
            assert sent.name == pool.full_config.name
            assert back.num_params <= capacity < sent.num_params
            assert pool.fits_within(back, sent)
            assert plan.group_sizes[slot] == pool.group_sizes(back)

    def test_a_pruned_round_trains_prefix_slices_and_reports_pruning(
        self, tiny_cnn, tiny_federated_setup, fast_configs, monkeypatch
    ):
        """A device that prunes trains a prefix slice of the published weights
        on all of its data, and the round's record shows what it returned."""
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="greedy")
        pool = algorithm.pool
        capacity = pool.level_heads()["S"].num_params
        monkeypatch.setattr(algorithm, "client_capacity", lambda client_id, round_index: capacity)
        before = {name: value.copy() for name, value in algorithm.global_state.items()}
        runs, execute = [], algorithm.execute_client_tasks
        monkeypatch.setattr(algorithm, "execute_client_tasks", lambda tasks: runs.append((tasks, execute(tasks))) or runs[-1][1])
        record = algorithm.run_round(0)
        for sent_name, back_name in zip(record.dispatched, record.returned):
            assert pool.by_name(back_name).num_params < pool.by_name(sent_name).num_params
        assert record.communication_waste > 0
        (tasks, results), = runs
        assert len(tasks) == len(record.selected_clients)
        for task, result in zip(tasks, results):
            initial = task._initial_slice()
            assert initial.keys() == before.keys()
            for name, tensor in initial.items():
                region = tuple(slice(0, extent) for extent in tensor.shape)
                assert np.array_equal(tensor, before[name][region])
            assert result.num_samples == len(task.local_dataset())

    def test_the_round_records_its_plan(self, tiny_cnn, tiny_federated_setup, fast_configs):
        """``run_round`` hands ``plan_round`` the round's generator and draws nothing else
        from it; planning alone advances the RL tables exactly as a trained round does."""
        planned = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        trained = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        for round_index in range(3):
            plan = planned.plan_round(round_index, planned.round_rng(round_index))
            record = trained.run_round(round_index)
            assert record.selected_clients == plan.clients
            assert (record.dispatched, record.returned) == (plan.dispatched, plan.returned)
        for name, table in trained.selector.snapshot().items():
            assert np.array_equal(table, planned.selector.snapshot()[name]), name

    def test_a_round_nobody_is_reachable_in_trains_nothing(
        self, tiny_cnn, tiny_federated_setup, fast_configs, monkeypatch
    ):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        monkeypatch.setattr(algorithm, "selectable_mask", lambda round_index: np.zeros(8, dtype=bool))
        before = {name: value.copy() for name, value in algorithm.global_state.items()}
        record = algorithm.run_round(0)
        assert record.selected_clients == [] and record.dispatched == [] and record.returned == []
        assert record.train_loss is None and record.communication_waste is None
        assert algorithm.selector.num_touched == 0
        for name, value in before.items():
            assert algorithm.global_state[name].tobytes() == value.tobytes()


class TestCheckpointState:
    def collect(self, algorithm):
        arrays, _ = save_parts(algorithm.state_parts())
        return arrays

    def test_rl_state_round_trips(self, tiny_cnn, tiny_federated_setup, fast_configs):
        source = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        source.run_round(0)
        arrays = self.collect(source)
        assert set(arrays) == {"rl/client_ids", "rl/curiosity_columns", "rl/resource_columns"}

        target = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        load_parts(target.state_parts(), arrays, {})
        for name, table in source.selector.snapshot().items():
            assert np.array_equal(table, target.selector.snapshot()[name]), name

    def test_dense_table_checkpoint_is_refused(self, tiny_cnn, tiny_federated_setup, fast_configs):
        """A checkpoint from the deleted dense selector must fail by name, never
        restore as a silent reset to all-ones."""
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        algorithm.run_round(0)
        before = algorithm.selector.state_dict()
        num_clients = algorithm.num_clients
        dense = {
            "rl/curiosity_table": np.full((3, num_clients), 5.0),
            "rl/resource_table": np.full((len(algorithm.pool), num_clients), 5.0),
        }
        with pytest.raises(ValueError, match="selector state is missing 'client_ids'"):
            load_parts(algorithm.state_parts(), dense, {})
        after = algorithm.selector.state_dict()
        assert before["client_ids"].size > 0
        for name, table in before.items():
            assert np.array_equal(table, after[name]), name


class TestRunLoop:
    def test_history_and_evaluation_cadence(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        history = algorithm.run()
        assert len(history) == fast_configs["federated"].num_rounds
        evaluated = history.evaluated_records()
        assert evaluated, "at least the final round must be evaluated"
        final = evaluated[-1]
        assert set(final.level_accuracies) == {"S", "M", "L"}
        assert final.avg_accuracy == pytest.approx(np.mean(list(final.level_accuracies.values())))

    def test_same_seed_reproduces_history(self, tiny_cnn, tiny_federated_setup, fast_configs):
        a = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, seed=11)
        b = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, seed=11)
        history_a = a.run()
        history_b = b.run()
        assert history_a.records[-1].full_accuracy == pytest.approx(history_b.records[-1].full_accuracy)
        assert history_a.records[-1].selected_clients == history_b.records[-1].selected_clients

    def test_different_seeds_differ(self, tiny_cnn, tiny_federated_setup, fast_configs):
        a = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, seed=1)
        b = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, seed=2)
        a.run()
        b.run()
        assert (
            a.history.records[0].selected_clients != b.history.records[0].selected_clients
            or a.history.records[0].dispatched != b.history.records[0].dispatched
        )

    def test_clients_per_round_cannot_exceed_clients(self, tiny_cnn, tiny_federated_setup, fast_configs):
        setup = tiny_federated_setup
        bad = FederatedConfig(num_rounds=1, clients_per_round=setup["partition"].num_clients + 1)
        config = AdaptiveFLConfig(federated=bad, local=fast_configs["local"], pool=fast_configs["pool"])
        with pytest.raises(ValueError):
            AdaptiveFL(
                architecture=tiny_cnn,
                train_dataset=setup["train"],
                partition=setup["partition"],
                test_dataset=setup["test"],
                profiles=setup["profiles"],
                resource_model=setup["resource_model"],
                algorithm_config=config,
            )
