"""AdaptiveFL server / training-loop tests (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig
from repro.core.server import AdaptiveFL


def make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs, strategy="rl-cs", seed=0):
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
            plan.group_sizes, plan.streams, plan.configs, plan.planned_returns, plan.capacities,
        ]
        assert {len(column) for column in columns} == {fast_configs["federated"].clients_per_round}
        assert len(set(plan.clients)) == len(plan.clients)
        assert set(plan.streams) == set(algorithm.round_streams())
        for slot, (sent, back) in enumerate(zip(plan.configs, plan.planned_returns)):
            assert (plan.dispatched[slot], plan.sent_params[slot]) == (sent.name, sent.num_params)
            assert (plan.returned[slot], plan.back_params[slot]) == (back.name, back.num_params)
            assert back.num_params <= sent.num_params and algorithm.pool.fits_within(back, sent)
            assert back.num_params <= plan.capacities[slot] or back is algorithm.pool.by_rank(0)
            assert plan.group_sizes[slot] == algorithm.pool.group_sizes(back)
            assert tiny_cnn.parameter_count(plan.group_sizes[slot]) == back.num_params

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
        arrays: dict[str, np.ndarray] = {}
        algorithm._collect_extra_state(arrays, {})
        return arrays

    def test_rl_state_round_trips(self, tiny_cnn, tiny_federated_setup, fast_configs):
        source = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        source.run_round(0)
        arrays = self.collect(source)
        assert set(arrays) == {"rl/client_ids", "rl/curiosity_columns", "rl/resource_columns"}

        target = make_adaptivefl(tiny_cnn, tiny_federated_setup, fast_configs)
        target._apply_extra_state(arrays, {})
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
        with pytest.raises(ValueError, match="rl/client_ids, rl/curiosity_columns, rl/resource_columns"):
            algorithm._apply_extra_state(dense, {})
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
