"""RL-based client selection tests (paper §3.3 / Algorithm 1 lines 12-26)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model_pool import LEVELS
from repro.core.rl_selection import RLClientSelector


@pytest.fixture
def selector(tiny_pool):
    return RLClientSelector(tiny_pool, num_clients=6, strategy="rl-cs")


def everyone(num_clients, *excluded):
    """A mask allowing every client but ``excluded``."""
    mask = np.ones(num_clients, dtype=bool)
    mask[list(excluded)] = False
    return mask


class TestInitialisation:
    def test_tables_start_at_one(self, selector, tiny_pool):
        tables = selector.snapshot()
        assert tables["curiosity"].shape == (3, 6)
        assert tables["resource"].shape == (len(tiny_pool), 6)
        assert np.allclose(tables["curiosity"], 1.0)
        assert np.allclose(tables["resource"], 1.0)
        assert selector.num_touched == 0  # the all-ones rows are implicit

    def test_invalid_arguments(self, tiny_pool):
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=0)
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=3, strategy="greedy")
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=3, resource_reward_cap=0.0)


class TestRewards:
    def test_initial_rewards_are_uniform_across_clients(self, selector, tiny_pool):
        model = tiny_pool.by_name("M1")
        rewards = [selector.combined_reward(model, c) for c in range(6)]
        assert max(rewards) == pytest.approx(min(rewards))

    def test_curiosity_reward_decreases_with_selection_count(self, selector, tiny_pool):
        model = tiny_pool.by_name("S1")
        before = selector.curiosity_reward(model, 0)
        for _ in range(4):  # each unpruned S1 round counts the S level twice: 1 -> 9
            selector.update(model, model, 0)
        assert selector.snapshot()["curiosity"][tiny_pool.level_index("S"), 0] == 9.0
        after = selector.curiosity_reward(model, 0)
        assert after == pytest.approx(1.0 / 3.0)
        assert after < before

    def test_resource_reward_grows_with_success(self, selector, tiny_pool):
        model = tiny_pool.by_name("L1")
        before = selector.resource_reward(model, 1)
        # client 1 repeatedly succeeds at training L1 unchanged
        for _ in range(5):
            selector.update(tiny_pool.full_config, tiny_pool.full_config, 1)
        after = selector.resource_reward(model, 1)
        assert after > before

    def test_resource_reward_cap_limits_combined_reward(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, num_clients=3, strategy="rl-cs", resource_reward_cap=0.5)
        # inflate client 0's success scores to push R_s well beyond the cap;
        # the S level sums over all three of its ranks so its reward can
        # exceed the 0.5 cap once the whole column is saturated.
        selector.load_state_dict(
            {
                "client_ids": np.array([0]),
                "curiosity_columns": np.ones((len(LEVELS), 1)),
                "resource_columns": np.full((len(tiny_pool), 1), 1000.0),
            }
        )
        model = tiny_pool.level_heads()["S"]
        assert selector.resource_reward(model, 0) > 0.5
        combined = selector.combined_reward(model, 0)
        assert combined <= 0.5 * selector.curiosity_reward(model, 0) + 1e-12

    def test_probabilities_normalised(self, selector, tiny_pool):
        probabilities = selector.selection_probabilities(tiny_pool.by_name("S2"), everyone(6))
        assert probabilities.sum() == pytest.approx(1.0)
        assert (probabilities >= 0).all()


class TestTableUpdates:
    def test_curiosity_counts_both_levels(self, selector, tiny_pool):
        sent = tiny_pool.by_name("L1")
        returned = tiny_pool.by_name("S1")
        selector.update(sent, returned, client=2)
        curiosity = selector.snapshot()["curiosity"]
        assert curiosity[tiny_pool.level_index("L"), 2] == 2.0
        assert curiosity[tiny_pool.level_index("S"), 2] == 2.0
        assert curiosity[tiny_pool.level_index("M"), 2] == 1.0

    def test_unpruned_return_increments_larger_models(self, selector, tiny_pool):
        sent = tiny_pool.by_name("M2")
        selector.update(sent, sent, client=0)
        column = selector.snapshot()["resource"][:, 0]
        p = tiny_pool.config.models_per_level
        for rank in range(len(tiny_pool)):
            if rank < sent.rank:
                assert column[rank] == 1.0
            elif rank == len(tiny_pool) - 1:
                # line 18: the full model additionally gains p-1
                assert column[rank] == 1.0 + 1.0 + (p - 1)
            else:
                assert column[rank] == 2.0

    def test_pruned_return_rewards_returned_size_and_penalises_larger(self, selector, tiny_pool):
        sent = tiny_pool.full_config
        returned = tiny_pool.by_name("S1")
        selector.update(sent, returned, client=3)
        column = selector.snapshot()["resource"][:, 3]
        p = tiny_pool.config.models_per_level
        # returned rank gains +p then the penalty loop subtracts 0
        assert column[returned.rank] == 1.0 + p
        # strictly larger ranks are progressively penalised (floored at 0)
        penalty = 1.0
        for rank in range(returned.rank + 1, len(tiny_pool)):
            assert column[rank] == max(1.0 - penalty, 0.0)
            penalty += 1.0

    def test_larger_return_than_sent_rejected(self, selector, tiny_pool):
        with pytest.raises(ValueError):
            selector.update(tiny_pool.by_name("S1"), tiny_pool.full_config, 0)

    def test_updates_shift_selection_towards_capable_clients(self, tiny_pool):
        """After client 0 repeatedly proves it can train L1 while client 1 keeps
        pruning to S-level, L1 dispatches should prefer client 0."""
        selector = RLClientSelector(tiny_pool, num_clients=2, strategy="rl-s")
        for _ in range(10):
            selector.update(tiny_pool.full_config, tiny_pool.full_config, 0)
            selector.update(tiny_pool.full_config, tiny_pool.by_name("S3"), 1)
        reward_capable = selector.resource_reward(tiny_pool.full_config, 0)
        reward_weak = selector.resource_reward(tiny_pool.full_config, 1)
        assert reward_capable > reward_weak


class TestSelection:
    def test_select_respects_exclusion(self, selector, tiny_pool):
        rng = np.random.default_rng(0)
        choice = selector.select(tiny_pool.by_name("S1"), rng, everyone(6, 0, 1, 2, 3, 4))
        assert choice == 5

    def test_select_all_excluded_raises(self, selector, tiny_pool):
        with pytest.raises(ValueError):
            selector.select(tiny_pool.by_name("S1"), np.random.default_rng(0), np.zeros(6, dtype=bool))

    def test_random_strategy_is_uniform(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, num_clients=4, strategy="random")
        probabilities = selector.selection_probabilities(tiny_pool.by_name("M1"), everyone(4))
        assert np.allclose(probabilities, 0.25)

    def test_strategies_differ_after_updates(self, tiny_pool):
        kwargs = dict(num_clients=3)
        cs = RLClientSelector(tiny_pool, strategy="rl-cs", **kwargs)
        c_only = RLClientSelector(tiny_pool, strategy="rl-c", **kwargs)
        s_only = RLClientSelector(tiny_pool, strategy="rl-s", **kwargs)
        for selector_instance in (cs, c_only, s_only):
            for _ in range(4):
                selector_instance.update(tiny_pool.full_config, tiny_pool.by_name("S2"), 0)
                selector_instance.update(tiny_pool.full_config, tiny_pool.full_config, 1)
        model = tiny_pool.full_config
        p_cs = cs.selection_probabilities(model, everyone(3))
        p_c = c_only.selection_probabilities(model, everyone(3))
        p_s = s_only.selection_probabilities(model, everyone(3))
        assert not np.allclose(p_cs, p_c)
        assert not np.allclose(p_c, p_s)

    def test_snapshot_returns_copies(self, selector):
        snap = selector.snapshot()
        snap["curiosity"] += 100
        assert np.allclose(selector.snapshot()["curiosity"], 1.0)


# -- boundedness under adversarial return sequences --------------------------------------

FLEET = 6
POOL_SIZE = 7  # tiny_pool: 2p+1 entries with p=3


def _adversary(draw_pairs):
    """Expand one adversary into a list of ⟨sent rank, returned rank⟩ pairs."""
    kind, length, pairs = draw_pairs
    if kind == "always-prune-to-smallest":
        return [(sent, 0) for sent, _ in pairs]
    if kind == "alternating":
        return [(POOL_SIZE - 1, POOL_SIZE - 1 if step % 2 else 0) for step in range(length)]
    if kind == "full-model-only":
        return [(POOL_SIZE - 1, POOL_SIZE - 1)] * length
    return pairs  # "arbitrary": any pair the validation lets through


_sequences = st.tuples(
    st.sampled_from(["always-prune-to-smallest", "alternating", "full-model-only", "arbitrary"]),
    st.integers(1, 120),
    st.lists(st.tuples(st.integers(0, POOL_SIZE - 1), st.integers(0, POOL_SIZE - 1)), min_size=1, max_size=120),
).map(_adversary)


def replay(selector, configs, sequence, victims):
    """Feed the pairs to the victims in turn; client ``FLEET - 1`` stays untouched."""
    assert len(configs) == POOL_SIZE
    for step, (sent_rank, returned_rank) in enumerate(sequence):
        sent, returned = configs[sent_rank], configs[returned_rank]
        if returned.num_params > sent.num_params:
            sent, returned = returned, sent
        selector.update(sent, returned, victims[step % len(victims)])


def assert_distribution(probabilities):
    assert np.all(np.isfinite(probabilities))
    assert np.all(probabilities >= 0.0)
    assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)


class TestBoundedRewards:
    """The boundedness the constrained actor-critic analysis needs: whatever
    the devices return, rewards stay in [0, 1], the tables stay non-negative
    and selection stays a valid distribution."""

    @pytest.mark.parametrize("strategy", ["rl-cs", "rl-c", "rl-s", "random"])
    @settings(max_examples=40, deadline=None)
    @given(sequence=_sequences, victims=st.lists(st.integers(0, FLEET - 2), min_size=1, max_size=3))
    def test_adversarial_returns_keep_rewards_and_probabilities_valid(
        self, tiny_pool, strategy, sequence, victims
    ):
        configs = list(tiny_pool)
        selector = RLClientSelector(tiny_pool, num_clients=FLEET, strategy=strategy)
        replay(selector, configs, sequence, victims)

        tables = selector.snapshot()
        assert np.all(tables["resource"] >= 0.0)
        assert np.all(tables["curiosity"] >= 1.0)
        assert np.all(tables["resource"].sum(axis=0) > 0.0)  # the returned entry is always reinforced
        for model in configs:
            for client in range(FLEET):
                for reward in (
                    selector.combined_reward(model, client),
                    selector.resource_reward(model, client),
                    selector.curiosity_reward(model, client),
                ):
                    assert 0.0 <= reward <= 1.0
            assert_distribution(selector.selection_probabilities(model, everyone(FLEET)))
            assert_distribution(selector.selection_probabilities(model, everyone(FLEET, 0, 2, 4)))

    @pytest.mark.parametrize("strategy", ["rl-cs", "rl-c", "rl-s", "random"])
    @settings(max_examples=40, deadline=None)
    @given(
        sequence=_sequences,
        victims=st.lists(st.integers(0, FLEET - 2), min_size=1, max_size=3),
        allowed=st.lists(st.booleans(), min_size=FLEET, max_size=FLEET).filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streaming_two_tier_masses_form_the_same_distribution(
        self, tiny_pool, strategy, sequence, victims, allowed, seed
    ):
        configs = list(tiny_pool)
        selector = RLClientSelector(tiny_pool, num_clients=FLEET, strategy=strategy)
        replay(selector, configs, sequence, victims)

        mask = np.array(allowed, dtype=bool)
        allowed_ids = np.flatnonzero(mask).tolist()
        touched = set(selector.state_dict()["client_ids"].tolist())
        for model in configs:
            touched_mass = sum(selector.combined_reward(model, c) for c in allowed_ids if c in touched)
            untouched_mass = sum(1 for c in allowed_ids if c not in touched) * selector.default_reward(model)
            assert touched_mass >= 0.0 and untouched_mass >= 0.0
            assert np.isfinite(touched_mass + untouched_mass)
            probabilities = selector.selection_probabilities(model, mask)
            assert_distribution(probabilities)
            if touched_mass + untouched_mass > 0.0:
                touched_share = sum(p for p, c in zip(probabilities, allowed_ids) if c in touched)
                assert touched_share == pytest.approx(touched_mass / (touched_mass + untouched_mass), abs=1e-12)
            else:
                # a client pruned to the smallest entry earns nothing for a larger
                # model; when nobody else is reachable the draw falls back to uniform
                assert np.allclose(probabilities, 1.0 / len(allowed_ids))
            assert mask[selector.select(model, np.random.default_rng(seed), mask)]
