"""RLClientSelector at fleet scale: sparse O(selected) RL tables, mask draws.

Pins what the class guarantees:

* ``select`` samples the distribution ``selection_probabilities`` defines
  without ever materialising the population (memory stays O(selected)),
* checkpoints hold the touched rows only and round-trip bit-exactly,
* the array-backed table draws **bit-identically** to the per-client walk
  it replaced (kept below as :class:`ReferenceStreamingSelector`, the
  oracle), also when one ``select`` walks a whole round and one column
  ``update`` follows it; it rebuilds no reward while selecting and only
  the updated rows' rewards per update, copies and tallies the mask O(1)
  times per round, and reproduces the end-to-end goldens in
  ``golden/streaming_selection.json`` — generated on the commit before
  the array-backed rewrite; regenerate only for a deliberate trace change
  with ``PYTHONPATH=src python tests/core/test_streaming_selection.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.callbacks import Callback
from repro.core import rl_selection
from repro.core.model_pool import LEVELS
from repro.core.rl_selection import RLClientSelector
from repro.experiments.runner import run_algorithm
from repro.experiments.settings import ExperimentSetting, prepare_experiment
from repro.store.objects import canonical_json, sha256_hex

NUM_CLIENTS = 40


def draw_update(rng, configs, num_clients):
    """A random valid ⟨sent, returned, client⟩ triple (returned no larger than sent)."""
    sent = configs[int(rng.integers(0, len(configs)))]
    candidates = [cfg for cfg in configs if cfg.num_params <= sent.num_params]
    returned = candidates[int(rng.integers(0, len(candidates)))]
    return sent, returned, int(rng.integers(0, num_clients))


@pytest.fixture
def selector(tiny_pool):
    """A selector whose update history touched only half the fleet."""
    selector = RLClientSelector(tiny_pool, num_clients=NUM_CLIENTS, strategy="rl-cs")
    rng = np.random.default_rng(7)
    for _ in range(60):
        selector.update(*draw_update(rng, list(tiny_pool), NUM_CLIENTS // 2))
    return selector


class TestMaskSelection:
    def test_matches_probability_weights_over_many_draws(self, selector, tiny_pool):
        model = tiny_pool.full_config
        mask = np.zeros(NUM_CLIENTS, dtype=bool)
        mask[::2] = True
        allowed = np.flatnonzero(mask).tolist()
        expected = selector.selection_probabilities(model, mask)
        counts = np.zeros(NUM_CLIENTS)
        draws = 4000
        rng = np.random.default_rng(0)
        for _ in range(draws):
            client = selector.select(model, rng, mask)
            assert mask[client]
            counts[client] += 1
        observed = counts[np.asarray(allowed)] / draws
        assert np.abs(observed - expected).max() < 0.03

    def test_deterministic_for_fixed_seed_and_mask_not_mutated(self, selector, tiny_pool):
        model = tiny_pool.full_config
        mask = np.ones(NUM_CLIENTS, dtype=bool)
        before = mask.copy()
        first = [selector.select(model, np.random.default_rng(s), mask) for s in range(30)]
        second = [selector.select(model, np.random.default_rng(s), mask) for s in range(30)]
        assert first == second
        assert np.array_equal(mask, before)

    def test_untouched_tier_reached_and_resolved_by_rank(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, num_clients=100, strategy="rl-cs")
        mask = np.ones(100, dtype=bool)
        model = tiny_pool.full_config
        hit = {selector.select(model, np.random.default_rng(s), mask) for s in range(200)}
        assert len(hit) > 20  # the untouched tier spreads over the whole fleet

    def test_empty_mask_rejected(self, selector, tiny_pool):
        with pytest.raises(ValueError, match="already selected"):
            selector.select(tiny_pool.full_config, np.random.default_rng(0), np.zeros(NUM_CLIENTS, dtype=bool))

    def test_wrong_shape_rejected(self, selector, tiny_pool):
        with pytest.raises(ValueError, match="shape"):
            selector.select(tiny_pool.full_config, np.random.default_rng(0), np.ones(3, dtype=bool))


class TestTierRankLookup:
    """``_Tier.nth`` turns a rank among the set bits into a client id, cohort by cohort."""

    def test_rank_translation(self):
        tier = rl_selection._Tier(np.array([0, 1, 0, 1, 1], dtype=bool), cohort_size=2)
        assert [tier.nth(rank) for rank in range(3)] == [1, 3, 4]

    def test_every_rank_recovers_its_id_while_clients_are_taken(self):
        """The cohort tallies and cached set bits follow each ``take``: after any
        number of takes every rank still names the dense lookup's id."""
        rng = np.random.default_rng(11)
        mask = rng.random(103) < 0.3
        tier = rl_selection._Tier(mask.copy(), cohort_size=8)
        while tier.total:
            dense = np.flatnonzero(tier.mask)
            assert tier.total == dense.size
            assert [tier.nth(rank) for rank in range(dense.size)] == dense.tolist()
            tier.take(int(dense[rng.integers(0, dense.size)]))
        assert not tier.mask.any()

    def test_out_of_range(self):
        tier = rl_selection._Tier(np.array([True, False]), cohort_size=8)
        with pytest.raises(IndexError):
            tier.nth(1)


class TestMemoryBounds:
    def test_columns_grow_with_selected_not_population(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, num_clients=1_000_000, strategy="rl-cs")
        assert selector.num_touched == 0
        full = tiny_pool.full_config
        for client in (5, 123_456, 999_999, 5):
            selector.update(full, full, client)
        assert selector.num_touched == 3

    def test_reads_never_materialise_columns(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, num_clients=1_000_000, strategy="rl-cs")
        selector.combined_reward(tiny_pool.full_config, 777_777)
        mask = np.ones(1_000_000, dtype=bool)
        selector.select(tiny_pool.full_config, np.random.default_rng(0), mask)
        assert selector.num_touched == 0


class TestCheckpointing:
    def test_state_round_trips_bit_exactly(self, selector, tiny_pool):
        state = selector.state_dict()
        assert state["client_ids"].size == selector.num_touched
        restored = RLClientSelector(tiny_pool, num_clients=NUM_CLIENTS, strategy="rl-cs")
        restored.load_state_dict(state)
        for name, table in selector.snapshot().items():
            assert np.array_equal(table, restored.snapshot()[name]), name

    def test_empty_state_round_trips(self, tiny_pool):
        fresh = RLClientSelector(tiny_pool, num_clients=8)
        state = fresh.state_dict()
        assert state["client_ids"].size == 0
        other = RLClientSelector(tiny_pool, num_clients=8)
        other.load_state_dict(state)
        assert other.num_touched == 0

    def test_invalid_state_rejected(self, selector, tiny_pool):
        state = selector.state_dict()
        with pytest.raises(ValueError, match="missing"):
            selector.load_state_dict({"client_ids": state["client_ids"]})
        bad = dict(state)
        bad["client_ids"] = np.array([NUM_CLIENTS + 1], dtype=np.int64)
        with pytest.raises(ValueError):
            selector.load_state_dict(bad)


class TestValidation:
    def test_constructor_rejects_bad_arguments(self, tiny_pool):
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=0)
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=3, strategy="greedy")
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=3, resource_reward_cap=0.0)
        with pytest.raises(ValueError):
            RLClientSelector(tiny_pool, num_clients=3, cohort_size=0)

    def test_update_rejects_bad_arguments(self, selector, tiny_pool):
        small = tiny_pool.level_heads()["S"]
        with pytest.raises(IndexError):
            selector.update(tiny_pool.full_config, small, NUM_CLIENTS)
        with pytest.raises(ValueError, match="larger"):
            selector.update(small, tiny_pool.full_config, 0)


# -- oracle: the per-client walk the array-backed table replaced -------------------------


class ReferenceStreamingSelector:
    """The streaming selector as it was before the reward table: one dict
    entry per touched client, and a Python walk over every touched client
    per selection, each reward recomputed from its columns.  Test-local
    reference; the draw scheme and arithmetic are the specification."""

    def __init__(self, pool, num_clients, strategy="rl-cs", resource_reward_cap=0.5):
        self.pool = pool
        self.num_clients = num_clients
        self.strategy = strategy
        self.resource_reward_cap = resource_reward_cap
        self.models_per_level = pool.config.models_per_level
        self.curiosity_columns: dict[int, np.ndarray] = {}
        self.resource_columns: dict[int, np.ndarray] = {}
        self.default_curiosity = np.ones(len(LEVELS), dtype=np.float64)
        self.default_resource = np.ones(len(pool), dtype=np.float64)

    def resource_reward_column(self, model, column):
        total = float(column.sum())
        if total <= 0:
            return 0.0
        numerator = 0.0
        for rank in [cfg.rank for cfg in self.pool if cfg.level == model.level]:
            numerator += float(column[rank:].sum())
        return numerator / (self.models_per_level * total)

    def curiosity_reward_column(self, model, column):
        count = column[self.pool.level_index(model.level)]
        return float(1.0 / np.sqrt(max(count, 1e-12)))

    def combined_reward_columns(self, model, curiosity, resource):
        if self.strategy == "random":
            return 1.0
        if self.strategy == "rl-c":
            return self.curiosity_reward_column(model, curiosity)
        if self.strategy == "rl-s":
            return self.resource_reward_column(model, resource)
        capped = min(self.resource_reward_cap, self.resource_reward_column(model, resource))
        return capped * self.curiosity_reward_column(model, curiosity)

    def combined_reward(self, model, client):
        return self.combined_reward_columns(
            model,
            self.curiosity_columns.get(client, self.default_curiosity),
            self.resource_columns.get(client, self.default_resource),
        )

    def default_reward(self, model):
        return self.combined_reward_columns(model, self.default_curiosity, self.default_resource)

    def selection_probabilities(self, model, allowed):
        rewards = np.array([self.combined_reward(model, client) for client in allowed], dtype=np.float64)
        rewards = np.clip(rewards, 0.0, None)
        total = rewards.sum()
        if total <= 0:
            return np.full(len(allowed), 1.0 / len(allowed))
        return rewards / total

    def select_from_mask(self, model, rng, allowed_mask):
        allowed_total = int(allowed_mask.sum())
        touched = [client for client in sorted(self.resource_columns) if allowed_mask[client]]
        rewards = np.clip(
            np.array([self.combined_reward(model, client) for client in touched], dtype=np.float64),
            0.0,
            None,
        )
        untouched_total = allowed_total - len(touched)
        default = max(0.0, self.default_reward(model))
        total_mass = float(rewards.sum()) + untouched_total * default
        if total_mass <= 0:
            return int(np.flatnonzero(allowed_mask)[int(rng.integers(0, allowed_total))])
        threshold = float(rng.random()) * total_mass
        accumulated = 0.0
        for client, reward in zip(touched, rewards):
            accumulated += float(reward)
            if threshold < accumulated:
                return client
        if untouched_total == 0 or default <= 0.0:
            return touched[-1]
        rank = min(int((threshold - accumulated) / default), untouched_total - 1)
        mask = allowed_mask.copy()
        mask[np.asarray(touched, dtype=np.int64)] = False
        return int(np.flatnonzero(mask)[rank])

    def update(self, sent, returned, client):
        if client not in self.curiosity_columns:
            self.curiosity_columns[client] = self.default_curiosity.copy()
            self.resource_columns[client] = self.default_resource.copy()
        curiosity, resource = self.curiosity_columns[client], self.resource_columns[client]
        curiosity[self.pool.level_index(sent.level)] += 1
        curiosity[self.pool.level_index(returned.level)] += 1
        max_rank = len(self.pool) - 1
        if sent.rank == returned.rank:
            resource[sent.rank : max_rank + 1] += 1.0
            resource[max_rank] += self.models_per_level - 1
        else:
            resource[returned.rank] += self.models_per_level
            penalty = 0.0
            for rank in range(returned.rank, max_rank + 1):
                resource[rank] = max(resource[rank] - penalty, 0.0)
                penalty += 1.0

    def state_dict(self):
        ids = sorted(self.resource_columns)
        if ids:
            curiosity = np.stack([self.curiosity_columns[c] for c in ids], axis=1)
            resource = np.stack([self.resource_columns[c] for c in ids], axis=1)
        else:
            curiosity = np.zeros((len(LEVELS), 0), dtype=np.float64)
            resource = np.zeros((len(self.pool), 0), dtype=np.float64)
        return {
            "client_ids": np.asarray(ids, dtype=np.int64),
            "curiosity_columns": curiosity,
            "resource_columns": resource,
        }

    def load_state_dict(self, state):
        ids = state["client_ids"]
        self.curiosity_columns = {int(c): state["curiosity_columns"][:, i].copy() for i, c in enumerate(ids)}
        self.resource_columns = {int(c): state["resource_columns"][:, i].copy() for i, c in enumerate(ids)}


ORACLE_CLIENTS = 24
STRATEGIES = ["rl-cs", "rl-c", "rl-s", "random"]

_update_op = st.tuples(
    st.just("update"),
    st.integers(0, 6),  # dispatched pool rank
    st.integers(0, 6),  # picks the returned entry among those no larger than the dispatched one
    st.integers(0, ORACLE_CLIENTS - 1),
)
_select_op = st.tuples(
    st.just("select"),
    st.integers(0, 6),  # pool rank of the model to place
    st.integers(0, 2**32 - 1),  # generator seed
    st.lists(st.booleans(), min_size=ORACLE_CLIENTS, max_size=ORACLE_CLIENTS).filter(any),
)
_reload_op = st.tuples(st.just("reload"))


def assert_tables_match_reference(selector, reference, pool):
    """State, probabilities and the maintained reward table against the oracle."""
    state, expected = selector.state_dict(), reference.state_dict()
    assert set(state) == set(expected)
    for name, table in expected.items():
        assert state[name].dtype == table.dtype, name
        assert np.array_equal(state[name], table), name
    level_models = [next(cfg for cfg in pool if cfg.level == level) for level in LEVELS]
    recomputed = np.array(
        [[reference.combined_reward(model, int(client)) for model in level_models] for client in state["client_ids"]],
        dtype=np.float64,
    ).reshape(-1, len(LEVELS))
    assert np.array_equal(selector._rewards[: selector.num_touched], recomputed)
    everyone = list(range(ORACLE_CLIENTS))
    for model in level_models:
        assert selector.default_reward(model) == reference.default_reward(model)
        assert np.array_equal(
            selector.selection_probabilities(model, np.ones(ORACLE_CLIENTS, dtype=bool)),
            reference.selection_probabilities(model, everyone),
        )


class TestWalkOracle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.one_of(_update_op, _update_op, _select_op, _reload_op), max_size=40))
    def test_interleavings_match_the_per_client_walk(self, tiny_pool, strategy, ops):
        configs = list(tiny_pool)
        assert len(configs) == 7

        def build(cls, **kwargs):
            return cls(tiny_pool, ORACLE_CLIENTS, strategy=strategy, **kwargs)

        # a cohort narrower than the fleet exercises the cohort-sharded rank lookup
        selector = build(RLClientSelector, cohort_size=7)
        reference = build(ReferenceStreamingSelector)
        for op in ops:
            if op[0] == "update":
                sent = configs[op[1]]
                candidates = [cfg for cfg in configs if cfg.num_params <= sent.num_params]
                returned = candidates[op[2] % len(candidates)]
                selector.update(sent, returned, op[3])
                reference.update(sent, returned, op[3])
            elif op[0] == "select":
                mask = np.array(op[3], dtype=bool)
                rng, reference_rng = np.random.default_rng(op[2]), np.random.default_rng(op[2])
                chosen = selector.select(configs[op[1]], rng, mask)
                assert type(chosen) is int
                assert chosen == reference.select_from_mask(configs[op[1]], reference_rng, mask)
                assert rng.bit_generator.state == reference_rng.bit_generator.state
            else:
                state = selector.state_dict()
                selector = build(RLClientSelector, cohort_size=7)
                selector.load_state_dict(state)
                reference_state = reference.state_dict()
                reference = build(ReferenceStreamingSelector)
                reference.load_state_dict(reference_state)
            assert_tables_match_reference(selector, reference, tiny_pool)

    def test_degenerate_rewards_fall_back_to_a_uniform_draw(self, tiny_pool):
        """All-zero resource rows under ``rl-s`` with no untouched client left."""
        selector = RLClientSelector(tiny_pool, 3, strategy="rl-s")
        reference = ReferenceStreamingSelector(tiny_pool, 3, strategy="rl-s")
        state = {
            "client_ids": np.arange(3, dtype=np.int64),
            "curiosity_columns": np.ones((len(LEVELS), 3)),
            "resource_columns": np.zeros((len(tiny_pool), 3)),
        }
        selector.load_state_dict(state)
        reference.load_state_dict(state)
        mask = np.ones(3, dtype=bool)
        for seed in range(10):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            chosen = selector.select(tiny_pool.full_config, rng, mask)
            assert chosen == reference.select_from_mask(tiny_pool.full_config, reference_rng, mask)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_zero_reward_client_is_skipped_at_threshold_zero(self, tiny_pool):
        """``threshold < accumulated`` is strict: a draw of exactly 0.0 walks past zero mass."""

        class ZeroDraw:
            def random(self):
                return 0.0

        state = {
            "client_ids": np.arange(2, dtype=np.int64),
            "curiosity_columns": np.ones((len(LEVELS), 2)),
            "resource_columns": np.stack([np.zeros(len(tiny_pool)), np.ones(len(tiny_pool))], axis=1),
        }
        selector = RLClientSelector(tiny_pool, 2, strategy="rl-s")
        reference = ReferenceStreamingSelector(tiny_pool, 2, strategy="rl-s")
        selector.load_state_dict(state)
        reference.load_state_dict(state)
        mask = np.ones(2, dtype=bool)
        assert reference.select_from_mask(tiny_pool.full_config, ZeroDraw(), mask) == 1
        assert selector.select(tiny_pool.full_config, ZeroDraw(), mask) == 1

    def test_large_table_matches_the_walk(self, tiny_pool):
        """Hundreds of touched rows: NumPy sums in pairwise blocks there, the walk does not."""
        clients = 1000
        selector = RLClientSelector(tiny_pool, clients, cohort_size=128)
        reference = ReferenceStreamingSelector(tiny_pool, clients)
        configs = list(tiny_pool)
        script = np.random.default_rng(11)
        for _ in range(900):
            update = draw_update(script, configs, clients // 2)
            selector.update(*update)
            reference.update(*update)
        assert selector.num_touched > 300
        for seed in range(120):
            mask = script.random(clients) < (0.1 if seed % 2 else 0.9)
            model = configs[seed % len(configs)]
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert selector.select(model, rng, mask) == reference.select_from_mask(
                model, reference_rng, mask
            )
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_loaded_state_is_not_aliased(self, tiny_pool):
        """Updating after a restore must not write through into the loaded arrays."""
        source = RLClientSelector(tiny_pool, 8)
        source.update(tiny_pool.full_config, tiny_pool.full_config, 5)
        state = source.state_dict()
        frozen = {name: table.copy() for name, table in state.items()}
        restored = RLClientSelector(tiny_pool, 8)
        restored.load_state_dict(state)
        restored.update(tiny_pool.full_config, tiny_pool.full_config, 5)
        restored.update(tiny_pool.full_config, tiny_pool.full_config, 2)
        for name, table in frozen.items():
            assert np.array_equal(state[name], table), name

    def test_unordered_state_rejected(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, 8)
        for ids in ([3, 1], [2, 2]):
            state = {
                "client_ids": np.array(ids, dtype=np.int64),
                "curiosity_columns": np.ones((len(LEVELS), 2)),
                "resource_columns": np.ones((len(tiny_pool), 2)),
            }
            with pytest.raises(ValueError, match="ascending"):
                selector.load_state_dict(state)


# -- the round-level path: one select and one update per round ---------------------------


def random_sel(pool, rng, slots, greedy, drawn, states):
    """RandomSel as ``AdaptiveFL.plan_round`` draws it, one model as each slot is reached.

    Logs the generator state before each slot's draw, i.e. after the previous
    slot's selection draw, so the two sides' draws can be compared slot by slot.
    """
    for _ in range(slots):
        states.append(rng.bit_generator.state)
        drawn.append(pool.full_config if greedy else pool.by_rank(int(rng.integers(0, len(pool)))))
        yield drawn[-1]


def planned_return(configs, sent, pick):
    candidates = [cfg for cfg in configs if cfg.num_params <= sent.num_params]
    return candidates[pick % len(candidates)]


_round = st.tuples(
    st.integers(0, 2**32 - 1),  # generator seed
    st.lists(st.booleans(), min_size=ORACLE_CLIENTS, max_size=ORACLE_CLIENTS).filter(any),  # reachable
    st.integers(1, ORACLE_CLIENTS),  # slots, capped at the reachable count: a high one exhausts the mask
    st.lists(st.integers(0, 6), min_size=ORACLE_CLIENTS, max_size=ORACLE_CLIENTS),  # planned returns
)


class TestRoundOracle:
    """``select`` over a whole round, then one ``update``, against the sequential
    protocol: per slot a RandomSel draw, a selection by the per-client walk and
    that client's table update before the next slot."""

    @pytest.mark.parametrize("strategy", [*STRATEGIES, "greedy"])
    @settings(max_examples=50, deadline=None)
    @given(
        history=st.lists(_update_op, max_size=30),
        degenerate=st.booleans(),
        cohort_size=st.sampled_from([1, 5, 7, ORACLE_CLIENTS]),
        rounds=st.lists(_round, min_size=1, max_size=3),
    )
    def test_a_round_equals_the_per_client_walk(self, tiny_pool, strategy, history, degenerate, cohort_size, rounds):
        configs = list(tiny_pool)
        greedy = strategy == "greedy"
        selector_strategy = "random" if greedy else strategy
        selector = RLClientSelector(tiny_pool, ORACLE_CLIENTS, strategy=selector_strategy, cohort_size=cohort_size)
        reference = ReferenceStreamingSelector(tiny_pool, ORACLE_CLIENTS, strategy=selector_strategy)
        for _, sent_rank, pick, client in history:
            sent = configs[sent_rank]
            selector.update(sent, planned_return(configs, sent, pick), client)
            reference.update(sent, planned_return(configs, sent, pick), client)
        if degenerate:
            # every client touched with an all-zero resource row: rl-s and rl-cs
            # rewards are all zero, so each slot falls back to a uniform draw
            state = {
                "client_ids": np.arange(ORACLE_CLIENTS, dtype=np.int64),
                "curiosity_columns": np.ones((len(LEVELS), ORACLE_CLIENTS)),
                "resource_columns": np.zeros((len(tiny_pool), ORACLE_CLIENTS)),
            }
            selector.load_state_dict(state)
            reference.load_state_dict(state)

        for seed, reachable, slots, picks in rounds:
            mask = np.array(reachable, dtype=bool)
            slots = min(slots, int(mask.sum()))

            rng, drawn, states = np.random.default_rng(seed), [], []
            clients = selector.select(random_sel(tiny_pool, rng, slots, greedy, drawn, states), rng, mask)
            states.append(rng.bit_generator.state)
            returns = [planned_return(configs, sent, pick) for sent, pick in zip(drawn, picks)]
            selector.update(drawn, returns, clients)
            assert np.array_equal(mask, np.array(reachable, dtype=bool))  # not mutated

            walk_rng, walk_drawn, walk_states, walk_clients = np.random.default_rng(seed), [], [], []
            walk_mask = mask.copy()
            for slot, sent in enumerate(random_sel(tiny_pool, walk_rng, slots, greedy, walk_drawn, walk_states)):
                client = reference.select_from_mask(sent, walk_rng, walk_mask)
                walk_mask[client] = False
                reference.update(sent, planned_return(configs, sent, picks[slot]), client)
                walk_clients.append(client)
            walk_states.append(walk_rng.bit_generator.state)

            assert clients == walk_clients
            assert all(type(client) is int for client in clients)
            assert drawn == walk_drawn
            assert states == walk_states  # the same draws, slot by slot
            assert_tables_match_reference(selector, reference, tiny_pool)

    def test_empty_round(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, 8)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert selector.select([], rng, np.ones(8, dtype=bool)) == []
        selector.update([], [], [])
        assert rng.bit_generator.state == before
        assert selector.num_touched == 0

    def test_more_slots_than_clients_rejected(self, tiny_pool):
        selector = RLClientSelector(tiny_pool, 8)
        mask = np.zeros(8, dtype=bool)
        mask[[1, 4]] = True
        with pytest.raises(ValueError, match="already selected"):
            selector.select([tiny_pool.full_config] * 3, np.random.default_rng(0), mask)


_batch = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, ORACLE_CLIENTS - 1)),
    max_size=ORACLE_CLIENTS,
    unique_by=lambda op: op[2],
)


class TestColumnUpdate:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=60, deadline=None)
    @given(history=st.lists(_update_op, max_size=30), batch=_batch)
    def test_one_column_pass_equals_sequential_updates(self, tiny_pool, strategy, history, batch):
        configs = list(tiny_pool)
        column = RLClientSelector(tiny_pool, ORACLE_CLIENTS, strategy=strategy)
        sequential = RLClientSelector(tiny_pool, ORACLE_CLIENTS, strategy=strategy)
        reference = ReferenceStreamingSelector(tiny_pool, ORACLE_CLIENTS, strategy=strategy)
        for _, sent_rank, pick, client in history:
            for selector in (column, sequential, reference):
                selector.update(configs[sent_rank], planned_return(configs, configs[sent_rank], pick), client)
        triples = [
            (configs[sent_rank], planned_return(configs, configs[sent_rank], pick), client)
            for sent_rank, pick, client in batch
        ]
        column.update([t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples])
        for triple in triples:
            sequential.update(*triple)
            reference.update(*triple)
        assert_tables_match_reference(column, reference, tiny_pool)
        for name, table in sequential.state_dict().items():
            assert np.array_equal(column.state_dict()[name], table), name
        assert np.array_equal(column._rewards, sequential._rewards)

    def test_full_model_bonus_and_penalty_floor(self, tiny_pool):
        """Lines 15-18 add ``p - 1`` more to the full model; lines 20-25 floor at 0."""
        assert [cfg.level for cfg in tiny_pool] == ["S", "M", "S", "S", "M", "M", "L"]
        full, smallest, rank3 = tiny_pool.full_config, tiny_pool.by_rank(0), tiny_pool.by_rank(3)
        selector = RLClientSelector(tiny_pool, 5)
        # unsorted, with clients 3 and 4 left untouched
        selector.update([full, full, full], [rank3, full, smallest], [2, 0, 1])
        selector.update([full], [smallest], [1])
        tables = selector.snapshot()
        assert tables["resource"].T.tolist() == [
            [1, 1, 1, 1, 1, 1, 1 + 1 + 2],  # kept the full model: +1, and the p-1 = 2 bonus
            [7, 0, 0, 0, 0, 0, 0],  # pruned to rank 0 twice: +3 each, every larger rank floored
            [1, 1, 1, 4, 0, 0, 0],  # pruned to rank 3: +3 there, 1-1, 1-2, 1-3 floored
            [1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1, 1],
        ]
        assert tables["curiosity"].T.tolist() == [[1, 1, 3], [3, 1, 3], [2, 1, 2], [1, 1, 1], [1, 1, 1]]

    def test_refused_update_changes_nothing(self, tiny_pool):
        full, small = tiny_pool.full_config, tiny_pool.by_rank(0)
        selector = RLClientSelector(tiny_pool, 6)
        selector.update(full, small, 3)
        before = selector.state_dict()
        for sent, returned, clients, error, match in (
            ([full, full], [small, small], [2, 2], ValueError, "distinct"),
            ([full, full], [small], [1, 2], ValueError, "same length"),
            ([full, small], [small, full], [1, 2], ValueError, "larger"),
            ([full, full], [full, full], [1, 6], IndexError, "out of range"),
        ):
            with pytest.raises(error, match=match):
                selector.update(sent, returned, clients)
            for name, table in before.items():
                assert np.array_equal(selector.state_dict()[name], table), name


# -- complexity guard: the per-client walk must not come back ----------------------------


class TestComplexityGuard:
    TOUCHED = 2000

    @pytest.fixture
    def counted(self, tiny_pool, monkeypatch):
        """A selector with 2000 touched clients and a log of how many reward rows each rebuild covers."""
        selector = RLClientSelector(tiny_pool, num_clients=5000, strategy="rl-cs", cohort_size=256)
        configs = list(tiny_pool)
        for client in range(0, 2 * self.TOUCHED, 2):
            selector.update(tiny_pool.full_config, configs[client % len(configs)], client)
        assert selector.num_touched == self.TOUCHED
        rebuilt = []
        level_rewards = RLClientSelector._level_rewards

        def counting(self, curiosity, resource):
            rebuilt.append(curiosity.shape[0])
            return level_rewards(self, curiosity, resource)

        monkeypatch.setattr(RLClientSelector, "_level_rewards", counting)
        return selector, rebuilt

    def test_selection_rebuilds_no_reward(self, counted, tiny_pool):
        selector, rebuilt = counted
        mask = np.ones(5000, dtype=bool)
        mask[:200] = False
        for seed in range(5):
            selector.select(tiny_pool.full_config, np.random.default_rng(seed), mask)
        selector.select(list(tiny_pool) * 4, np.random.default_rng(5), mask)
        assert rebuilt == []  # reads the stored table, however many clients were touched

    def test_update_recomputes_only_its_own_row(self, counted, tiny_pool):
        selector, rebuilt = counted
        full = tiny_pool.full_config
        before = selector._rewards.copy()
        selector.update(full, full, 1000)  # already touched
        assert rebuilt == [1]
        changed = np.flatnonzero((selector._rewards != before).any(axis=1))
        assert changed.tolist() == [500]  # client 1000 sits at row 500
        rebuilt.clear()
        selector.update(full, full, 1001)  # first touch: inserted
        assert rebuilt == [1]
        assert selector.num_touched == self.TOUCHED + 1
        kept = np.delete(selector._rewards, 501, axis=0)
        assert np.array_equal(kept[:500], before[:500])
        assert np.array_equal(kept[501:], before[501:])
        assert np.array_equal(selector._ids[499:503], [998, 1000, 1001, 1002])
        rebuilt.clear()
        selector.update([full] * 4, [full] * 4, [4999, 1002, 3, 1001])  # a round: two first touches
        assert rebuilt == [4]  # one rebuild of the round's rows
        assert selector.num_touched == self.TOUCHED + 3

    @pytest.mark.parametrize("slots", [1, 40])
    @pytest.mark.parametrize("degenerate", [False, True], ids=["two-tier", "degenerate"])
    def test_a_round_makes_constant_full_mask_passes(self, tiny_pool, monkeypatch, slots, degenerate):
        """Mask copies and cohort tallies per round do not grow with the slots."""
        clients = 5000
        selector = RLClientSelector(tiny_pool, clients, strategy="rl-s", cohort_size=256)
        touched = np.arange(0, clients, 2 if not degenerate else 1)
        selector.load_state_dict(
            {
                "client_ids": touched,
                "curiosity_columns": np.ones((len(LEVELS), touched.size)),
                "resource_columns": np.full((len(tiny_pool), touched.size), 0.0 if degenerate else 1.0),
            }
        )
        copies, tallies = [], []
        tier, counts = rl_selection._Tier, rl_selection.cohort_counts

        def counting_tier(mask, cohort_size):
            copies.append(mask.size)  # each tier owns one copy of the mask
            return tier(mask, cohort_size)

        def counting_counts(mask, cohort_size):
            tallies.append(mask.size)
            return counts(mask, cohort_size)

        monkeypatch.setattr(rl_selection, "_Tier", counting_tier)
        monkeypatch.setattr(rl_selection, "cohort_counts", counting_counts)
        mask = np.ones(clients, dtype=bool)
        mask[:100] = False
        models = [tiny_pool.by_rank(slot % len(tiny_pool)) for slot in range(slots)]
        chosen = selector.select(models, np.random.default_rng(3), mask)
        assert len(set(chosen)) == slots
        assert 1 <= len(copies) <= 2  # the allowed tier, and the untouched tier once a slot lands there
        assert len(tallies) <= len(copies)  # at most one cohort tally per tier
        if slots == 40:
            assert len(copies) == 2 - degenerate and len(tallies) == 1  # both tiers were walked


# -- end-to-end goldens through the streaming path ---------------------------------------

GOLDEN_PATH = Path(__file__).parent / "golden" / "streaming_selection.json"
GOLDEN_ROUNDS = 6
GOLDEN_CRASH_AT = 3
GOLDEN_CASES = [(scenario, seed) for scenario in (None, "flaky_edge") for seed in (0, 1)]


def golden_setting(scenario, seed):
    return ExperimentSetting(
        dataset="cifar10",
        model="simple_cnn",
        scale="ci",
        scenario=scenario,
        seed=seed,
        overrides={
            "num_clients": 4096,
            "train_samples": 2 * 4096,
            "test_samples": 50,
            "clients_per_round": 24,
            "batch_size": 2,
            "max_batches_per_epoch": 1,
            "num_rounds": GOLDEN_ROUNDS,
            "eval_every": 3,
        },
    )


def case_name(scenario, seed):
    return f"{scenario or 'plain'}-seed{seed}"


class Capture(Callback):
    """Keeps the finished algorithm; optionally crashes before a round."""

    def __init__(self, crash_at=None):
        self.crash_at = crash_at
        self.algorithm = None

    def on_round_start(self, algorithm, round_index):
        if round_index == self.crash_at:
            raise KeyboardInterrupt(f"injected crash before round {round_index}")

    def on_fit_end(self, algorithm, history):
        self.algorithm = algorithm


def fingerprint(result, algorithm):
    """History + final-weights hashes, and how many clients hold RL rows."""
    digest_input = b"".join(
        key.encode("utf-8") + algorithm.global_state[key].tobytes() for key in sorted(algorithm.global_state)
    )
    return {
        "history": sha256_hex(canonical_json(result.history.to_dict()).encode("utf-8")),
        "weights": sha256_hex(digest_input),
        "touched": algorithm.selector.num_touched,
    }


def run_golden_case(prepared, store=None, crash_at=None):
    capture = Capture(crash_at)
    if crash_at is not None:
        with pytest.raises(KeyboardInterrupt):
            run_algorithm("adaptivefl", prepared, callbacks=[capture], store=store)
        capture = Capture()
        result = run_algorithm("adaptivefl", prepared, callbacks=[capture], store=store, resume=True)
    else:
        result = run_algorithm("adaptivefl", prepared, callbacks=[capture], store=store)
    return fingerprint(result, capture.algorithm)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestStreamingGoldens:
    @pytest.mark.parametrize("scenario,seed", GOLDEN_CASES)
    def test_history_and_weights_hashes(self, goldens, scenario, seed):
        prepared = prepare_experiment(golden_setting(scenario, seed))
        assert run_golden_case(prepared) == goldens[case_name(scenario, seed)]

    def test_mid_run_resume_through_the_streaming_selector(self, goldens, tmp_path):
        prepared = prepare_experiment(golden_setting("flaky_edge", 0))
        resumed = run_golden_case(prepared, store=str(tmp_path / "store"), crash_at=GOLDEN_CRASH_AT)
        assert resumed == goldens[case_name("flaky_edge", 0)]


if __name__ == "__main__":
    fixtures = {
        case_name(scenario, seed): run_golden_case(prepare_experiment(golden_setting(scenario, seed)))
        for scenario, seed in GOLDEN_CASES
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(fixtures)} cases)", file=sys.stderr)
