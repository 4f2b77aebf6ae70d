"""Cohort-sharded streaming selection primitives (``repro.sim.cohorts``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cohorts import (
    cohort_counts,
    masked_choice_without_replacement,
    nth_masked_index,
)


class TestCohortCounts:
    def test_tallies_per_cohort(self):
        mask = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1], dtype=bool)
        assert cohort_counts(mask, cohort_size=4).tolist() == [3, 2, 1]

    def test_empty_mask(self):
        assert cohort_counts(np.zeros(0, dtype=bool), cohort_size=4).size == 0

    def test_rejects_bad_cohort_size(self):
        with pytest.raises(ValueError, match="cohort_size"):
            cohort_counts(np.ones(4, dtype=bool), cohort_size=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.integers(1, 300), cohort=st.integers(1, 64))
    def test_property_one_tally_per_cohort_summing_to_the_population(self, seed, size, cohort):
        mask = np.random.default_rng(seed).random(size) < 0.5
        counts = cohort_counts(mask, cohort_size=cohort)
        assert counts.size == -(-size // cohort)
        assert int(counts.sum()) == int(mask.sum())
        assert counts.max() <= cohort


class TestNthMaskedIndex:
    def test_rank_translation(self):
        mask = np.array([0, 1, 0, 1, 1], dtype=bool)
        assert [nth_masked_index(mask, r) for r in range(3)] == [1, 3, 4]

    def test_prefix_sums_then_in_cohort_rank_recover_every_id(self):
        """The two-step lookup: locate the cohort by prefix sums, then translate the rank inside it."""
        cohort_size = 8
        mask = np.random.default_rng(11).random(103) < 0.3
        offsets = np.concatenate([[0], np.cumsum(cohort_counts(mask, cohort_size))])
        dense = np.flatnonzero(mask)
        for rank, expected in enumerate(dense):
            cohort = int(np.searchsorted(offsets, rank, side="right")) - 1
            base = cohort * cohort_size
            local = nth_masked_index(mask[base : base + cohort_size], rank - int(offsets[cohort]))
            assert base + local == expected

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nth_masked_index(np.array([True, False]), 1)


class TestMaskedChoice:
    def dense_reference(self, rng, mask, k):
        return np.flatnonzero(mask)[rng.choice(int(mask.sum()), size=k, replace=False)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("cohort_size", [3, 16, 1000])
    def test_draw_equivalent_to_dense_reference(self, seed, cohort_size):
        rng = np.random.default_rng(seed)
        mask = np.random.default_rng(seed + 100).random(257) < 0.4
        k = min(20, int(mask.sum()))
        chosen = masked_choice_without_replacement(
            np.random.default_rng(seed), mask, k, cohort_size=cohort_size
        )
        reference = self.dense_reference(rng, mask, k)
        assert np.array_equal(chosen, reference)

    def test_exhaustive_draw_covers_every_online_client(self):
        mask = np.random.default_rng(3).random(100) < 0.5
        total = int(mask.sum())
        chosen = masked_choice_without_replacement(np.random.default_rng(0), mask, total, cohort_size=8)
        assert sorted(chosen.tolist()) == np.flatnonzero(mask).tolist()

    def test_rejects_oversampling_and_negative_k(self):
        mask = np.array([True, False, True])
        with pytest.raises(ValueError, match="cannot sample"):
            masked_choice_without_replacement(np.random.default_rng(0), mask, 3)
        with pytest.raises(ValueError, match="non-negative"):
            masked_choice_without_replacement(np.random.default_rng(0), mask, -1)

    def test_k_zero_consumes_no_randomness(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        out = masked_choice_without_replacement(rng, np.ones(10, dtype=bool), 0)
        assert out.size == 0
        assert rng.bit_generator.state == before

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.integers(1, 300), cohort=st.integers(1, 64))
    def test_property_matches_dense_reference(self, seed, size, cohort):
        mask = np.random.default_rng(seed).random(size) < 0.6
        total = int(mask.sum())
        k = min(total, 7)
        chosen = masked_choice_without_replacement(np.random.default_rng(seed), mask, k, cohort_size=cohort)
        reference = self.dense_reference(np.random.default_rng(seed), mask, k)
        assert np.array_equal(chosen, reference)
