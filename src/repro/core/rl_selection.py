"""RL-based client selection (paper §3.3 and Algorithm 1, lines 12-26).

The server never observes device resources.  Instead it maintains two
tables indexed by (model, client):

* the **curiosity table** ``T_c`` (3 levels × clients) counts how often a
  client has been involved with each model *level*; its MBIE-EB bonus
  ``1/sqrt(T_c)`` spreads exploration across clients,
* the **resource table** ``T_r`` ((2p+1) models × clients) scores how
  successfully a client trains each pool entry, updated from the
  ⟨dispatched, returned⟩ pair of every round.

The final reward ``min(cap, R_s) · R_c`` (cap = 0.5 in the paper) turns
into a selection probability by normalising over the still-unselected
clients of the round.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SELECTION_STRATEGIES
from repro.core.model_pool import LEVELS, ModelPool, SubmodelConfig
from repro.sim.cohorts import DEFAULT_COHORT_SIZE, cohort_counts, nth_masked_index

__all__ = ["RLClientSelector"]


class RLClientSelector:
    """Curiosity- and resource-driven client selection with O(selected) state.

    A row is kept *only* for clients that have ever been updated (the
    selected set), in one array-backed table in ascending client-id order:
    ``ids (n,)``, ``curiosity (n, 3)``, ``resource (n, 2p+1)`` and the
    combined reward per level ``(n, 3)`` — a reward depends on the model
    only through its level.  Every untouched client implicitly holds the
    all-ones initial row of Algorithm 1, lines 1-2, so its reward is a
    single shared value per level.  Selection splits into two tiers: the
    touched clients' stored rewards, plus ``untouched_count ×
    default_reward`` mass resolved by rank lookup into the availability
    mask (cohort-sharded, never materialising the population) — the same
    code for a 16-client and a 10⁶-client fleet.

    Cost model: :meth:`update` rewrites the one row it touched (three
    scalar rewards; a first touch also shifts the rows above the insert
    position), :meth:`select` is one vectorised pass over the touched rows
    plus one over the mask and computes no reward at all,
    :meth:`load_state_dict` rebuilds every row's rewards once.
    """

    def __init__(
        self,
        pool: ModelPool,
        num_clients: int,
        strategy: str = SELECTION_STRATEGIES[0],
        resource_reward_cap: float = 0.5,
        cohort_size: int = DEFAULT_COHORT_SIZE,
    ):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        # AdaptiveFL resolves "greedy" itself and selects for it as "random"
        valid = [name for name in SELECTION_STRATEGIES if name != "greedy"]
        if strategy not in valid:
            raise ValueError(f"strategy must be one of {sorted(valid)}, got {strategy!r}")
        if not 0.0 < resource_reward_cap <= 1.0:
            raise ValueError("resource_reward_cap must be in (0, 1]")
        if cohort_size <= 0:
            raise ValueError("cohort_size must be positive")
        self.pool = pool
        self.num_clients = num_clients
        self.strategy = strategy
        self.resource_reward_cap = resource_reward_cap
        self.cohort_size = cohort_size
        self.models_per_level = pool.config.models_per_level
        self._level_ranks = [[cfg.rank for cfg in pool if cfg.level == level] for level in LEVELS]
        # Algorithm 1, lines 1-2: every client starts at all-ones; only
        # clients that get updated ever materialise a row.  Rows
        # [0, _size) are live; the arrays carry spare capacity behind them.
        self._size = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._curiosity = np.empty((0, len(LEVELS)), dtype=np.float64)
        self._resource = np.empty((0, len(pool)), dtype=np.float64)
        self._rewards = np.empty((0, len(LEVELS)), dtype=np.float64)
        self._default_curiosity = np.ones(len(LEVELS), dtype=np.float64)
        self._default_resource = np.ones(len(pool), dtype=np.float64)
        self._default_rewards = self._level_rewards(self._default_curiosity, self._default_resource)

    # -- sparse rows -----------------------------------------------------------------
    @property
    def num_touched(self) -> int:
        """How many clients hold materialised rows (the selected set)."""
        return self._size

    def _find(self, client: int) -> tuple[int, bool]:
        """Where ``client``'s row is (or would be inserted), and whether it exists."""
        position = int(np.searchsorted(self._ids[: self._size], client))
        return position, position < self._size and int(self._ids[position]) == client

    def _rows_for(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """The (curiosity, resource) rows a client currently holds."""
        position, touched = self._find(client)
        if not touched:
            return self._default_curiosity, self._default_resource
        return self._curiosity[position], self._resource[position]

    def _materialise(self, client: int) -> int:
        """Get-or-create the row of one client; returns its position."""
        position, touched = self._find(client)
        if touched:
            return position
        size = self._size
        tables = ("_ids", "_curiosity", "_resource", "_rewards")
        if size == self._ids.shape[0]:
            for name in tables:
                old = getattr(self, name)
                grown = np.empty((max(64, 2 * size), *old.shape[1:]), dtype=old.dtype)
                grown[:size] = old
                setattr(self, name, grown)
        for name in tables:
            table = getattr(self, name)
            table[position + 1 : size + 1] = table[position:size]
        self._ids[position] = client
        self._curiosity[position] = self._default_curiosity
        self._resource[position] = self._default_resource
        self._rewards[position] = self._default_rewards
        self._size = size + 1
        return position

    # -- rewards ---------------------------------------------------------------------
    def _resource_reward_row(self, level_index: int, row: np.ndarray) -> float:
        total = float(row.sum())
        if total <= 0:
            return 0.0
        numerator = 0.0
        for rank in self._level_ranks[level_index]:
            numerator += float(row[rank:].sum())
        return numerator / (self.models_per_level * total)

    def _curiosity_reward_row(self, level_index: int, row: np.ndarray) -> float:
        return float(1.0 / np.sqrt(max(row[level_index], 1e-12)))

    def _row_reward(self, level_index: int, curiosity: np.ndarray, resource: np.ndarray) -> float:
        """The scalar reward every table entry is computed by."""
        if self.strategy == "random":
            return 1.0
        if self.strategy == "rl-c":
            return self._curiosity_reward_row(level_index, curiosity)
        if self.strategy == "rl-s":
            return self._resource_reward_row(level_index, resource)
        capped = min(self.resource_reward_cap, self._resource_reward_row(level_index, resource))
        return capped * self._curiosity_reward_row(level_index, curiosity)

    def _level_rewards(self, curiosity: np.ndarray, resource: np.ndarray) -> np.ndarray:
        """One row of the reward table: the combined reward per level."""
        return np.array(
            [self._row_reward(index, curiosity, resource) for index in range(len(LEVELS))],
            dtype=np.float64,
        )

    def resource_reward(self, model: SubmodelConfig, client: int) -> float:
        """Paper's ``R_s``: success mass of the model's level, cumulated upward."""
        return self._resource_reward_row(self.pool.level_index(model.level), self._rows_for(client)[1])

    def curiosity_reward(self, model: SubmodelConfig, client: int) -> float:
        """Paper's ``R_c``: MBIE-EB bonus ``1/sqrt(T_c[type(m)][c])``."""
        return self._curiosity_reward_row(self.pool.level_index(model.level), self._rows_for(client)[0])

    def combined_reward(self, model: SubmodelConfig, client: int) -> float:
        """Strategy-dependent final reward for one (model, client) pair."""
        return self._row_reward(self.pool.level_index(model.level), *self._rows_for(client))

    def default_reward(self, model: SubmodelConfig) -> float:
        """The shared reward every untouched (all-ones) client holds for ``model``."""
        return float(self._default_rewards[self.pool.level_index(model.level)])

    # -- selection -------------------------------------------------------------------
    def _checked_mask(self, allowed_mask: np.ndarray) -> np.ndarray:
        allowed_mask = np.asarray(allowed_mask, dtype=bool)
        if allowed_mask.shape != (self.num_clients,):
            raise ValueError(
                f"allowed_mask has shape {allowed_mask.shape}, expected ({self.num_clients},)"
            )
        return allowed_mask

    def selection_probabilities(self, model: SubmodelConfig, allowed_mask: np.ndarray) -> np.ndarray:
        """Normalised selection probabilities of the clients set in ``allowed_mask``.

        One entry per allowed client in ascending id order, read off the
        stored reward table.  O(num_clients) memory: introspection for
        tests and plots, not part of :meth:`select`.
        """
        allowed_mask = self._checked_mask(allowed_mask)
        if not allowed_mask.any():
            raise ValueError("no clients available for selection")
        level_index = self.pool.level_index(model.level)
        rewards = np.full(self.num_clients, self._default_rewards[level_index], dtype=np.float64)
        rewards[self._ids[: self._size]] = self._rewards[: self._size, level_index]
        rewards = np.clip(rewards[allowed_mask], 0.0, None)
        total = rewards.sum()
        if total <= 0:
            return np.full(rewards.size, 1.0 / rewards.size)
        return rewards / total

    def select(
        self,
        model: SubmodelConfig,
        rng: np.random.Generator,
        allowed_mask: np.ndarray,
    ) -> int:
        """Sample a client for ``model`` from a boolean mask (Algorithm 1, ClientSel).

        ``allowed_mask`` is the reachable clients not yet chosen this
        round, so a client trains at most one model per round.  Two-tier
        sampling over the distribution :meth:`selection_probabilities`
        defines: the stored rewards of the touched clients in the mask
        (walked in ascending id order by a running sum), then one shared
        default-reward mass for the untouched remainder, resolved to a
        client id by rank lookup (cohort-sharded).  Computes no reward: one
        gather of the mask at the touched ids, one column of the reward
        table, a cumulative sum and a binary search, plus one vectorised
        pass over the mask — no per-client Python work, however many
        clients were ever touched.  ``allowed_mask`` is not mutated.
        """
        allowed_mask = self._checked_mask(allowed_mask)
        allowed_total = int(allowed_mask.sum())
        if allowed_total == 0:
            raise ValueError("every client is already selected this round")
        level_index = self.pool.level_index(model.level)
        ids = self._ids[: self._size]
        reachable = allowed_mask[ids]
        touched = ids[reachable]
        rewards = np.clip(self._rewards[: self._size, level_index][reachable], 0.0, None)
        untouched_total = allowed_total - touched.size
        default = max(0.0, self.default_reward(model))
        total_mass = float(rewards.sum()) + untouched_total * default
        if total_mass <= 0:
            # degenerate rewards: uniform over the allowed mask
            return self._nth_allowed(allowed_mask, int(rng.integers(0, allowed_total)))
        threshold = float(rng.random()) * total_mass
        # sequential running sum, stopping at the first client whose
        # accumulated mass exceeds the threshold
        accumulated = np.cumsum(rewards)
        position = int(np.searchsorted(accumulated, threshold, side="right"))
        if position < touched.size:
            return int(touched[position])
        if untouched_total == 0 or default <= 0.0:
            return int(touched[-1])  # float-edge fallback: the mass ended mid-walk
        walked = float(accumulated[-1]) if touched.size else 0.0
        rank = min(int((threshold - walked) / default), untouched_total - 1)
        untouched_mask = allowed_mask.copy()
        untouched_mask[ids] = False
        return self._nth_allowed(untouched_mask, rank)

    # benchmarks/e2e/tracing.py (frozen between benchmark PRs) looks this name
    # up in the class's own __dict__; delete together with its hook rows
    select_from_mask = select

    def _nth_allowed(self, mask: np.ndarray, rank: int) -> int:
        """The ``rank``-th set bit of ``mask``, found cohort by cohort."""
        counts = cohort_counts(mask, self.cohort_size)
        offsets = np.cumsum(counts)
        cohort = int(np.searchsorted(offsets, rank, side="right"))
        before = int(offsets[cohort - 1]) if cohort > 0 else 0
        base = cohort * self.cohort_size
        return base + nth_masked_index(mask[base : base + self.cohort_size], rank - before)

    # -- table updates ---------------------------------------------------------------
    def update(self, sent: SubmodelConfig, returned: SubmodelConfig, client: int) -> None:
        """Apply Algorithm 1, lines 12-26, after a client's round finishes."""
        if not 0 <= client < self.num_clients:
            raise IndexError(f"client {client} out of range")
        if returned.num_params > sent.num_params:
            raise ValueError("a device cannot return a larger model than it received")
        position = self._materialise(client)
        curiosity, resource = self._curiosity[position], self._resource[position]

        # Lines 12-13: curiosity counts for the dispatched and returned levels.
        curiosity[self.pool.level_index(sent.level)] += 1
        curiosity[self.pool.level_index(returned.level)] += 1

        max_rank = len(self.pool) - 1
        if sent.rank == returned.rank:
            # Lines 15-18: the client handled the model unchanged, so every
            # model at least as large gains confidence; the full model gains
            # the extra p-1 bonus of line 18.
            resource[sent.rank : max_rank + 1] += 1.0
            resource[max_rank] += self.models_per_level - 1
        else:
            # Lines 20-25: the client had to prune, so the returned size is
            # strongly reinforced and larger sizes are progressively
            # penalised (floored at zero).
            resource[returned.rank] += self.models_per_level
            penalty = 0.0
            for rank in range(returned.rank, max_rank + 1):
                resource[rank] = max(resource[rank] - penalty, 0.0)
                penalty += 1.0
        self._rewards[position] = self._level_rewards(curiosity, resource)

    # -- checkpointing ---------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """The touched rows only, keyed for the experiment store.

        ``client_ids`` lists the touched clients in ascending order;
        ``curiosity_columns``/``resource_columns`` hold one column per
        client in that order.  Untouched clients are implicit (all-ones),
        which is what keeps checkpoints O(selected) at fleet scale; the
        reward table is derived state and is not stored.
        """
        size = self._size
        return {
            "client_ids": self._ids[:size].copy(),
            "curiosity_columns": self._curiosity[:size].T.copy(),
            "resource_columns": self._resource[:size].T.copy(),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output (shape-checked, bit-exact)."""
        for name in ("client_ids", "curiosity_columns", "resource_columns"):
            if name not in state:
                raise ValueError(f"selector state is missing {name!r}")
        ids = np.asarray(state["client_ids"], dtype=np.int64)
        curiosity = np.asarray(state["curiosity_columns"], dtype=np.float64)
        resource = np.asarray(state["resource_columns"], dtype=np.float64)
        if curiosity.shape != (len(LEVELS), ids.size) or resource.shape != (len(self.pool), ids.size):
            raise ValueError(
                f"selector column shapes {curiosity.shape}/{resource.shape} do not match "
                f"{ids.size} client ids for this pool; the checkpoint belongs to a "
                "different pool configuration"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_clients):
            raise ValueError("selector state references clients outside this fleet")
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("selector state client_ids must be strictly ascending")
        self._size = ids.size
        self._ids = ids.copy()
        self._curiosity = curiosity.T.copy()
        self._resource = resource.T.copy()
        self._rewards = np.empty((ids.size, len(LEVELS)), dtype=np.float64)
        for position in range(ids.size):
            self._rewards[position] = self._level_rewards(self._curiosity[position], self._resource[position])

    # -- introspection ---------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Full ``(levels|pool) × num_clients`` tables rebuilt from the sparse
        rows (tests, plots); only call at small N."""
        ids = self._ids[: self._size]
        curiosity = np.ones((len(LEVELS), self.num_clients), dtype=np.float64)
        resource = np.ones((len(self.pool), self.num_clients), dtype=np.float64)
        curiosity[:, ids] = self._curiosity[: self._size].T
        resource[:, ids] = self._resource[: self._size].T
        return {"curiosity": curiosity, "resource": resource}


# benchmarks/e2e/tracing.py (frozen between benchmark PRs) imports the selector
# under this name too; delete together with its hook rows
StreamingRLClientSelector = RLClientSelector
