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

A round costs two calls: :meth:`RLClientSelector.select` walks all of its
slots, keeping the round's working mask and tallies up to date as each
slot is taken, and :meth:`RLClientSelector.update` applies lines 12-26 to
the round's distinct clients as one column pass after the last slot.  A
single client is the one-slot case of the same two calls.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import SELECTION_STRATEGIES
from repro.core.model_pool import LEVELS, ModelPool, SubmodelConfig
from repro.sim.cohorts import DEFAULT_COHORT_SIZE, cohort_counts

__all__ = ["RLClientSelector"]


def _with_rows_inserted(table: np.ndarray, at: np.ndarray, rows) -> np.ndarray:
    """``table`` with ``rows[i]`` inserted before its row ``at[i]`` (``at`` ascending).

    One contiguous copy per run of kept rows: far cheaper than ``np.insert``
    along axis 0 for the few rows a round adds to a large table.
    """
    out = np.empty((table.shape[0] + at.size, *table.shape[1:]), dtype=table.dtype)
    out[at + np.arange(at.size)] = rows
    start = 0
    for shift, position in enumerate(at.tolist()):
        out[start + shift : position + shift] = table[start:position]
        start = position
    out[start + at.size :] = table[start:]
    return out


def _without(array: np.ndarray, index: int) -> np.ndarray:
    """``array`` less its element ``index``: shifted in place, returned one shorter."""
    array[index:-1] = array[index + 1 :]
    return array[:-1]


class _Tier:
    """One tier of a round's candidates: a working mask that loses a bit per slot.

    The set-bit count and, once a rank lookup needs them, the per-cohort
    tallies and the set bits of each cohort looked into are updated as
    clients are taken, so no lookup passes over the mask again.  ``mask``
    is owned: callers hand over a copy.
    """

    def __init__(self, mask: np.ndarray, cohort_size: int):
        self.mask = mask
        self.cohort_size = cohort_size
        self.total = int(np.count_nonzero(mask))
        self._counts: np.ndarray | None = None
        self._members: dict[int, np.ndarray] = {}

    def take(self, client: int) -> None:
        """Clear the bit of ``client``, which must be set."""
        self.mask[client] = False
        self.total -= 1
        cohort = client // self.cohort_size
        if self._counts is not None:
            self._counts[cohort] -= 1
        members = self._members.get(cohort)
        if members is not None:
            self._members[cohort] = _without(members, int(members.searchsorted(client)))

    def nth(self, rank: int) -> int:
        """The ``rank``-th set bit, found cohort by cohort."""
        if self._counts is None:
            self._counts = cohort_counts(self.mask, self.cohort_size)
        offsets = np.cumsum(self._counts)
        cohort = int(offsets.searchsorted(rank, side="right"))
        members = self._members.get(cohort)
        if members is None:
            base = cohort * self.cohort_size
            members = self._members[cohort] = base + np.flatnonzero(self.mask[base : base + self.cohort_size])
        return int(members[rank - (int(offsets[cohort - 1]) if cohort > 0 else 0)])


@dataclass
class _LevelMasses:
    """One level's clipped rewards over the reachable rows, and their sums."""

    rewards: np.ndarray
    #: running sums of ``rewards``; entries from ``valid`` on are stale
    accumulated: np.ndarray
    total: float | None = None
    valid: int = 0


class _Reachable:
    """The touched rows a round can still reach, in ascending id order.

    Per level, built when a slot first asks for it: the clipped rewards,
    their pairwise total and their running sums.  Taking a row deletes it
    from each, drops the total and keeps only the running sums before it:
    the walk is sequential, so that prefix is unchanged, and the rest is
    continued from it on the next ask.  The values are what a fresh
    ``sum`` / ``cumsum`` over the remaining rows would give, bit for bit.
    """

    def __init__(self, rewards: np.ndarray, rows: np.ndarray):
        self.rows = rows  # positions in the reward table
        self._rewards = rewards
        self._levels: dict[int, _LevelMasses] = {}

    def masses(self, level_index: int) -> tuple[float, np.ndarray]:
        """The float total and the running sums of one level's rewards."""
        level = self._levels.get(level_index)
        if level is None:
            rewards = np.maximum(self._rewards[self.rows, level_index], 0.0)
            level = self._levels[level_index] = _LevelMasses(rewards, np.empty_like(rewards))
        if level.total is None:
            level.total = float(level.rewards.sum())
        valid, accumulated = level.valid, level.accumulated
        if valid == 0:
            np.cumsum(level.rewards, out=accumulated)
        elif valid < level.rewards.size:
            tail = np.concatenate((accumulated[valid - 1 : valid], level.rewards[valid:]))
            np.cumsum(tail, out=accumulated[valid - 1 :])
        level.valid = level.rewards.size
        return level.total, accumulated

    def take(self, row: int) -> None:
        """Drop table row ``row``, which must be reachable."""
        index = int(self.rows.searchsorted(row))
        self.rows = _without(self.rows, index)
        for level in self._levels.values():
            level.rewards = _without(level.rewards, index)
            level.accumulated = level.accumulated[:-1]
            level.total = None
            level.valid = min(level.valid, index)


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

    Cost model, per round: :meth:`select` copies the mask once and
    gathers which touched rows it reaches once.  Per slot it re-sums a
    level's reachable touched rewards only after a touched client left
    (the pairwise total, and the running sums from the removed row on),
    searches the running sums once and clears one bit; the untouched
    tier's mask, cohort tallies and a cohort's set bits are built at most
    once, when a slot first lands there.  :meth:`update` is one column
    pass over the round's clients: a merge for first touches (one copy of
    the table) and one vectorised reward rebuild of their rows.
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
        self._rank_levels = np.array([pool.level_index(cfg.level) for cfg in pool])
        #: (pool, levels) 0/1 matrix: which ranks belong to which level
        self._level_members = (self._rank_levels[:, None] == np.arange(len(LEVELS))).astype(np.float64)
        # Algorithm 1, lines 1-2: every client starts at all-ones; only
        # clients that get updated ever materialise a row.
        self._default_curiosity = np.ones(len(LEVELS), dtype=np.float64)
        self._default_resource = np.ones(len(pool), dtype=np.float64)
        self._default_rewards = self._level_rewards(self._default_curiosity[None], self._default_resource[None])[0]
        self._default_row = np.concatenate((self._default_curiosity, self._default_resource, self._default_rewards))
        self._set_rows(np.empty(0, dtype=np.int64), np.empty((0, self._default_row.size), dtype=np.float64))

    # -- sparse rows -----------------------------------------------------------------
    @property
    def num_touched(self) -> int:
        """How many clients hold materialised rows (the selected set)."""
        return self._ids.size

    def _set_rows(self, ids: np.ndarray, table: np.ndarray) -> None:
        """Install the rows: ``table`` holds curiosity | resource | rewards side by side."""
        levels, entries = len(LEVELS), len(self.pool)
        self._ids = ids
        self._table = table
        self._curiosity = table[:, :levels]
        self._resource = table[:, levels : levels + entries]
        self._rewards = table[:, levels + entries :]

    def _rows_for(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """The (curiosity, resource) rows a client currently holds."""
        position = int(np.searchsorted(self._ids, client))
        if position == self._ids.size or self._ids[position] != client:
            return self._default_curiosity, self._default_resource
        return self._curiosity[position], self._resource[position]

    # -- rewards ---------------------------------------------------------------------
    def _reward_terms(self, curiosity: np.ndarray, resource: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(R_c, R_s)`` per row and level, for stacked table rows.

        ``R_c`` is the MBIE-EB bonus ``1/sqrt(T_c)``; ``R_s`` is the success
        mass of a level's ranks, each cumulated upward, over ``p`` times the
        row's total.  Both tables hold small integers, so every sum here is
        exact in any order and a row's rewards do not depend on the rows
        stacked with it.
        """
        curiosity_reward = 1.0 / np.sqrt(np.maximum(curiosity, 1e-12))
        upward = resource[:, ::-1].cumsum(axis=1)[:, ::-1]  # upward[:, r] = resource[:, r:].sum()
        numerator = upward @ self._level_members
        total = upward[:, :1]
        resource_reward = np.zeros_like(numerator)
        np.divide(numerator, self.models_per_level * total, out=resource_reward, where=total > 0)
        return curiosity_reward, resource_reward

    def _level_rewards(self, curiosity: np.ndarray, resource: np.ndarray) -> np.ndarray:
        """Rows of the reward table: the strategy's combined reward per level."""
        if self.strategy == "random":
            return np.ones((curiosity.shape[0], len(LEVELS)), dtype=np.float64)
        curiosity_reward, resource_reward = self._reward_terms(curiosity, resource)
        if self.strategy == "rl-c":
            return curiosity_reward
        if self.strategy == "rl-s":
            return resource_reward
        return np.minimum(self.resource_reward_cap, resource_reward) * curiosity_reward

    def _client_terms(self, model: SubmodelConfig, client: int) -> tuple[float, float]:
        curiosity, resource = self._rows_for(client)
        level_index = self.pool.level_index(model.level)
        curiosity_reward, resource_reward = self._reward_terms(curiosity[None], resource[None])
        return float(curiosity_reward[0, level_index]), float(resource_reward[0, level_index])

    def resource_reward(self, model: SubmodelConfig, client: int) -> float:
        """Paper's ``R_s``: success mass of the model's level, cumulated upward."""
        return self._client_terms(model, client)[1]

    def curiosity_reward(self, model: SubmodelConfig, client: int) -> float:
        """Paper's ``R_c``: MBIE-EB bonus ``1/sqrt(T_c[type(m)][c])``."""
        return self._client_terms(model, client)[0]

    def combined_reward(self, model: SubmodelConfig, client: int) -> float:
        """Strategy-dependent final reward for one (model, client) pair."""
        curiosity, resource = self._rows_for(client)
        return float(self._level_rewards(curiosity[None], resource[None])[0, self.pool.level_index(model.level)])

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
        rewards[self._ids] = self._rewards[:, level_index]
        rewards = np.clip(rewards[allowed_mask], 0.0, None)
        total = rewards.sum()
        if total <= 0:
            return np.full(rewards.size, 1.0 / rewards.size)
        return rewards / total

    def select(
        self,
        model: SubmodelConfig | Iterable[SubmodelConfig],
        rng: np.random.Generator,
        allowed_mask: np.ndarray,
    ) -> int | list[int]:
        """Sample a client per model from a boolean mask (Algorithm 1, ClientSel).

        ``model`` is one pool entry, which returns one client id, or a
        round's models, one per slot, which returns the slots' clients in
        order.  The models are consumed one slot at a time, so a caller that
        draws them from ``rng`` (RandomSel) interleaves its draw with the
        slots' draws exactly as a slot-by-slot walk would.

        ``allowed_mask`` is the reachable clients at the start of the
        round; it is not mutated.  A slot's client leaves the round's
        working copy at once, so a client trains at most one model per
        round.  Each slot samples the distribution
        :meth:`selection_probabilities` defines over what is left, in two
        tiers: the stored rewards of the touched clients still reachable
        (walked in ascending id order by a running sum), then one shared
        default-reward mass for the untouched remainder, resolved to a
        client id by rank lookup (cohort-sharded).  Each slot draws one
        ``rng.random()``, or one ``rng.integers`` over the slot's allowed
        clients when every reward is zero.  A slot's float masses are,
        bit for bit, a fresh pairwise ``sum`` and ``cumsum`` over the
        reachable touched rewards in id order (a running float total would
        move the threshold's bits); they are kept per level from a clipped
        reward column built once per round, while the integer counts are
        updated as slots are taken.
        """
        one = isinstance(model, SubmodelConfig)
        allowed = _Tier(self._checked_mask(allowed_mask).copy(), self.cohort_size)
        ids = self._ids
        reachable = _Reachable(self._rewards, np.flatnonzero(allowed.mask[ids]))
        untouched: _Tier | None = None
        defaults = np.maximum(self._default_rewards, 0.0)
        chosen: list[int] = []
        for slot_model in [model] if one else model:
            if allowed.total == 0:
                raise ValueError("every client is already selected this round")
            level_index = int(self._rank_levels[slot_model.rank])
            touched_mass, accumulated = reachable.masses(level_index)
            touched = reachable.rows
            untouched_total = allowed.total - touched.size
            default = float(defaults[level_index])
            total_mass = touched_mass + untouched_total * default
            if total_mass <= 0:
                # degenerate rewards: uniform over the allowed mask
                client = allowed.nth(int(rng.integers(0, allowed.total)))
            else:
                threshold = float(rng.random()) * total_mass
                # sequential running sum, stopping at the first client whose
                # accumulated mass exceeds the threshold
                position = int(accumulated.searchsorted(threshold, side="right"))
                if position < touched.size:
                    client = int(ids[touched[position]])
                elif untouched_total == 0 or default <= 0.0:
                    client = int(ids[touched[-1]])  # float-edge fallback: the mass ended mid-walk
                else:
                    walked = float(accumulated[-1]) if touched.size else 0.0
                    rank = min(int((threshold - walked) / default), untouched_total - 1)
                    if untouched is None:
                        mask = allowed.mask.copy()
                        mask[ids] = False
                        untouched = _Tier(mask, self.cohort_size)
                    client = untouched.nth(rank)
            row = int(ids.searchsorted(client))
            if row < ids.size and ids[row] == client:
                reachable.take(row)
            elif untouched is not None:
                untouched.take(client)
            allowed.take(client)
            chosen.append(client)
        return chosen[0] if one else chosen

    # benchmarks/e2e/tracing.py (frozen between benchmark PRs) looks this name
    # up in the class's own __dict__; delete together with its hook rows
    select_from_mask = select

    # -- table updates ---------------------------------------------------------------
    def update(
        self,
        sent: SubmodelConfig | Sequence[SubmodelConfig],
        returned: SubmodelConfig | Sequence[SubmodelConfig],
        client: int | Sequence[int],
    ) -> None:
        """Apply Algorithm 1, lines 12-26, after clients finish their round.

        ``client`` is one client id with its ``sent`` / ``returned`` pool
        entries, or a round's distinct client ids with the matching
        sequences.  Distinct clients write distinct rows, so their updates
        commute and apply as one column pass: first touches are merged in
        as all-ones rows in ascending id order, then both tables and the
        rewards of the updated rows are rewritten at once.  Both tables hold
        small integers, so the column arithmetic is exact in any order.
        """
        if isinstance(sent, SubmodelConfig):
            sent, returned, client = [sent], [returned], [client]
        clients = np.asarray(client, dtype=np.int64).reshape(-1)
        if not len(sent) == len(returned) == clients.size:
            raise ValueError("sent, returned and client must have the same length")
        outside = clients[(clients < 0) | (clients >= self.num_clients)]
        if outside.size:
            raise IndexError(f"client {int(outside[0])} out of range")
        if any(back.num_params > out.num_params for out, back in zip(sent, returned)):
            raise ValueError("a device cannot return a larger model than it received")
        order = clients.argsort(kind="stable")
        clients = clients[order]
        if (clients[1:] == clients[:-1]).any():
            raise ValueError("a round's clients must be distinct")
        if not clients.size:
            return
        sent_rank, returned_rank = np.array([[cfg.rank for cfg in configs] for configs in (sent, returned)])[:, order]
        sent_level, returned_level = self._rank_levels[sent_rank], self._rank_levels[returned_rank]

        # Algorithm 1, lines 1-2: a first touch materialises an all-ones row
        positions = self._ids.searchsorted(clients)
        inside = positions < self._ids.size
        fresh = ~inside
        fresh[inside] = self._ids[positions[inside]] != clients[inside]
        if fresh.any():
            at, added = positions[fresh], clients[fresh]
            self._set_rows(
                _with_rows_inserted(self._ids, at, added),
                _with_rows_inserted(self._table, at, self._default_row),
            )
            positions = self._ids.searchsorted(clients)

        # Lines 12-13: curiosity counts for the dispatched and returned levels.
        self._curiosity[positions, sent_level] += 1.0
        self._curiosity[positions, returned_level] += 1.0

        resource = self._resource[positions]
        above = np.arange(len(self.pool)) - returned_rank[:, None]
        covered = above >= 0
        # Lines 15-18: the client handled the model unchanged, so every model
        # at least as large gains confidence; the full model gains the extra
        # p-1 bonus of line 18.
        kept = resource + covered
        kept[:, -1] += self.models_per_level - 1
        # Lines 20-25: the client had to prune, so the returned size is
        # strongly reinforced and larger sizes are progressively penalised
        # (floored at zero).
        reinforced = resource + self.models_per_level * (above == 0) - above
        pruned = np.where(covered, np.maximum(reinforced, 0.0), resource)
        resource = np.where((sent_rank == returned_rank)[:, None], kept, pruned)
        self._resource[positions] = resource
        self._rewards[positions] = self._level_rewards(self._curiosity[positions], resource)

    # -- checkpointing ---------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """The touched rows only, keyed for the experiment store.

        ``client_ids`` lists the touched clients in ascending order;
        ``curiosity_columns``/``resource_columns`` hold one column per
        client in that order.  Untouched clients are implicit (all-ones),
        which is what keeps checkpoints O(selected) at fleet scale; the
        reward table is derived state and is not stored.
        """
        return {
            "client_ids": self._ids.copy(),
            "curiosity_columns": self._curiosity.T.copy(),
            "resource_columns": self._resource.T.copy(),
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
        rewards = self._level_rewards(curiosity.T, resource.T)
        self._set_rows(ids.copy(), np.concatenate((curiosity.T, resource.T, rewards), axis=1))

    # -- introspection ---------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Full ``(levels|pool) × num_clients`` tables rebuilt from the sparse
        rows (tests, plots); only call at small N."""
        curiosity = np.ones((len(LEVELS), self.num_clients), dtype=np.float64)
        resource = np.ones((len(self.pool), self.num_clients), dtype=np.float64)
        curiosity[:, self._ids] = self._curiosity.T
        resource[:, self._ids] = self._resource.T
        return {"curiosity": curiosity, "resource": resource}


# benchmarks/e2e/tracing.py (frozen between benchmark PRs) imports the selector
# under this name too; delete together with its hook rows
StreamingRLClientSelector = RLClientSelector
