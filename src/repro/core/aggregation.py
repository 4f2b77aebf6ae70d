"""Heterogeneous model aggregation (Algorithm 2 of the paper).

Because every submodel keeps prefix blocks of the global tensors, the
aggregation reduces to element-wise weighted averaging with per-element
coverage bookkeeping: an element of the global model is replaced by the
data-size-weighted mean of the uploads that contain it, and keeps its old
value if no upload covers it (Algorithm 2, line 14).

Aggregation is a per-round hot path, so the heavy lifting lives in
:class:`HeterogeneousAggregator`, which owns reusable accumulation
buffers (weighted sums, per-element weight totals, coverage masks and a
scatter scratch) sized to the global state and zeroed — never
reallocated — every round, plus a cache of the prefix-slice regions per
upload shape.  The module-level :func:`aggregate_heterogeneous` keeps
the historical one-shot API on top of a throwaway aggregator.

All arithmetic preserves the dtype of the global state: a ``float32``
training stack aggregates in ``float32`` end-to-end (no silent
``float64`` promotion), while tests that feed ``float64`` states keep
double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ClientUpdate",
    "HeterogeneousAggregator",
    "aggregate_heterogeneous",
    "fedavg_aggregate",
]


@dataclass
class ClientUpdate:
    """One uploaded submodel: its state dict and the client's data size."""

    state: Mapping[str, np.ndarray]
    num_samples: int

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")


class HeterogeneousAggregator:
    """Reusable-buffer engine for prefix-overlap weighted averaging.

    One instance serves one global-state *signature* (names, shapes,
    dtypes) — exactly the lifetime of a federated algorithm, which owns
    one.  Buffers are allocated on first use and reused across rounds;
    a change of shape or dtype for a name transparently reallocates.
    """

    def __init__(self) -> None:
        # name -> (accumulator, weight_sum, scratch, coverage mask)
        self._buffers: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        # (name, upload shape) -> prefix-slice region
        self._regions: dict[tuple[str, tuple[int, ...]], tuple[slice, ...]] = {}
        # open streaming round: the global state being aggregated into, or None
        self._round_state: dict[str, np.ndarray] | None = None

    def _buffers_for(self, name: str, reference: np.ndarray):
        cached = self._buffers.get(name)
        if cached is None or cached[0].shape != reference.shape or cached[0].dtype != reference.dtype:
            cached = (
                np.zeros_like(reference),
                np.zeros_like(reference),
                np.empty_like(reference),
                np.zeros(reference.shape, dtype=bool),
            )
            self._buffers[name] = cached
        else:
            cached[0].fill(0)
            cached[1].fill(0)
        return cached

    def region_for(self, name: str, full_shape: tuple[int, ...], upload_shape: tuple[int, ...]) -> tuple[slice, ...]:
        """The (cached) prefix region an upload of ``upload_shape`` covers."""
        key = (name, upload_shape)
        region = self._regions.get(key)
        if region is None:
            if len(upload_shape) != len(full_shape) or any(
                extent > full for extent, full in zip(upload_shape, full_shape)
            ):
                raise ValueError(
                    f"upload for {name!r} with shape {upload_shape} is not a prefix of {full_shape}"
                )
            region = tuple(slice(0, extent) for extent in upload_shape)
            self._regions[key] = region
        return region

    # -- streaming rounds ------------------------------------------------------------
    def begin_round(self, global_state: Mapping[str, np.ndarray]) -> None:
        """Open a streaming round: zero the accumulation buffers.

        The memory-bounded entry point for fleet-scale rounds: feed
        uploads one at a time with :meth:`add` (each can be decoded,
        accumulated and dropped before the next exists) and close with
        :meth:`finalize`.  Peak RSS holds one upload plus the reused
        buffers — never all client deltas at once.
        """
        if self._round_state is not None:
            raise RuntimeError("begin_round called while a streaming round is already open")
        state = {name: np.asarray(value) for name, value in global_state.items()}
        for name, old_value in state.items():
            self._buffers_for(name, old_value)
        self._round_state = state

    def scratch_for(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The open round's scratch block under an upload of ``shape``: a tensor
        decoded right here is weighted by :meth:`add` where it lies, not copied in."""
        if self._round_state is None:
            raise RuntimeError("scratch_for called with no open round (call begin_round first)")
        region = self.region_for(name, self._round_state[name].shape, shape)
        return self._buffers[name][2][region]

    def add(self, update: ClientUpdate) -> None:
        """Accumulate one upload into the open round's partial sums.

        Per (name, element) the accumulation order over uploads equals
        the call order — the same order the one-shot :meth:`aggregate`
        walks them in — so streaming is bit-identical to one-shot.
        """
        if self._round_state is None:
            raise RuntimeError("add called with no open round (call begin_round first)")
        weight = float(update.num_samples)
        for name, old_value in self._round_state.items():
            tensor = update.state.get(name)
            if tensor is None:
                continue
            tensor = np.asarray(tensor)
            region = self.region_for(name, old_value.shape, tensor.shape)
            accumulator, weight_sum, scratch, _ = self._buffers[name]
            # weighted accumulation without per-update temporaries
            target = scratch[region]
            np.multiply(tensor, weight, out=target, casting="unsafe")
            accumulator[region] += target
            weight_sum[region] += weight

    def finalize(self) -> dict[str, np.ndarray]:
        """Close the open round and return the merged global state.

        Elements not covered by any upload keep their previous value; a
        round with zero uploads returns a copy of the old state.
        """
        if self._round_state is None:
            raise RuntimeError("finalize called with no open round (call begin_round first)")
        state, self._round_state = self._round_state, None
        new_state: dict[str, np.ndarray] = {}
        for name, old_value in state.items():
            accumulator, weight_sum, _, covered = self._buffers[name]
            np.greater(weight_sum, 0, out=covered)
            merged = np.array(old_value, copy=True)
            np.divide(accumulator, weight_sum, out=merged, where=covered)
            new_state[name] = merged
        return new_state

    def abort_round(self) -> None:
        """Discard an open round (error paths); a no-op when none is open."""
        self._round_state = None

    def aggregate(
        self,
        global_state: Mapping[str, np.ndarray],
        updates: Iterable[ClientUpdate],
    ) -> dict[str, np.ndarray]:
        """Aggregate heterogeneous submodel uploads into a new global state.

        Every uploaded tensor must be a prefix block of the corresponding
        global tensor (same number of axes, each extent no larger).
        Elements not covered by any upload keep their previous value.
        ``updates`` may be any iterable — a generator streams uploads
        through the reused buffers without ever holding them all.
        """
        self.begin_round(global_state)
        try:
            for update in updates:
                self.add(update)
        except BaseException:
            self.abort_round()
            raise
        return self.finalize()


def aggregate_heterogeneous(
    global_state: Mapping[str, np.ndarray],
    updates: Sequence[ClientUpdate],
) -> dict[str, np.ndarray]:
    """One-shot aggregation (see :class:`HeterogeneousAggregator`).

    Algorithms hold a long-lived aggregator to reuse its buffers across
    rounds; this function exists for tests and ad-hoc callers.
    """
    return HeterogeneousAggregator().aggregate(global_state, updates)


def fedavg_aggregate(updates: Sequence[ClientUpdate]) -> dict[str, np.ndarray]:
    """Classic FedAvg over homogeneous (same-shape) uploads."""
    if not updates:
        raise ValueError("fedavg_aggregate needs at least one update")
    total = float(sum(update.num_samples for update in updates))
    reference = updates[0].state
    merged: dict[str, np.ndarray] = {}
    for name, value in reference.items():
        merged[name] = np.zeros_like(np.asarray(value))
    for update in updates:
        weight = update.num_samples / total
        for name, value in update.state.items():
            tensor = np.asarray(value)
            if tensor.shape != merged[name].shape:
                raise ValueError(
                    f"fedavg_aggregate requires homogeneous shapes; {name!r} differs "
                    f"({tensor.shape} vs {merged[name].shape})"
                )
            merged[name] += weight * tensor
    return merged
