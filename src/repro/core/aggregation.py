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

Clients trained as one stacked pass upload the rows of one
:class:`UploadStack`: each upload is a :class:`StackRow`, a read-only
mapping over row ``k`` of the pass's ``(K, …)`` tensors.  The aggregator
weights such a stack once, in one multiply per tensor, and still adds
its rows one by one in submission order; any other mapping is a stack of
one.

All arithmetic preserves the dtype of the global state: a ``float32``
training stack aggregates in ``float32`` end-to-end (no silent
``float64`` promotion), while tests that feed ``float64`` states keep
double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "ClientUpdate",
    "HeterogeneousAggregator",
    "StackRow",
    "UploadStack",
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


class UploadStack:
    """The ``(K, …)`` tensors one stacked pass trained: row ``k`` is client ``k``'s upload.

    ``weights[k]`` is row ``k``'s sample count.  The rows are read-only, so
    what depends only on the tensors is worked out once per stack and kept:
    the row layout, the row size, the float tensors some row of which is
    not finite or breaks its sign rule, and the last slice the layout was
    checked against.
    """

    __slots__ = ("tensors", "weights", "layout", "row_nbytes", "checked_against", "_suspects")

    def __init__(self, tensors: Mapping[str, np.ndarray], weights: Sequence[float]) -> None:
        self.tensors = dict(tensors)
        self.weights = tuple(weights)
        if any(len(stack) != len(self.weights) for stack in self.tensors.values()):
            raise ValueError(f"every tensor of a stack of {len(self.weights)} needs {len(self.weights)} rows")
        #: ``(name, row shape)`` per tensor, in upload order
        self.layout = tuple((name, stack.shape[1:]) for name, stack in self.tensors.items())
        self.row_nbytes = sum(stack.nbytes for stack in self.tensors.values()) // max(len(self.weights), 1)
        #: opaque token of the last layout check that passed (see ``FederatedAlgorithm``)
        self.checked_against: tuple | None = None
        self._suspects: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.weights)

    def rows(self) -> list["StackRow"]:
        """Every client's upload, in row order."""
        return [StackRow(self, row) for row in range(len(self))]

    def suspects(self, nonnegative: Collection[str]) -> tuple[str, ...]:
        """The float tensors holding NaN or ±inf in some row, or a negative value where
        ``nonnegative`` names them: one pass each, once (``nonnegative`` is the model's)."""
        if self._suspects is None:
            self._suspects = tuple(
                name
                for name, stack in self.tensors.items()
                if stack.dtype.kind == "f"
                and (not np.isfinite(stack).all() or name in nonnegative and (stack < 0).any())
            )
        return self._suspects


class StackRow(Mapping):
    """Row ``row`` of an :class:`UploadStack`: one client's upload, read-only.

    Each tensor is a view of its stack.  It pickles as the plain dict of
    its tensors, so the stack never crosses a process boundary.
    """

    __slots__ = ("stack", "row")

    def __init__(self, stack: UploadStack, row: int) -> None:
        self.stack = stack
        self.row = row

    def __getitem__(self, name: str) -> np.ndarray:
        return self.stack.tensors[name][self.row]

    def __iter__(self) -> Iterator[str]:
        return iter(self.stack.tensors)

    def __len__(self) -> int:
        return len(self.stack.tensors)

    def __reduce__(self):
        return dict, (dict(self),)


class _Plan:
    """How an upload of one layout folds: per tensor its accumulator,
    weight-sum and scratch blocks; and the open round's weight total."""

    __slots__ = ("terms", "weight")

    def __init__(self, terms: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]) -> None:
        self.terms = terms
        self.weight = 0.0


class HeterogeneousAggregator:
    """Reusable-buffer engine for prefix-overlap weighted averaging.

    One instance serves one global-state *signature* (names, shapes,
    dtypes) — exactly the lifetime of a federated algorithm, which owns
    one.  Buffers are allocated on first use and reused across rounds;
    a change of shape or dtype for a name transparently reallocates.

    Weight sums are tallied per upload layout and added into the
    per-element totals once, in :meth:`finalize`.  Weights are integer
    sample counts, so this is exact — and bit-identical to adding them
    upload by upload — while every element's round total stays below
    2^24 samples in ``float32`` (2^53 in ``float64``); the ``paper``
    preset puts 5 000 samples in a round.
    """

    def __init__(self) -> None:
        # name -> (accumulator, weight_sum, scratch, coverage mask)
        self._buffers: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        # (name, upload shape) -> prefix-slice region
        self._regions: dict[tuple[str, tuple[int, ...]], tuple[slice, ...]] = {}
        # upload layout -> its plan, valid while the global state keeps its signature
        self._plans: dict[tuple, _Plan] = {}
        self._signature: tuple = ()
        # the open round's tallied plans, and its weighted stacks' products
        self._tallied: list[_Plan] = []
        self._stacks: dict[UploadStack, tuple[_Plan, list[np.ndarray]]] = {}
        # dtype -> grow-only flat buffer the products are cut from, and how much of it the round used
        self._products: dict[np.dtype, np.ndarray] = {}
        self._products_used: dict[np.dtype, int] = {}
        # (weights, stack dtype, stack axes) -> the open round's weight columns
        self._columns: dict[tuple, np.ndarray] = {}
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
        signature = tuple((name, value.shape, value.dtype) for name, value in state.items())
        if signature != self._signature:
            self._plans.clear()
            self._signature = signature
        self._round_state = state

    def scratch_for(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The open round's scratch block under an upload of ``shape``: a tensor
        decoded right here is weighted by :meth:`add` where it lies, not copied in."""
        if self._round_state is None:
            raise RuntimeError("scratch_for called with no open round (call begin_round first)")
        region = self.region_for(name, self._round_state[name].shape, shape)
        return self._buffers[name][2][region]

    def _plan_for(self, layout: tuple) -> _Plan:
        """The (cached) plan of an upload whose tensors have ``layout``."""
        plan = self._plans.get(layout)
        if plan is None:
            terms = []
            for name, shape in layout:
                old_value = self._round_state.get(name)
                if old_value is None:
                    continue
                region = self.region_for(name, old_value.shape, shape)
                accumulator, weight_sum, scratch, _ = self._buffers[name]
                terms.append((name, accumulator[region], weight_sum[region], scratch[region]))
            plan = self._plans[layout] = _Plan(terms)
        return plan

    def _weighted(self, stack: np.ndarray, weights: tuple[float, ...], out: np.ndarray) -> np.ndarray:
        """Every row of ``stack`` times its weight, written into ``out``.

        The weights take the stack's own dtype — what a Python float
        becomes next to it — so a ``float32`` row is multiplied in
        ``float32``, as a lone upload always was, even into a ``float64``
        product.
        """
        key = (weights, stack.dtype, stack.ndim)
        column = self._columns.get(key)
        if column is None:
            column = np.array(weights, dtype=stack.dtype if stack.dtype.kind in "fc" else np.float64)
            column = self._columns[key] = column.reshape(column.shape + (1,) * (stack.ndim - 1))
        return np.multiply(stack, column, out=out, casting="unsafe")

    def _product_block(self, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised block of the round's product buffer (grow-only, reused every round)."""
        size = math.prod(shape)
        used = self._products_used.get(dtype, 0)
        buffer = self._products.get(dtype)
        if buffer is None or used + size > buffer.size:
            # blocks already handed out keep the old buffer alive until the round ends
            grown = max(used + size, 0 if buffer is None else 2 * buffer.size)
            buffer = self._products[dtype] = np.empty(grown, dtype)
        self._products_used[dtype] = used + size
        return buffer[used : used + size].reshape(shape)

    def add(self, update: ClientUpdate) -> None:
        """Accumulate one upload into the open round's partial sums.

        Per (name, element) the accumulation order over uploads equals
        the call order — the same order the one-shot :meth:`aggregate`
        walks them in — so streaming is bit-identical to one-shot.  A row
        of a stack is weighted with its whole stack, the first time one of
        them arrives; anything else is weighted alone, in the scratch.
        """
        if self._round_state is None:
            raise RuntimeError("add called with no open round (call begin_round first)")
        weight = float(update.num_samples)
        upload = update.state
        if isinstance(upload, StackRow) and len(upload.stack) > 1 and upload.stack.weights[upload.row] == weight:
            entry = self._stacks.get(upload.stack)
            if entry is None:
                entry = self._stacks[upload.stack] = self._weigh(upload.stack)
            plan, products = entry
            for (_, accumulator, _, _), product in zip(plan.terms, products):
                accumulator += product[upload.row]
        else:
            # a stack of one, through [None] views: its product goes to the scratch
            tensors = {name: np.asarray(value) for name, value in upload.items()}
            plan = self._plan_for(tuple((name, tensor.shape) for name, tensor in tensors.items()))
            for name, accumulator, _, scratch in plan.terms:
                accumulator += self._weighted(tensors[name][None], (weight,), scratch[None])[0]
        if not plan.weight:
            self._tallied.append(plan)
        plan.weight += weight

    def _weigh(self, stack: UploadStack) -> tuple[_Plan, list[np.ndarray]]:
        """A stack's plan and its weighted rows: one multiply per tensor."""
        plan = self._plan_for(stack.layout)
        products = []
        for name, accumulator, _, _ in plan.terms:
            tensor = stack.tensors[name]
            out = self._product_block(accumulator.dtype, tensor.shape)
            products.append(self._weighted(tensor, stack.weights, out))
        return plan, products

    def _close_round(self) -> None:
        """Forget the round's tallies, weight columns and weighted stacks; the product buffer stays."""
        for plan in self._tallied:
            plan.weight = 0.0
        self._tallied.clear()
        self._stacks.clear()
        self._products_used.clear()
        self._columns.clear()

    def finalize(self) -> dict[str, np.ndarray]:
        """Close the open round and return the merged global state.

        Elements not covered by any upload keep their previous value; a
        round with zero uploads returns a copy of the old state.
        """
        if self._round_state is None:
            raise RuntimeError("finalize called with no open round (call begin_round first)")
        state, self._round_state = self._round_state, None
        for plan in self._tallied:
            for _, _, weight_sum, _ in plan.terms:
                weight_sum += plan.weight
        self._close_round()
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
        self._close_round()

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
