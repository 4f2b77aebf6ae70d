"""Local training of a (sub)model on clients' data (Algorithm 1, LocalTrain).

The same routine serves AdaptiveFL and every baseline: it takes the
network for the requested channel configuration, loads the dispatched
weights, runs the paper's local SGD schedule and returns the trained state
dict together with the client's data size (used as the aggregation
weight).

:func:`train_local_models` trains K clients of one network, one set of
weights and one dataset length as one stacked pass, each bit-identical to
training alone; :func:`train_local_model` is its one-client case.

A device receives weights, it never initialises them: the network is
built once per worker thread and width spec and kept between tasks as a
tensor-free :class:`~repro.nn.module.Skeleton`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.aggregation import UploadStack
from repro.core.config import LocalTrainingConfig
from repro.data.datasets import Dataset
from repro.data.loader import DataLoader
from repro.nn.dtype import resolve_dtype
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models.spec import SlimmableArchitecture
from repro.nn.module import Skeleton
from repro.nn.optim import SGD

__all__ = ["LocalTrainingResult", "train_local_model", "train_local_models"]


class _Skeletons(threading.local):
    """This thread's skeletons, one per distinct spec seen.

    Keyed by value (a wire worker unpickles a fresh architecture with every
    task), never pickled, never shared between threads; an entry is out of
    the table while a task holds it, and a task that raises does not put
    it back.
    """

    def __init__(self) -> None:
        self.by_spec: dict[tuple, Skeleton] = {}


_SKELETONS = _Skeletons()


@dataclass
class LocalTrainingResult:
    """Output of one client's local training pass (``state`` is its row of the pass's stack)."""

    state: Mapping[str, np.ndarray]
    num_samples: int
    mean_loss: float
    num_steps: int


def train_local_model(
    architecture: SlimmableArchitecture,
    group_sizes: Mapping[str, int],
    initial_state: Mapping[str, np.ndarray],
    dataset: Dataset,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
) -> LocalTrainingResult:
    """Run the paper's local-training schedule on one client.

    ``initial_state`` must already match ``group_sizes`` (the caller slices
    the global model first — that separation keeps the data path identical
    to a real deployment, where only the pruned weights travel to the
    device).
    """
    (result,) = train_local_models(architecture, group_sizes, initial_state, [dataset], config, [rng])
    return result


def train_local_models(
    architecture: SlimmableArchitecture,
    group_sizes: Mapping[str, int],
    initial_state: Mapping[str, np.ndarray],
    datasets: Sequence[Dataset],
    config: LocalTrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> list[LocalTrainingResult]:
    """:func:`train_local_model` for K clients at once, as one stacked pass
    (:meth:`~repro.nn.module.Skeleton.check_out`).

    Every client starts from ``initial_state`` and keeps its own dataset,
    generator (initialisation draw and loader stream) and loss; equal
    dataset lengths make the batch schedules one.  Client ``k``'s result is
    bit-identical to ``train_local_model(..., datasets[k], ..., rngs[k])``;
    its ``state`` is row ``k`` (a :class:`~repro.core.aggregation.StackRow`)
    of the pass's trained :class:`~repro.core.aggregation.UploadStack`.
    """
    if min(len(dataset) for dataset in datasets) == 0:
        raise ValueError("client dataset is empty")
    if len({len(dataset) for dataset in datasets}) > 1:
        raise ValueError("clients trained as one pass need datasets of one length")
    # drawn by every client, though only the first of a spec initialises
    # weights with it: the loader shuffles on the same stream
    init_seeds = [int(rng.integers(0, 2**31 - 1)) for rng in rngs]
    spec = (architecture.signature(), tuple(sorted(group_sizes.items())), resolve_dtype())
    skeleton = _SKELETONS.by_spec.pop(spec, None)
    if skeleton is None:
        skeleton = Skeleton(architecture.build(group_sizes, rng=np.random.default_rng(init_seeds[0])))
    skeleton.check_out(init_seeds)
    try:
        results = _train_checked_out(skeleton, initial_state, datasets, config, rngs)
    finally:
        # a task that raises checks in too: its arena closes, its tree goes
        skeleton.check_in()
    _SKELETONS.by_spec[spec] = skeleton
    return results


def _train_checked_out(
    skeleton: Skeleton,
    initial_state: Mapping[str, np.ndarray],
    datasets: Sequence[Dataset],
    config: LocalTrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> list[LocalTrainingResult]:
    """The body of :func:`train_local_models`, on a checked-out skeleton."""
    skeleton.load(initial_state)
    model = skeleton.train()

    optimizer = SGD(
        skeleton.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    loss_fn = CrossEntropyLoss()
    loaders = [
        DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
        for dataset, rng in zip(datasets, rngs)
    ]

    total_loss = np.zeros(len(datasets))
    steps = 0
    for _ in range(config.local_epochs):
        for batch_index, batches in enumerate(zip(*loaders)):
            if config.max_batches_per_epoch is not None and batch_index >= config.max_batches_per_epoch:
                break
            optimizer.zero_grad()
            logits = model(np.concatenate([images for images, _ in batches]))
            losses = loss_fn(logits, np.stack([labels for _, labels in batches]))
            # nobody reads the gradient of the images: the stem skips it
            model.backward(loss_fn.backward(), input_grad=False)
            optimizer.step()
            total_loss += losses
            steps += 1
    # the stacks leave with the results: a checked-in skeleton holds none
    stack = UploadStack(skeleton.tensors(), [len(dataset) for dataset in datasets])
    return [
        LocalTrainingResult(
            state=row,
            num_samples=len(dataset),
            mean_loss=float(total_loss[client] / steps) if steps else float("nan"),
            num_steps=steps,
        )
        for client, (row, dataset) in enumerate(zip(stack.rows(), datasets))
    ]
