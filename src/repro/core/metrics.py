"""Evaluation metrics: accuracy/loss of (sub)models and communication waste."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.data.datasets import Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models.spec import StagedModel
from repro.nn.module import Module

__all__ = ["evaluate_model", "evaluate_state", "evaluate_heads", "communication_waste_rate"]


def evaluate_model(model: Module, dataset: Dataset, batch_size: int = 200) -> tuple[float, float]:
    """Test accuracy and mean cross-entropy loss of a built model."""
    return _evaluate_sharing(model, [], dataset, batch_size)[0]


def _evaluate_sharing(
    trunk: Module, heads: list[tuple[StagedModel, int]], dataset: Dataset, batch_size: int
) -> list[tuple[float, float]]:
    """``(accuracy, loss)`` of ``trunk``, then of each ``(head, cut)``.

    A head does not see the images: it reads the activation the trunk had
    entering stage ``cut`` and runs only its own stages from there on.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    trunk.eval()
    for head, _ in heads:
        head.eval()
    loss_fn = CrossEntropyLoss()
    correct = [0] * (1 + len(heads))
    total_loss = [0.0] * (1 + len(heads))
    taps = dict.fromkeys(cut for _, cut in heads)
    for start in range(0, len(dataset), batch_size):
        images = dataset.images[start : start + batch_size]
        labels = dataset.labels[start : start + batch_size]
        outputs = [trunk.forward(images, taps=taps) if heads else trunk(images)]
        outputs += [head.forward(taps[cut], start=cut) for head, cut in heads]
        for index, logits in enumerate(outputs):
            total_loss[index] += loss_fn(logits, labels) * len(labels)
            correct[index] += int((logits.argmax(axis=1) == labels).sum())
    return [(hits / len(dataset), loss / len(dataset)) for hits, loss in zip(correct, total_loss)]


def _load_submodel(
    architecture,
    group_sizes: Mapping[str, int],
    state: Mapping[str, np.ndarray],
    model_cache: dict | None,
) -> StagedModel:
    """The (cached) network for ``group_sizes`` carrying ``state``'s weights."""
    from repro.core.pruning import slice_state_dict  # local import to avoid a cycle

    cache = model_cache if model_cache is not None else {}
    cache_key = tuple(sorted(group_sizes.items()))
    model = cache.get(cache_key)
    if model is None:
        model = cache[cache_key] = architecture.build(group_sizes, rng=np.random.default_rng(0))
    shapes = {name: param.data.shape for name, param in model.named_parameters()}
    shapes.update({name: buf.shape for name, buf in model.named_buffers()})
    already_sliced = all(np.asarray(state[name]).shape == shape for name, shape in shapes.items())
    if already_sliced:
        candidate = {name: np.asarray(state[name]) for name in shapes}
    else:
        candidate = slice_state_dict(state, architecture, group_sizes)
    model.load_state_dict(candidate)
    return model


def evaluate_state(
    architecture,
    group_sizes: Mapping[str, int],
    state: Mapping[str, np.ndarray],
    dataset: Dataset,
    batch_size: int = 200,
    model_cache: dict | None = None,
) -> tuple[float, float]:
    """Evaluate a state dict by building the matching submodel first.

    ``state`` may be the full global state dict (it is sliced down) or an
    already-sliced submodel state dict.  ``model_cache`` (keyed by the
    group-size configuration) lets repeated evaluations of the same
    submodel shapes reuse one built network and only reload weights,
    skipping the construction and weight-initialisation cost.
    """
    return evaluate_model(_load_submodel(architecture, group_sizes, state, model_cache), dataset, batch_size)


def _stage_shapes(stage: Module) -> list[tuple[int, ...]]:
    return [param.shape for param in stage.parameters()] + [buf.shape for _, buf in stage.named_buffers()]


def evaluate_heads(
    architecture,
    heads: Mapping[str, Mapping[str, int]],
    state: Mapping[str, np.ndarray],
    dataset: Dataset,
    batch_size: int = 200,
    model_cache: dict | None = None,
) -> tuple[tuple[float, float], dict[str, tuple[float, float]]]:
    """``(accuracy, loss)`` of the full model and of every named pruned head
    of ONE global ``state``, with one trunk forward per test batch.

    Width-wise pruning keeps every layer up to the start layer ``I``
    unpruned, so a head's leading stages have the full model's shapes; a
    prefix slice of the same shape *is* the full tensor, hence those stages
    compute bit-identical activations on the same batch.  Each head's cut
    is the first stage whose parameter/buffer shapes differ from the full
    model's: the full model runs once, the activation entering each cut is
    kept, and a head runs only its suffix from there.  A head that shares
    nothing (uniform pruning) has cut 0 and the whole chain as its suffix.
    The cut is always a parameterised stage, and those never write to
    their input, so a kept activation is read-only for everyone.
    """
    keys = {name: tuple(sorted(sizes.items())) for name, sizes in heads.items()}
    full_key = tuple(sorted(architecture.full_group_sizes().items()))
    full = _load_submodel(architecture, dict(full_key), state, model_cache)
    pruned: dict[tuple, tuple[StagedModel, int]] = {}
    for key in keys.values():
        if key == full_key or key in pruned:
            continue
        head = _load_submodel(architecture, dict(key), state, model_cache)
        pairs = zip(full.stages(), head.stages())
        cut = next(i for i, (a, b) in enumerate(pairs) if _stage_shapes(a) != _stage_shapes(b))
        pruned[key] = (head, cut)
    results = _evaluate_sharing(full, list(pruned.values()), dataset, batch_size)
    by_key = dict(zip([full_key, *pruned], results))
    return results[0], {name: by_key[key] for name, key in keys.items()}


def communication_waste_rate(sent_sizes: list[int], returned_sizes: list[int]) -> float:
    """Paper §4.4: ``1 - Σ size(returned) / Σ size(sent)``.

    Zero means every dispatched parameter came back trained; a high rate
    means devices had to discard much of what the server sent.
    """
    if len(sent_sizes) != len(returned_sizes):
        raise ValueError("sent and returned size lists must align")
    total_sent = float(sum(sent_sizes))
    if total_sent <= 0:
        raise ValueError("total dispatched size must be positive")
    total_back = float(sum(returned_sizes))
    return 1.0 - total_back / total_sent
