"""Shared-trunk evaluation: one trunk forward per batch, exact parity per head.

``evaluate_heads`` scores the full model and the pruned level heads of one
global state.  Stages a head shares with the full model (same parameter
shapes, hence the same tensors) run once; everything here pins that this
is *exact* and pins the assumption it rests on — a kept activation is
never written to.
"""

import numpy as np
import pytest

from repro.core.metrics import evaluate_heads, evaluate_state
from repro.core.model_pool import ModelPool
from repro.core.pruning import slice_state_dict
from repro.data.datasets import Dataset
from repro.experiments.settings import paper_pool_config
from repro.nn.layers import BatchNorm2d, Conv2d, DepthwiseConv2d, Linear, ReLU, ReLU6
from repro.nn.models import SlimmableMobileNetV2, SlimmableResNet18, SlimmableSimpleCNN, SlimmableVGG
from repro.nn.models.mobilenet import InvertedResidual
from repro.nn.models.resnet import BasicBlock

ARCHITECTURES = {
    "simple_cnn": lambda: SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=16),
    "vgg16": lambda: SlimmableVGG(config="vgg16", num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1, classifier_widths=(8, 8)),
    "resnet18": lambda: SlimmableResNet18(num_classes=4, input_shape=(3, 16, 16), width_multiplier=0.125),
    "mobilenetv2": lambda: SlimmableMobileNetV2(num_classes=4, input_shape=(1, 16, 16), width_multiplier=0.25, stem_channels=8, head_channels=16),
}
SAMPLES = 23


def pool_heads(arch) -> dict[str, dict[str, int]]:
    """S1 / M1 / L1 of the paper's pool: the heads share their shallow layers."""
    pool = ModelPool(arch, paper_pool_config(arch))
    return {level: pool.group_sizes(config) for level, config in pool.level_heads().items()}


def disjoint_heads(arch) -> dict[str, dict[str, int]]:
    """HeteroFL-style uniform pruning: every layer shrinks, nothing is shared."""
    return {"S": arch.group_sizes_for(0.4, 0), "M": arch.group_sizes_for(0.66, 0), "L": arch.full_group_sizes()}


def twin_heads(arch) -> dict[str, dict[str, int]]:
    """S and M of identical shapes: one distinct pruned head behind two names."""
    medium = pool_heads(arch)["M"]
    return {"S": dict(medium), "M": dict(medium), "L": arch.full_group_sizes()}


HEADS = {"pool": pool_heads, "disjoint": disjoint_heads, "twins": twin_heads}


def global_state(arch) -> dict[str, np.ndarray]:
    """Random weights with non-trivial batch-norm statistics."""
    rng = np.random.default_rng(3)
    state = arch.build(rng=rng).state_dict()
    for name, value in state.items():
        if name.endswith("running_mean"):
            value += rng.normal(scale=0.2, size=value.shape)
        elif name.endswith("running_var"):
            value *= rng.uniform(0.5, 1.5, size=value.shape)
    return state


def make_test_set(arch) -> Dataset:
    images = np.random.default_rng(1).normal(size=(SAMPLES, *arch.input_shape)).astype(np.float32)
    labels = np.random.default_rng(2).integers(0, arch.num_classes, size=SAMPLES)
    return Dataset(images, labels, arch.num_classes)


def stage_shapes(stage) -> list[tuple[int, ...]]:
    return [value.shape for value in stage.state_dict().values()]


def expected_cut(full, head) -> int:
    for index, (ours, theirs) in enumerate(zip(full.stages(), head.stages())):
        if stage_shapes(ours) != stage_shapes(theirs):
            return index
    raise AssertionError("head does not differ from the full model")


def cache_key(sizes) -> tuple:
    return tuple(sorted(sizes.items()))


@pytest.mark.parametrize("heads_kind", sorted(HEADS))
@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
class TestTrunkParity:
    # 10 leaves a last partial batch of 3; 50 is one batch larger than the test set
    @pytest.mark.parametrize("batch_size", [10, 50])
    def test_equals_per_head_evaluate_state_exactly(self, name, heads_kind, batch_size):
        arch = ARCHITECTURES[name]()
        heads, state, dataset = HEADS[heads_kind](arch), global_state(arch), make_test_set(arch)
        full_result, head_results = evaluate_heads(arch, heads, state, dataset, batch_size, model_cache={})
        assert full_result == evaluate_state(arch, arch.full_group_sizes(), state, dataset, batch_size)
        assert list(head_results) == list(heads)
        for level, sizes in heads.items():
            assert head_results[level] == evaluate_state(arch, sizes, state, dataset, batch_size), level

    def test_stem_runs_once_per_batch_and_shared_stages_stay_cold(self, name, heads_kind, monkeypatch):
        arch = ARCHITECTURES[name]()
        heads, state, dataset = HEADS[heads_kind](arch), global_state(arch), make_test_set(arch)
        calls: dict[int, int] = {}
        original = Conv2d.forward

        def counting_forward(self, x):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return original(self, x)

        monkeypatch.setattr(Conv2d, "forward", counting_forward)
        cache: dict = {}
        evaluate_heads(arch, heads, state, dataset, batch_size=10, model_cache=cache)
        batches = 3

        full = cache[cache_key(arch.full_group_sizes())]
        assert calls[id(full.stages()[0])] == batches
        pruned = {key: model for key, model in cache.items() if model is not full}
        assert len(pruned) == len({cache_key(sizes) for sizes in heads.values()} - {cache_key(arch.full_group_sizes())})
        for model in pruned.values():
            cut = expected_cut(full, model)
            stem_calls = calls.get(id(model.stages()[0]), 0)
            assert stem_calls == (batches if cut == 0 else 0)
            if heads_kind == "disjoint":
                assert cut == 0
            else:
                assert cut > 0
            # below its cut a pruned head never ran: no im2col / pad / batch-norm buffer was allocated
            for stage in model.stages()[:cut]:
                for module in stage.modules():
                    if hasattr(module, "_ws"):
                        assert len(module._ws) == 0
        if heads_kind != "disjoint":
            stems = [id(model.stages()[0]) for model in cache.values()]
            assert sum(calls.get(stem, 0) for stem in stems) == batches  # once per batch, not once per head


def eval_stages():
    rng = np.random.default_rng(0)
    block = dict(mid_group="m", out_group="o", in_group="i", rng=rng)
    inverted = dict(expand_group="e", out_group="o", in_group="i", rng=rng)
    return {
        "conv3x3": (Conv2d(3, 4, 3, padding=1, rng=rng), (2, 3, 6, 6)),
        "conv1x1": (Conv2d(3, 4, 1, rng=rng), (2, 3, 6, 6)),
        "depthwise": (DepthwiseConv2d(3, 3, padding=1, rng=rng), (2, 3, 6, 6)),
        "linear": (Linear(6, 3, rng=rng), (2, 6)),
        "batchnorm": (BatchNorm2d(3), (2, 3, 6, 6)),
        "block_identity": (BasicBlock(4, 4, 4, 1, use_projection=False, **block), (2, 4, 6, 6)),
        "block_sliced_shortcut": (BasicBlock(4, 3, 2, 1, use_projection=False, **block), (2, 4, 6, 6)),
        "block_padded_shortcut": (BasicBlock(2, 3, 4, 1, use_projection=False, **block), (2, 2, 6, 6)),
        "block_projection": (BasicBlock(4, 6, 6, 2, use_projection=True, **block), (2, 4, 6, 6)),
        "inverted_residual": (InvertedResidual(4, 8, 4, 1, use_residual=True, **inverted), (2, 4, 6, 6)),
        "inverted_sliced_shortcut": (InvertedResidual(4, 8, 3, 1, use_residual=True, **inverted), (2, 4, 6, 6)),
        "inverted_strided": (InvertedResidual(4, 8, 6, 2, use_residual=False, **inverted), (2, 4, 6, 6)),
    }


class TestSavedActivationIsReadOnly:
    @pytest.mark.parametrize("kind", sorted(eval_stages()))
    def test_parameterised_stage_never_mutates_its_input_in_eval_mode(self, kind):
        stage, shape = eval_stages()[kind]
        stage.eval()
        x = np.random.default_rng(4).normal(size=shape).astype(np.float32)
        before = x.tobytes()
        stage(x)
        assert x.tobytes() == before

    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_cut_is_a_parameterised_stage_never_an_in_place_one(self, name):
        arch = ARCHITECTURES[name]()
        full = arch.build(rng=np.random.default_rng(0))
        pool = ModelPool(arch, paper_pool_config(arch))
        candidates = [pool.group_sizes(config) for config in pool.configs]
        candidates += [arch.group_sizes_for(ratio, start) for ratio in (0.4, 0.66) for start in (0, 1)]
        checked = 0
        for sizes in candidates:
            if sizes == arch.full_group_sizes():
                continue
            head = arch.build(sizes, rng=np.random.default_rng(0))
            stage = full.stages()[expected_cut(full, head)]
            assert not isinstance(stage, (ReLU, ReLU6))
            assert stage_shapes(stage), "a cut stage holds parameters"
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_heads_leave_the_trunk_logits_and_the_taps_untouched(self, name):
        arch = ARCHITECTURES[name]()
        state, images = global_state(arch), make_test_set(arch).images[:5]
        full = arch.build(rng=np.random.default_rng(0))
        full.load_state_dict(state)
        full.eval()
        heads = []
        for sizes in pool_heads(arch).values():
            if sizes == arch.full_group_sizes():
                continue
            head = arch.build(sizes, rng=np.random.default_rng(0))
            head.load_state_dict(slice_state_dict(state, arch, sizes))
            head.eval()
            heads.append((head, expected_cut(full, head)))
        taps = dict.fromkeys(cut for _, cut in heads)
        logits = full.forward(images, taps=taps)
        reference = full(images.copy())
        frozen = {cut: value.tobytes() for cut, value in taps.items()}
        for head, cut in heads:
            from_tap = head.forward(taps[cut], start=cut)
            assert from_tap.tobytes() == head(images.copy()).tobytes()
        assert logits.tobytes() == reference.tobytes()
        assert {cut: value.tobytes() for cut, value in taps.items()} == frozen
