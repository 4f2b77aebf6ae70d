"""Streamed inference: an eval-mode convolution runs chunk by chunk.

In eval mode ``Conv2d`` unfolds each chunk of samples into a lane's
scratch and multiplies it while it is still in cache, in one lane or two,
instead of unfolding the whole batch first.  The output must be
``conv2d_forward``'s bit for bit, no workspace may keep a batch of
columns, and no eval-mode layer may keep a backward cache.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import get_algorithm
from repro.core.metrics import evaluate_heads
from repro.core.model_pool import ModelPool
from repro.data.datasets import Dataset
from repro.experiments.settings import ExperimentSetting, paper_pool_config, prepare_experiment
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.nn.models import SlimmableMobileNetV2, SlimmableResNet18, SlimmableSimpleCNN, SlimmableVGG
from repro.perf import lanes

ARCHITECTURES = {
    "simple_cnn": lambda: SlimmableSimpleCNN(num_classes=4, input_shape=(3, 16, 16), width_multiplier=0.5, hidden_features=16),
    "vgg16": lambda: SlimmableVGG(config="vgg16", num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1, classifier_widths=(8, 8)),
    "resnet18": lambda: SlimmableResNet18(num_classes=4, input_shape=(3, 16, 16), width_multiplier=0.125),
    "mobilenetv2": lambda: SlimmableMobileNetV2(num_classes=4, input_shape=(1, 16, 16), width_multiplier=0.25, stem_channels=8, head_channels=16),
}
#: the evaluation batch of every algorithm (``FederatedConfig.eval_batch_size``)
BATCH = 200
#: ``train_serial``'s setting in ``benchmarks/e2e/workloads.py``, seed 1
TRAIN_SERIAL = ExperimentSetting(
    seed=1, dataset="cifar10", model="simple_cnn", distribution="iid", transport="delta", scale="small",
    overrides={"local_epochs": 1, "max_batches_per_epoch": 3, "eval_every": 5},
)


def eval_conv(weight, bias, stride, padding) -> Conv2d:
    c_out, c_in, kernel = weight.shape[-4], weight.shape[-3], weight.shape[-1]
    conv = Conv2d(c_in, c_out, kernel, stride=stride, padding=padding)
    conv.weight.data, conv.bias.data = weight, bias
    return conv.eval()


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    padding=st.integers(0, 2),
    clients=st.sampled_from([1, 3]),
    dtype=st.sampled_from([np.float32, np.float64]),
    samples=st.sampled_from([1, 7, BATCH]),
    budget=st.sampled_from([0, 50_000, lanes.LANE_SCRATCH_BYTES]),
    seed=st.integers(0, 2**16),
)
def test_the_streamed_output_is_the_batched_output_bit_for_bit(kernel, stride, padding, clients, dtype, samples, budget, seed):
    """In one lane and in two, and in chunks of one sample, of a few, or of the budget's."""
    rng = np.random.default_rng(seed)
    stack = (clients,) if clients > 1 else ()
    x = rng.normal(size=(clients * samples, 3, 9, 9)).astype(dtype)
    weight = rng.normal(size=(*stack, 5, 3, kernel, kernel)).astype(dtype)
    bias = rng.normal(size=(*stack, 5)).astype(dtype)
    expected, _ = F.conv2d_forward(x, weight, bias, stride, padding)
    for cpus in (1, 2):
        with mock.patch.object(lanes, "usable_cpus", lambda: cpus), mock.patch.object(lanes, "LANE_SCRATCH_BYTES", budget):
            streamed = eval_conv(weight, bias, stride, padding)(x)
        assert streamed.shape == expected.shape and streamed.dtype == expected.dtype
        assert streamed.tobytes() == expected.tobytes(), cpus


def one_sample_elements(conv: Conv2d, x_shape) -> int:
    """The larger of one sample's columns and one sample's padded input."""
    _, c, h, w = x_shape
    k, p = conv.kernel_size, conv.padding
    out = F.conv_output_size(h, k, conv.stride, p) * F.conv_output_size(w, k, conv.stride, p)
    return max(c * k * k * out, c * (h + 2 * p) * (w + 2 * p))


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_no_conv_workspace_keeps_more_than_one_sample(name):
    arch = ARCHITECTURES[name]()
    model = arch.build().eval()
    inputs = {}
    for conv in (module for module in model.modules() if isinstance(module, Conv2d)):

        def recording(x, conv=conv, forward=conv.forward):
            inputs[conv] = x.shape
            return forward(x)

        conv.forward = recording
    model(np.random.default_rng(0).normal(size=(BATCH, *arch.input_shape)).astype(np.float32))
    assert inputs
    for conv, x_shape in inputs.items():
        assert x_shape[0] == BATCH
        limit = one_sample_elements(conv, x_shape)
        assert all(buffer.size <= limit for buffer in conv._ws._buffers.values()), (name, x_shape)


def test_a_cold_train_serial_evaluation_peaks_under_16_mb():
    """The full model and every level head of AdaptiveFL, each network built
    from nothing: one sample's columns per convolution, not a batch's."""
    algorithm = get_algorithm("adaptivefl").build(prepare_experiment(TRAIN_SERIAL))
    tracemalloc.start()
    try:
        algorithm.evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
class TestEvaluationKeepsNoBackwardCache:
    def heads_evaluated(self, name):
        arch = ARCHITECTURES[name]()
        pool = ModelPool(arch, paper_pool_config(arch))
        heads = {level: pool.group_sizes(config) for level, config in pool.level_heads().items()}
        rng = np.random.default_rng(1)
        images = rng.normal(size=(23, *arch.input_shape)).astype(np.float32)
        dataset = Dataset(images, rng.integers(0, arch.num_classes, size=23), arch.num_classes)
        cache: dict = {}
        evaluate_heads(arch, heads, arch.build(rng=rng).state_dict(), dataset, batch_size=10, model_cache=cache)
        return list(cache.values())

    def test_no_module_holds_a_cache_after_evaluation(self, name):
        networks = self.heads_evaluated(name)
        assert len(networks) >= 2
        held = [
            type(module).__name__
            for network in networks
            for module in network.modules()
            if getattr(module, "_cache", None) is not None or getattr(module, "_mask", None) is not None
        ]
        assert held == []

    def test_backward_after_an_eval_forward_is_refused(self, name):
        layers = [
            module
            for network in self.heads_evaluated(name)
            for module in network.modules()
            if hasattr(module, "_cache")
        ]
        assert {"Conv2d", "Linear"} <= {type(layer).__name__ for layer in layers}
        for layer in layers:
            with pytest.raises(RuntimeError, match="backward called before forward"):
                layer.backward(np.ones(1, np.float32))
