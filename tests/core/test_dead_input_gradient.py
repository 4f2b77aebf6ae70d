"""Dead input-gradient elimination: the trainer skips the gradient of the images.

``train_local_model`` asks the stage chain for no input gradient, so the
stem convolution skips ``W.T @ grad`` and ``col2im``.  Nothing that is
read may move: parameter gradients, the trained state and the loss are
bit-identical with and without the skip, and ``backward()`` called
plainly still returns the input gradient.
"""

import numpy as np
import pytest

from repro.core.config import LocalTrainingConfig
from repro.core.local_training import train_local_model
from repro.data.datasets import Dataset
from repro.nn.layers import Conv2d, DepthwiseConv2d
from repro.nn.models import SlimmableMobileNetV2, SlimmableResNet18, SlimmableSimpleCNN, SlimmableVGG
from repro.nn.models.spec import StagedModel
from repro.nn.module import Skeleton

ARCHITECTURES = {
    "simple_cnn": lambda: SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=16),
    "vgg16": lambda: SlimmableVGG(config="vgg16", num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1, classifier_widths=(8, 8)),
    "resnet18": lambda: SlimmableResNet18(num_classes=4, input_shape=(3, 16, 16), width_multiplier=0.125),
    "mobilenetv2": lambda: SlimmableMobileNetV2(num_classes=4, input_shape=(1, 16, 16), width_multiplier=0.25, stem_channels=8, head_channels=16),
}
CONFIG = LocalTrainingConfig(local_epochs=1, batch_size=4, max_batches_per_epoch=2)


def has_col2im_buffer(conv) -> bool:
    return any(key[0] == "col2im" for key in conv._ws._buffers)


def train_once(arch, monkeypatch, input_grad: bool):
    """One ``train_local_model`` call; returns (result, what the trained model held).

    The model is a skeleton again by the time the call returns, so its
    gradients and workspaces are read inside the call, at the moment it
    is checked back in.
    """
    images = np.random.default_rng(1).normal(size=(12, *arch.input_shape)).astype(np.float32)
    labels = np.random.default_rng(2).integers(0, arch.num_classes, size=12)
    initial = arch.build(rng=np.random.default_rng(3)).state_dict()
    held = []
    check_in = Skeleton.check_in

    def observing_check_in(self):
        stem, *rest = self.model.stages()
        inner = [
            module
            for stage in rest
            for module in stage.modules()
            if isinstance(module, DepthwiseConv2d) or (isinstance(module, Conv2d) and module.kernel_size > 1)
        ]
        held.append(
            {
                "model": self.model,
                "grads": {key: param.grad.copy() for key, param in self.model.named_parameters()},
                "stem_col2im": has_col2im_buffer(stem),
                "inner_col2im": [has_col2im_buffer(conv) for conv in inner],
            }
        )
        check_in(self)

    with monkeypatch.context() as patch:
        patch.setattr(Skeleton, "check_in", observing_check_in)
        if input_grad:
            backward = StagedModel.backward
            patch.setattr(StagedModel, "backward", lambda self, grad_out, input_grad=True: backward(self, grad_out))
        result = train_local_model(
            arch, arch.full_group_sizes(), initial, Dataset(images, labels, arch.num_classes), CONFIG,
            np.random.default_rng(4),
        )
    # one model trained (a freshly built one is also checked in once, before its first use)
    assert len({id(entry["model"]) for entry in held}) == 1
    return result, held[-1]


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
class TestDeadInputGradient:
    def test_training_is_bit_identical_with_and_without_the_input_gradient(self, name, monkeypatch):
        arch = ARCHITECTURES[name]()
        with_grad, held_with = train_once(arch, monkeypatch, input_grad=True)
        without, held_without = train_once(arch, monkeypatch, input_grad=False)

        assert without.num_steps == with_grad.num_steps == 2
        assert without.mean_loss == with_grad.mean_loss
        assert list(without.state) == list(with_grad.state)
        for key, value in with_grad.state.items():
            assert without.state[key].tobytes() == value.tobytes(), key
        # the gradients of the last step were still on the parameters
        assert list(held_without["grads"]) == list(held_with["grads"]) == list(dict(arch.build().named_parameters()))
        for key, theirs in held_with["grads"].items():
            assert held_without["grads"][key].tobytes() == theirs.tobytes(), key
            assert np.any(theirs), key

        # the stem never folded columns back into an image-shaped buffer (the
        # second call trained on the first call's skeleton: nothing was left on it) ...
        assert held_with["stem_col2im"]
        assert not held_without["stem_col2im"]
        # ... and every other im2col convolution still produced its input gradient
        assert held_without["inner_col2im"] and all(held_without["inner_col2im"])

    def test_plain_backward_still_returns_the_input_gradient(self, name):
        arch = ARCHITECTURES[name]()
        model = arch.build(rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, *arch.input_shape)).astype(np.float32)
        grad_out = np.random.default_rng(2).normal(size=(3, arch.num_classes)).astype(np.float32)

        model(x)
        grad_x = model.backward(grad_out.copy())
        assert grad_x.shape == x.shape
        reference = [param.grad.copy() for param in model.parameters()]

        model.zero_grad()
        model(x)
        assert model.backward(grad_out.copy(), input_grad=False) is None
        for param, expected in zip(model.parameters(), reference):
            assert param.grad.tobytes() == expected.tobytes()


class TestConvInputGradFlag:
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_parameter_gradients_do_not_depend_on_the_flag(self, kernel):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6)).astype(np.float32)
        grad_out = np.random.default_rng(1).normal(size=(2, 4, 6, 6)).astype(np.float32)
        full = Conv2d(3, 4, kernel, padding=kernel // 2, rng=np.random.default_rng(2))
        skipped = Conv2d(3, 4, kernel, padding=kernel // 2, rng=np.random.default_rng(2))
        full(x)
        skipped(x)
        assert full.backward(grad_out).shape == x.shape
        assert skipped.backward(grad_out, input_grad=False) is None
        assert skipped.weight.grad.tobytes() == full.weight.grad.tobytes()
        assert skipped.bias.grad.tobytes() == full.bias.grad.tobytes()
