"""Trainable and stateless layers with explicit forward/backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.perf.workspace import Workspace

__all__ = [
    "Conv2d",
    "DepthwiseConv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
]


class Conv2d(Module):
    """Dense 2-D convolution over NCHW inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.has_bias = bias
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(init.uniform_bias((out_channels,), fan_in, rng))
        self._cache = None
        #: reusable per-batch buffers (im2col columns, padded input, col2im
        #: scatter target) — owned by the module so their lifetime and
        #: thread-affinity mirror the model instance
        self._ws = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.has_bias else None
        out, self._cache = F.conv2d_forward(x, self.weight.data, bias, self.stride, self.padding, self._ws)
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients; ``input_grad=False`` returns None
        instead of the input gradient (see :func:`F.conv2d_backward`)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_x, grad_w, grad_b = F.conv2d_backward(grad_out, self._cache, self._ws, input_grad)
        self.weight.grad += grad_w
        if self.has_bias:
            self.bias.grad += grad_b
        self._cache = None
        return grad_x


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution (one filter per channel), as in MobileNetV2."""

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if channels <= 0:
            raise ValueError("channel count must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (channels, 1, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.has_bias = bias
        if bias:
            fan_in = kernel_size * kernel_size
            self.bias = Parameter(init.uniform_bias((channels,), fan_in, rng))
        self._cache = None
        self._ws = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.has_bias else None
        out, self._cache = F.depthwise_conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding, self._ws
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_x, grad_w, grad_b = F.depthwise_conv2d_backward(grad_out, self._cache, self._ws)
        self.weight.grad += grad_w
        if self.has_bias:
            self.bias.grad += grad_b
        self._cache = None
        return grad_x


class Linear(Module):
    """Fully connected layer: ``y = x @ W.T + b`` with ``W`` of shape (out, in)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.uniform_bias((out_features,), in_features, rng))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        out = x @ self.weight.data.T
        if self.has_bias:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache
        self.weight.grad += grad_out.T @ x
        if self.has_bias:
            self.bias.grad += grad_out.sum(axis=0)
        self._cache = None
        return grad_out @ self.weight.data


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW tensors.

    Hot-path notes: the normalised activations and the input gradient are
    computed into module-owned workspace buffers (one fresh output
    allocation per forward), the input is centred once for both batch
    statistics, the running statistics update in place, and the backward
    contraction is one batched ``matmul`` that never materialises the
    element-wise product.  The layer never mutates its input.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))
        self._cache = None
        self._ws = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")
        if not self.training:
            # inference: fold mean/var/gamma/beta into one per-channel affine
            inv_std = 1.0 / np.sqrt(self._buffers["running_var"] + self.eps)
            scale = self.weight.data * inv_std
            shift = self.bias.data - self._buffers["running_mean"] * scale
            out = x * scale[None, :, None, None]
            out += shift[None, :, None, None]
            return out
        # the reductions ``x.mean`` and ``x.var`` run, centred once for both
        m = x.size // self.num_features
        mean = np.add.reduce(x, (0, 2, 3)) / m
        x_hat = self._ws.get(("x_hat", x.shape), x.shape, x.dtype)
        np.subtract(x, mean[None, :, None, None], out=x_hat, casting="unsafe")
        # a sum rounds in its operand's memory order: square into a buffer
        # laid out like ``x``, as ``x.var`` did (a depthwise convolution
        # hands over a channel-major array)
        layout = ("squared", x.shape, x.strides)
        squared = self._ws.lookup(layout)
        if squared is None:
            squared = self._ws.put(layout, np.empty_like(x))
        np.multiply(x_hat, x_hat, out=squared)
        var = np.add.reduce(squared, (0, 2, 3)) / m
        running_mean = self._buffers["running_mean"]
        running_var = self._buffers["running_var"]
        running_mean *= 1 - self.momentum
        running_mean += self.momentum * mean
        running_var *= 1 - self.momentum
        running_var += self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None, None]
        out = self.weight.data[None, :, None, None] * x_hat
        out += self.bias.data[None, :, None, None]
        self._cache = (x_hat, inv_std)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or module in eval mode)")
        x_hat, inv_std = self._cache
        n, c, h, w = grad_out.shape
        m = n * h * w

        # sum_nhw(grad_out * x_hat) as ``einsum(..., optimize=True)`` resolves
        # it, less its path search: two channel-major copies and one batched
        # (c, 1, m) @ (c, m, 1); plain ``einsum`` sums in another order
        dot = np.matmul(
            grad_out.transpose(1, 0, 2, 3).reshape(c, 1, m), x_hat.transpose(1, 0, 2, 3).reshape(c, m, 1)
        ).reshape(c)
        grad_sum = grad_out.sum(axis=(0, 2, 3))
        self.weight.grad += dot
        self.bias.grad += grad_sum

        gamma = self.weight.data
        # channel-wise sums of grad_xhat (= gamma * grad_out) and of
        # grad_xhat * x_hat, without the (N, C, H, W) temporaries
        sum_grad = gamma * grad_sum
        sum_grad_xhat = gamma * dot

        # grad_x = inv_std/m * (m * gamma * grad_out - sum_grad - x_hat * sum_grad_xhat)
        # assembled in place: x_hat (the cached workspace buffer) is dead
        # after this call, so it doubles as the output buffer
        grad_x = x_hat
        grad_x *= -sum_grad_xhat[None, :, None, None]
        grad_x -= sum_grad[None, :, None, None]
        scaled = self._ws.get(("grad_scaled", grad_out.shape), grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, (m * gamma)[None, :, None, None], out=scaled, casting="unsafe")
        grad_x += scaled
        grad_x *= (inv_std / m)[None, :, None, None]
        self._cache = None
        return grad_x


class ReLU(Module):
    """Rectified linear unit.

    Activations run in place by default: the input is always a dead
    intermediate (a conv/BN/linear output) in this framework, so
    clipping it directly saves a full-size allocation per call — and the
    backward pass likewise masks ``grad_out`` in place, because the
    producing layer never reads a gradient it has already handed down.
    Pass ``inplace=False`` when feeding tensors you want preserved.
    """

    def __init__(self, inplace: bool = True) -> None:
        super().__init__()
        self.inplace = inplace
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            # inference never runs backward: skip the mask entirely
            self._mask = None
            if not self.inplace:
                return np.maximum(x, 0.0)
            np.maximum(x, 0.0, out=x)
            return x
        self._mask = x > 0
        if not self.inplace:
            return x * self._mask
        np.maximum(x, 0.0, out=x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        mask, self._mask = self._mask, None
        if not self.inplace:
            return grad_out * mask
        np.multiply(grad_out, mask, out=grad_out)
        return grad_out


class ReLU6(Module):
    """ReLU clipped at 6 (MobileNetV2's activation).

    In place by default, with the same ownership contract as
    :class:`ReLU`.
    """

    def __init__(self, inplace: bool = True) -> None:
        super().__init__()
        self.inplace = inplace
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._mask = None
            if not self.inplace:
                return np.clip(x, 0.0, 6.0)
            np.clip(x, 0.0, 6.0, out=x)
            return x
        self._mask = (x > 0) & (x < 6.0)
        if not self.inplace:
            return np.clip(x, 0.0, 6.0)
        np.clip(x, 0.0, 6.0, out=x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        mask, self._mask = self._mask, None
        if not self.inplace:
            return grad_out * mask
        np.multiply(grad_out, mask, out=grad_out)
        return grad_out


class MaxPool2d(Module):
    """Max pooling (square window, no padding)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache = None
        self._ws = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cache = F.maxpool2d_forward(
            x, self.kernel_size, self.stride, self._ws, need_argmax=self.training
        )
        self._cache = cache if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = F.maxpool2d_backward(grad_out, self._cache, self._ws)
        self._cache = None
        return grad


class AvgPool2d(Module):
    """Average pooling (square window, no padding)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.avgpool2d_forward(x, self.kernel_size, self.stride)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = F.avgpool2d_backward(grad_out, self._cache)
        self._cache = None
        return grad


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._shape
        grad = np.broadcast_to(grad_out[:, :, None, None], self._shape) / (h * w)
        self._shape = None
        return grad


class Flatten(Module):
    """Reshape NCHW activations to (N, C*H*W), channel-major."""

    def __init__(self) -> None:
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out.reshape(self._shape)
        self._shape = None
        return grad


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._mask = None

    def reseed(self, rng: np.random.Generator) -> None:
        """Draw every later mask from ``rng``."""
        self._rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        grad = grad_out * self._mask
        self._mask = None
        return grad


class Identity(Module):
    """No-op layer (useful as a placeholder in slimmable architectures)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
