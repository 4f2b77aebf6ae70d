"""Trainable and stateless layers with explicit forward/backward passes.

A layer's tensors may be a stack of K clients' (``Skeleton.check_out``):
``Conv2d``, ``Linear`` and ``BatchNorm2d`` batch over the client axis,
``Dropout`` and ``DepthwiseConv2d`` loop over it, per-sample layers never
see it.
"""

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
        if not self.training:
            # inference never runs backward: stream the batch in chunks, keep no cache
            self._cache = None
            return F.conv2d_inference(x, self.weight.data, bias, self.stride, self.padding)
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
        out, cache = F.depthwise_conv2d_forward(x, self.weight.data, bias, self.stride, self.padding, self._ws)
        # not streamed like Conv2d: a one-sample einsum sums in another order
        self._cache = cache if self.training else None
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
        weight = self.weight.data.reshape(-1, self.out_features, self.in_features)
        x = x.reshape(weight.shape[0], -1, self.in_features)
        self._cache = x if self.training else None
        out = np.matmul(x, weight.swapaxes(1, 2))
        if self.has_bias:
            out += self.bias.data.reshape(-1, 1, self.out_features)
        return out.reshape(-1, self.out_features)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache
        grad_out = grad_out.reshape(x.shape[0], -1, self.out_features)
        self.weight.grad += np.matmul(grad_out.swapaxes(1, 2), x).reshape(self.weight.grad.shape)
        if self.has_bias:
            self.bias.grad += grad_out.sum(axis=1).reshape(self.bias.grad.shape)
        self._cache = None
        weight = self.weight.data.reshape(-1, self.out_features, self.in_features)
        return np.matmul(grad_out, weight).reshape(-1, self.in_features)


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

    def _per_client(self, tensor: np.ndarray) -> np.ndarray:
        """A channel vector (or K) as ``(K, 1, C, 1, 1)``, against a ``(K, N, C, H, W)`` batch."""
        return tensor.reshape(-1, 1, self.num_features, 1, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")
        gamma, beta = self._per_client(self.weight.data), self._per_client(self.bias.data)
        running_mean = self._per_client(self._buffers["running_mean"])
        running_var = self._per_client(self._buffers["running_var"])
        batch = x.reshape(gamma.shape[0], -1, *x.shape[1:])
        if not self.training:
            # inference: fold mean/var/gamma/beta into one per-channel affine
            inv_std = 1.0 / np.sqrt(running_var + self.eps)
            scale = gamma * inv_std
            shift = beta - running_mean * scale
            out = batch * scale
            out += shift
            return out.reshape(x.shape)
        # the reductions ``x.mean`` and ``x.var`` run, centred once for both
        m = batch[0].size // self.num_features
        mean = np.add.reduce(batch, (1, 3, 4), keepdims=True) / m
        x_hat = self._ws.get(("x_hat", batch.shape), batch.shape, x.dtype)
        np.subtract(batch, mean, out=x_hat, casting="unsafe")
        # a sum rounds in its operand's memory order: square into a buffer
        # laid out like ``x``, as ``x.var`` did (a depthwise convolution
        # hands over a channel-major array)
        squared = self._ws.get_like(("squared", batch.shape, batch.strides), batch)
        np.multiply(x_hat, x_hat, out=squared)
        var = np.add.reduce(squared, (1, 3, 4), keepdims=True) / m
        running_mean *= 1 - self.momentum
        running_mean += self.momentum * mean
        running_var *= 1 - self.momentum
        running_var += self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        out = gamma * x_hat
        out += beta
        self._cache = (x_hat, inv_std)
        return out.reshape(x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or module in eval mode)")
        x_hat, inv_std = self._cache
        clients, n, c, h, w = x_hat.shape
        m = n * h * w
        grad = grad_out.reshape(x_hat.shape)

        # sum_nhw(grad_out * x_hat) as ``einsum(..., optimize=True)`` resolves
        # it, less its path search: two channel-major copies and one batched
        # (K, c, 1, m) @ (K, c, m, 1); plain ``einsum`` sums in another order
        dot = np.matmul(
            grad.transpose(0, 2, 1, 3, 4).reshape(clients, c, 1, m),
            x_hat.transpose(0, 2, 1, 3, 4).reshape(clients, c, m, 1),
        ).reshape(clients, 1, c, 1, 1)
        grad_sum = np.add.reduce(grad, (1, 3, 4), keepdims=True)
        self.weight.grad += dot.reshape(self.weight.grad.shape)
        self.bias.grad += grad_sum.reshape(self.bias.grad.shape)

        gamma = self._per_client(self.weight.data)
        # channel-wise sums of grad_xhat (= gamma * grad_out) and of
        # grad_xhat * x_hat, without the (N, C, H, W) temporaries
        sum_grad = gamma * grad_sum
        sum_grad_xhat = gamma * dot

        # grad_x = inv_std/m * (m * gamma * grad_out - sum_grad - x_hat * sum_grad_xhat)
        # assembled in place: x_hat (the cached workspace buffer) is dead
        # after this call, so it doubles as the output buffer
        grad_x = x_hat
        grad_x *= -sum_grad_xhat
        grad_x -= sum_grad
        scaled = self._ws.get(("grad_scaled", grad.shape), grad.shape, grad_out.dtype)
        np.multiply(grad, m * gamma, out=scaled, casting="unsafe")
        grad_x += scaled
        grad_x *= inv_std / m
        self._cache = None
        return grad_x.reshape(grad_out.shape)


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
        out, cache = F.avgpool2d_forward(x, self.kernel_size, self.stride)
        self._cache = cache if self.training else None
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
    """Inverted dropout; identity in eval mode.

    One stream per client: a stack of K clients draws client ``k``'s mask,
    over its own rows of the batch, from the ``k``-th stream.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rngs = [rng if rng is not None else np.random.default_rng(0)]
        self._mask = None

    def reseed(self, rngs: list[np.random.Generator]) -> None:
        """Draw every later mask of client ``k`` from ``rngs[k]``."""
        self._rngs = list(rngs)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        # in the activations' dtype: a float64 mask would promote them
        self._mask = np.empty(x.shape, x.dtype)
        for rows, rng in zip(np.split(self._mask, len(self._rngs)), self._rngs):
            rows[...] = rng.random(rows.shape) < keep
        self._mask /= keep
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
