"""Equivalence tests of the vectorised kernels against the historical
reference implementations and against oracles written here, and
workspace-reuse safety."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.dtype import default_dtype
from repro.nn.layers import BatchNorm2d, Conv2d, DepthwiseConv2d, MaxPool2d
from repro.perf.workspace import Workspace


class TestMaxPoolBackwardEquivalence:
    """Satellite: maxpool backward == 4-axis add.at scatter."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3), (3, 2), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference(self, kernel, stride, dtype):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 9, 9)).astype(dtype)
        out, cache = F.maxpool2d_forward(x, kernel, stride)
        grad_out = rng.normal(size=out.shape).astype(dtype)
        fast = F.maxpool2d_backward(grad_out, cache)
        reference = F.maxpool2d_backward_reference(grad_out, cache)
        assert fast.shape == reference.shape
        assert fast.dtype == dtype
        # accumulation order may differ where windows overlap, so the
        # comparison is allclose at dtype-appropriate resolution (exact
        # for the non-overlapping stride >= kernel cases)
        if stride >= kernel:
            assert np.array_equal(fast, reference)
        else:
            assert np.allclose(fast, reference, rtol=0, atol=np.finfo(dtype).eps * 64)

    def test_inference_cache_rejects_backward(self):
        x = np.random.default_rng(1).normal(size=(2, 2, 6, 6)).astype(np.float32)
        out, cache = F.maxpool2d_forward(x, 2, 2, need_argmax=False)
        reference, _ = F.maxpool2d_forward(x, 2, 2)
        assert np.array_equal(out, reference)
        with pytest.raises(RuntimeError):
            F.maxpool2d_backward(np.ones_like(out), cache)


def pool_oracle(x, kernel, stride):
    """Gather every window, ``np.argmax`` it, take the value it points at."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = windows.reshape(*windows.shape[:4], -1)
    argmax = flat.argmax(axis=-1)
    return np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0], argmax


def pool_input(kind, size, dtype):
    rng = np.random.default_rng(size)
    shape = (3, 4, size, size)
    if kind == "post_relu":  # windows of zeros: the tie np.argmax breaks most often
        return np.maximum(rng.normal(size=shape), 0.0).astype(dtype)
    if kind == "all_equal":
        return np.full(shape, 1.5, dtype)
    # three distinct values: nearly every window's maximum repeats
    return rng.integers(-1, 2, size=shape).astype(dtype)


class TestMaxPoolAgainstTheArgmaxOracle:
    """The running maximum returns what the window gather + ``np.argmax`` did."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3), (3, 2), (2, 1)])
    @pytest.mark.parametrize("size", [8, 9])  # 9: a ragged edge no window covers
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["post_relu", "all_equal", "repeated_maximum"])
    def test_forward_values_and_first_occurrence_argmax(self, kernel, stride, size, dtype, kind):
        x = pool_input(kind, size, dtype)
        pristine = x.copy()
        out, (x_shape, argmax, *_) = F.maxpool2d_forward(x, kernel, stride)
        expected, expected_argmax = pool_oracle(x, kernel, stride)
        assert out.dtype == dtype and x_shape == x.shape
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(argmax, expected_argmax)
        assert np.array_equal(x, pristine)
        inference, _ = F.maxpool2d_forward(x, kernel, stride, need_argmax=False)
        assert inference.tobytes() == expected.tobytes()

    def test_argmax_holds_every_position_of_a_large_window(self):
        """144 positions: an int8 argmax would wrap at 128."""
        x = np.zeros((1, 2, 24, 24), np.float32)
        x[0, 0, 11, 11] = x[0, 0, 11, 23] = x[0, 0, 23, 0] = x[0, 0, 23, 23] = 1.0
        x[0, 1] = np.arange(576, dtype=np.float32).reshape(24, 24)
        out, (_, argmax, *_) = F.maxpool2d_forward(x, 12, 12)
        expected, expected_argmax = pool_oracle(x, 12, 12)
        assert expected_argmax.max() == 143
        assert np.array_equal(argmax, expected_argmax)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3), (2, 3), (3, 2), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_the_scatter_reference(self, kernel, stride, dtype):
        x = pool_input("post_relu", 9, dtype)
        out, cache = F.maxpool2d_forward(x, kernel, stride)
        grad_out = -np.abs(np.random.default_rng(1).normal(size=out.shape)).astype(dtype)
        grad_out[0, 0, 0, 0] = 0.0
        grad_x = F.maxpool2d_backward(grad_out, cache)
        reference = F.maxpool2d_backward_reference(grad_out, cache)
        assert grad_x.dtype == dtype
        if stride >= kernel:
            # bytes, not values: array_equal would let a -0.0 through
            assert grad_x.tobytes() == reference.tobytes()
        else:
            assert np.allclose(grad_x, reference, rtol=0, atol=np.finfo(dtype).eps * 64)

    def test_a_second_forward_leaves_the_first_cache_intact(self):
        layer = MaxPool2d(2, 2)
        first = pool_input("repeated_maximum", 8, np.float32)
        layer(first)
        cache = layer._cache
        kept = cache[1].copy()
        layer(pool_input("post_relu", 8, np.float32))
        assert np.array_equal(cache[1], kept)
        assert np.array_equal(kept, pool_oracle(first, 2, 2)[1])

    def test_a_second_module_backward_starts_from_zero(self):
        """The input gradient is a workspace buffer: it must be zeroed per call."""
        layer = MaxPool2d(2, 2)
        x = pool_input("post_relu", 8, np.float32)
        grads = []
        for _ in range(2):
            out = layer(x)
            grads.append(layer.backward(np.ones_like(out)).copy())
        assert grads[0].tobytes() == grads[1].tobytes()
        assert grads[0].sum() == out.size


def batchnorm_oracle(layer, x, grad_out):
    """Train-mode forward + backward from ``x.mean``, ``x.var`` and an
    optimised ``einsum`` — the arithmetic the layer must reproduce."""
    gamma, beta = layer.weight.data, layer.bias.data
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    running_mean = layer.running_mean * (1 - layer.momentum)
    running_mean += layer.momentum * mean
    running_var = layer.running_var * (1 - layer.momentum)
    running_var += layer.momentum * var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    x_hat = np.empty(x.shape, x.dtype)
    np.subtract(x, mean[None, :, None, None], out=x_hat)
    x_hat *= inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat
    out += beta[None, :, None, None]

    m = x.size // x.shape[1]
    dot = np.einsum("nchw,nchw->c", grad_out, x_hat, optimize=True)
    grad_sum = grad_out.sum(axis=(0, 2, 3))
    grad_x = x_hat
    grad_x *= -(gamma * dot)[None, :, None, None]
    grad_x -= (gamma * grad_sum)[None, :, None, None]
    grad_x += grad_out * (m * gamma)[None, :, None, None]
    grad_x *= (inv_std / m)[None, :, None, None]
    return {
        "out": out, "running_mean": running_mean, "running_var": running_var,
        "grad_x": grad_x, "weight.grad": dot, "bias.grad": grad_sum,
    }


def channel_major(x):
    """Same values, the memory order a depthwise convolution's einsum returns."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


class TestBatchNormAgainstTheMeanVarOracle:
    """Centring once and calling the contraction directly moves no bit."""

    SHAPES = [(32, 16, 16, 16), (2, 8, 16, 16), (1, 4, 8, 8), (5, 3, 1, 1), (3, 1, 7, 7), (7, 5, 9, 9), (20, 8, 16, 16)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "channel_major"])
    def test_train_mode_forward_and_backward_are_byte_equal(self, shape, dtype, layout):
        rng = np.random.default_rng(sum(shape))
        with default_dtype(dtype):
            layer = BatchNorm2d(shape[1])
        layer.weight.data[:] = rng.normal(1.0, 0.2, size=shape[1])
        layer.bias.data[:] = rng.normal(0.0, 0.2, size=shape[1])
        x = (rng.normal(size=shape) * 3.0 + 1.0).astype(dtype)
        if layout == "channel_major":
            x = channel_major(x)
            assert not x.flags.c_contiguous or 1 in shape[:2]
        # sliced and non-contiguous, like the input gradient col2im returns
        n, c, h, w = shape
        grad_out = rng.normal(size=(n, c, h + 2, w + 2)).astype(dtype)[:, :, 1:-1, 1:-1]
        expected = batchnorm_oracle(layer, x, grad_out)

        pristine = x.copy()
        out = layer(x)
        grad_x = layer.backward(grad_out)
        actual = {
            "out": out, "running_mean": layer.running_mean, "running_var": layer.running_var,
            "grad_x": grad_x, "weight.grad": layer.weight.grad, "bias.grad": layer.bias.grad,
        }
        assert np.array_equal(x, pristine)
        for name, value in expected.items():
            assert actual[name].dtype == dtype, name
            assert np.ascontiguousarray(actual[name]).tobytes() == np.ascontiguousarray(value).tobytes(), name

    def test_alternating_layouts_on_one_layer_keep_their_own_buffers(self):
        layer = BatchNorm2d(8)
        twin = BatchNorm2d(8)
        x = np.random.default_rng(0).normal(size=(20, 8, 16, 16)).astype(np.float32)
        for batch in (x, channel_major(x), x[:7], channel_major(x)):
            assert layer(batch).tobytes() == twin(batch).tobytes()
            twin._ws.clear()  # the twin never holds a buffer from another layout
        assert layer.running_var.tobytes() == twin.running_var.tobytes()


class TestCol2ImEquivalence:
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (5, 1, 2), (3, 2, 0), (2, 2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_matches_loop(self, kernel, stride, padding, dtype):
        rng = np.random.default_rng(2)
        x_shape = (3, 4, 8, 8)
        x = rng.normal(size=x_shape).astype(dtype)
        cols, _, _ = F.im2col(x, kernel, kernel, stride, padding)
        grad_cols = rng.normal(size=cols.shape).astype(dtype)
        fast = F.col2im(grad_cols, x_shape, kernel, kernel, stride, padding)
        reference = F.col2im_reference(grad_cols, x_shape, kernel, kernel, stride, padding)
        assert np.allclose(fast, reference, rtol=0, atol=np.finfo(dtype).eps * 128)


class TestWorkspaceReuseAcrossBatchSizes:
    """Satellite: the trailing partial batch must not read stale buffers."""

    def test_workspace_reallocates_on_shape_change(self):
        ws = Workspace()
        a = ws.get("k", (4, 4), np.float32)
        assert ws.get("k", (4, 4), np.float32) is a
        b = ws.get("k", (2, 4), np.float32)
        assert b is not a and b.shape == (2, 4)
        assert ws.get("k", (2, 4), np.float64).dtype == np.float64
        z = ws.zeros("z", (3,), np.float32)
        z += 1.0
        assert np.array_equal(ws.zeros("z", (3,), np.float32), np.zeros(3, dtype=np.float32))

    @pytest.mark.parametrize("layer_factory", [
        lambda rng: Conv2d(3, 5, 3, padding=1, rng=rng),
        lambda rng: Conv2d(3, 5, 5, stride=2, padding=2, rng=rng),
        lambda rng: DepthwiseConv2d(3, 3, padding=1, rng=rng),
    ])
    def test_partial_batch_after_full_batch(self, layer_factory):
        """forward/backward on a smaller batch after a larger one must be
        bit-identical to a fresh layer that never saw the large batch."""
        rng = np.random.default_rng(3)
        warm = layer_factory(np.random.default_rng(7))
        fresh = layer_factory(np.random.default_rng(7))

        big = rng.normal(size=(8, 3, 10, 10)).astype(np.float32)
        warm(big)
        warm.backward(np.ones_like(warm(big)))
        warm.zero_grad()

        small = rng.normal(size=(3, 3, 10, 10)).astype(np.float32)
        out_warm = warm(small.copy())
        out_fresh = fresh(small.copy())
        assert np.array_equal(out_warm, out_fresh)

        grad = rng.normal(size=out_warm.shape).astype(np.float32)
        grad_warm = warm.backward(grad.copy())
        grad_fresh = fresh.backward(grad.copy())
        assert np.array_equal(grad_warm, grad_fresh)
        assert np.array_equal(warm.weight.grad, fresh.weight.grad)

    def test_alternating_batch_sizes_keep_distinct_buffers(self):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 2, 8, 8)).astype(np.float32)
        b = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        first_small = layer(b.copy()).copy()
        layer(a.copy())
        again_small = layer(b.copy())
        assert np.array_equal(first_small, again_small)


class TestBareFunctionalCallsDoNotAlias:
    def test_interleaved_forwards_keep_independent_caches(self):
        """ws=None calls must not share buffers: a second same-geometry
        forward may not corrupt the first call's cached columns."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        x1 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        x2 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        grad = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)

        _, cache_baseline = F.conv2d_forward(x1, w, None, 1, 1)
        _, gw_expected, _ = F.conv2d_backward(grad, cache_baseline)

        _, cache1 = F.conv2d_forward(x1, w, None, 1, 1)
        F.conv2d_forward(x2, w, None, 1, 1)  # same geometry, interleaved
        _, gw_actual, _ = F.conv2d_backward(grad, cache1)
        assert np.array_equal(gw_actual, gw_expected)


class TestFloat64Override:
    def test_context_builds_double_precision_layers(self):
        with default_dtype(np.float64):
            layer = Conv2d(2, 3, 3, rng=np.random.default_rng(0))
        assert layer.weight.data.dtype == np.float64
        layer32 = Conv2d(2, 3, 3, rng=np.random.default_rng(0))
        assert layer32.weight.data.dtype == np.float32
