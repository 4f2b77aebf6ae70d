"""Stateless numerical operations used by the layers.

The convolution is implemented with the classic im2col/col2im lowering so
both forward and backward passes are expressed as large matrix multiplies,
which is the only way to get acceptable throughput out of numpy.

Hot-path design (see ``repro.perf``):

* operations that need large per-batch intermediates (`im2col` columns,
  padded inputs, scatter targets) accept an optional
  :class:`repro.perf.workspace.Workspace` and write into reusable
  buffers instead of allocating per batch — conv/pool *modules* own one
  workspace each and pass it down;
* the fold adjoint (:func:`col2im`) is a flat scatter per sample over
  precomputed indices (cached per sample geometry, shared process-wide)
  instead of a Python ``kh×kw`` loop; max pooling is a running maximum
  over its ``k²`` window positions, forward and backward — no window
  gather, no index arithmetic;
* 1×1 stride-1 unpadded convolutions skip the im2col lowering entirely
  and run as batched GEMMs on reshaped views — no column copy at all
  (the "contiguity-aware" fast path: the strides of an NCHW tensor
  already permit BLAS-friendly GEMM for pointwise kernels);
* inference (:func:`conv2d_inference`) streams the batch: each sample is
  unfolded into one sample's column buffer and multiplied while it is
  still in cache, so an evaluation network keeps one sample's columns per
  convolution instead of a batch's.  Training keeps the batch's columns,
  which the backward pass reads.

The convolutions also take a stack of K clients' weights ``(K, *shape)``
and their ``K·N`` samples client-major (:meth:`repro.nn.module.Skeleton.check_out`):
the same GEMM per sample and per-client reductions keep each client
bit-identical to training it alone.

Reference implementations of the scatter adjoints
(:func:`col2im_reference`, :func:`maxpool2d_backward_reference`) are
kept for equivalence tests and microbenchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from repro.nn.dtype import resolve_dtype
from repro.perf import lanes
from repro.perf.workspace import Workspace

__all__ = [
    "pad2d",
    "im2col",
    "col2im",
    "col2im_reference",
    "conv2d_forward",
    "conv2d_inference",
    "conv2d_backward",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "maxpool2d_backward_reference",
    "avgpool2d_forward",
    "avgpool2d_backward",
    "softmax",
    "log_softmax",
    "one_hot",
    "conv_output_size",
]

#: immutable precomputed scatter-index arrays, keyed by one sample's
#: geometry (any batch size reuses them).  Shared process-wide (read-only
#: after construction, so thread-safe) — worker processes build a fresh
#: model per task but pay for index construction only once per conv geometry.
_SCATTER_INDEX_CACHE: dict[tuple, np.ndarray] = {}


def _owned_or_fresh(ws: "Workspace | None") -> Workspace:
    """The caller's workspace, or a throwaway one for direct functional calls.

    ``ws=None`` must NOT share a process-wide workspace: two interleaved
    calls with the same geometry would alias one buffer and silently
    corrupt a cached ``cols`` between a forward and its backward.  A
    fresh workspace degrades to plain allocation, which is the historical
    (correct) behaviour for the bare functional API.
    """
    return ws if ws is not None else Workspace()


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size ({out}) for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad2d(x: np.ndarray, padding: int, ws: Workspace | None = None) -> np.ndarray:
    """Zero-pad the two trailing spatial dimensions of an NCHW tensor."""
    if padding == 0:
        return x
    if ws is None:
        return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    padded = ws.get(("pad2d", x.shape), (n, c, h + 2 * padding, w + 2 * padding), x.dtype)
    padded.fill(0)
    padded[:, :, padding:-padding, padding:-padding] = x
    return padded


def _patch_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided sliding-window view of shape (N, C, out_h, out_w, kh, kw)."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s = x.strides
    shape = (n, c, out_h, out_w, kh, kw)
    strides = (s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3])
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold an NCHW tensor into per-sample column matrices.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has the batched
    "NC layout" ``(N, C * kh * kw, out_h * out_w)``: one C-contiguous
    strided gather into the (reusable) workspace buffer whose innermost
    copied axis is the full output row — far longer contiguous runs than
    the classic ``(N·P, C·k²)`` layout — and whose GEMMs
    (``weight @ cols``) produce *contiguous NCHW* outputs with no
    transposed views downstream.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    ws = _owned_or_fresh(ws)
    xp = pad2d(x, padding, ws)
    patches = _patch_view(xp, kh, kw, stride)

    cols = ws.get(
        ("im2col", x.shape, kh, kw, stride, padding), (n, c * kh * kw, out_h * out_w), x.dtype
    )
    # one strided gather: (N, C, oh, ow, kh, kw) -> (N, C, kh, kw, oh, ow)
    np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), patches.transpose(0, 1, 4, 5, 2, 3))
    return cols, out_h, out_w


def _col2im_indices(
    sample_shape: tuple[int, int, int], kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Flat scatter indices mapping one sample's im2col column elements into
    its padded input, laid out like that sample's ``cols``: (C, kh, kw, oh, ow)."""
    key = ("col2im", sample_shape, kh, kw, stride, padding)
    cached = _SCATTER_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    c, h, w = sample_shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    oi = np.arange(out_h, dtype=np.intp)
    oj = np.arange(out_w, dtype=np.intp)
    ci = np.arange(c, dtype=np.intp)
    ki = np.arange(kh, dtype=np.intp)
    kj = np.arange(kw, dtype=np.intp)
    # rows/cols of each column element inside the padded frame,
    # iterated in (C, kh, kw, oh, ow) order to match the NC layout
    rows = oi[None, None, None, :, None] * stride + ki[None, :, None, None, None]
    cols = oj[None, None, None, None, :] * stride + kj[None, None, :, None, None]
    indices = (ci[:, None, None, None, None] * hp + rows) * wp + cols  # (c, kh, kw, oh, ow)
    indices = np.broadcast_to(indices, (c, kh, kw, out_h, out_w)).reshape(-1)
    _SCATTER_INDEX_CACHE[key] = indices
    return indices


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Fold a column matrix back into an NCHW tensor, accumulating overlaps.

    This is the adjoint of :func:`im2col` (it produces the gradient with
    respect to the convolution input), vectorised as one ``np.add.at``
    scatter per sample over precomputed indices.
    """
    return _fold(cols.reshape(x_shape[0], -1), cols.dtype, x_shape, kh, kw, stride, padding, ws)


def _fold(sample_cols: Iterable[np.ndarray], dtype, x_shape, kh, kw, stride, padding, ws) -> np.ndarray:
    """:func:`col2im` of the column matrices of the samples, one at a time.

    The indices are one sample's: a batch-wide index array would be as
    large as the columns, cached once per batch size.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    indices = _col2im_indices(x_shape[1:], kh, kw, stride, padding)
    xp = _owned_or_fresh(ws).zeros(("col2im", x_shape, kh, kw, stride, padding), (n, c * hp * wp), dtype)
    for sample, cols in zip(xp, sample_cols):
        np.add.at(sample, indices, cols.reshape(-1))
    xp = xp.reshape(n, c, hp, wp)
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def col2im_reference(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """The historical ``kh×kw``-loop col2im (kept for equivalence tests).

    Accepts the same NC-layout ``(N, C·kh·kw, oh·ow)`` columns as
    :func:`col2im` but folds them with the original strided-slice loop.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding

    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            xp[:, :, i:i_max:stride, j:j_max:stride] += patches[:, :, i, j]
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def _is_pointwise(kh: int, kw: int, stride: int, padding: int) -> bool:
    return kh == 1 and kw == 1 and stride == 1 and padding == 0


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, tuple]:
    """Standard (dense) 2-D convolution forward pass.

    ``weight`` has shape ``(C_out, C_in, kh, kw)``, or ``(K, C_out, C_in,
    kh, kw)`` for a client stack.  Returns the output and a cache used by
    :func:`conv2d_backward`.
    """
    c_out, c_in, kh, kw = weight.shape[-4:]
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {c_in}")
    w_mat = weight.reshape(-1, 1, c_out, c_in * kh * kw)
    if _is_pointwise(kh, kw, stride, padding):
        # 1x1 fast path: the NCHW input already is its own column matrix
        out_h, out_w = x.shape[2], x.shape[3]
        cols = x.reshape(x.shape[0], c_in, out_h * out_w)
    else:
        cols, out_h, out_w = im2col(x, kh, kw, stride, padding, ws)
    cols = cols.reshape(w_mat.shape[0], -1, *cols.shape[1:])
    # batched GEMM over the NC layout: (K, 1, c_out, C·k²) @ (K, N, C·k², P)
    out = np.matmul(w_mat, cols)
    if bias is not None:
        out += bias.reshape(-1, 1, c_out, 1)
    out = out.reshape(x.shape[0], c_out, out_h, out_w)
    cache = (x.shape, cols, weight, stride, padding)
    return out, cache


def conv2d_inference(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> np.ndarray:
    """:func:`conv2d_forward`'s output, bit for bit, with no backward cache
    and no batch of columns: the batch is cut into chunks that each fit a
    lane's scratch (:mod:`repro.perf.lanes`), and each chunk is unfolded
    and multiplied while it is still in cache, in one of two lanes.

    The batched ``matmul`` of :func:`conv2d_forward` runs one GEMM per
    sample, and so does a chunk's: the same GEMM on the same operands
    whatever the chunk or the lane, so no bit moves.
    """
    c_out, c_in, kh, kw = weight.shape[-4:]
    if _is_pointwise(kh, kw, stride, padding):
        return conv2d_forward(x, weight, bias, stride, padding)[0]
    n, c, h, w = x.shape
    if c != c_in:
        raise ValueError(f"input has {c} channels, weight expects {c_in}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    w_mat = weight.reshape(-1, c_out, c_in * kh * kw)
    per_client, rest = divmod(n, w_mat.shape[0])
    if rest:
        raise ValueError(f"{n} samples do not split over a stack of {w_mat.shape[0]} clients")
    out = np.empty((n, c_out, out_h * out_w), np.result_type(w_mat, x))
    cols_size = c_in * kh * kw * out_h * out_w
    frame_shape = (c, h + 2 * padding, w + 2 * padding) if padding else (0, 0, 0)
    sample_size = cols_size + math.prod(frame_shape)
    chunk = lanes.chunk_samples(sample_size * x.itemsize, per_client)
    # a chunk never straddles two clients of a stack: it has one weight
    spans = [
        (start, min(start + chunk, end))
        for end in range(per_client, n + 1, per_client or 1)
        for start in range(end - per_client, end, chunk)
    ]
    if not padding:
        patches = _patch_view(x, kh, kw, stride).transpose(0, 1, 4, 5, 2, 3)

    def open_lane() -> Callable[[int], None]:
        nbytes = chunk * sample_size * x.itemsize
        scratch = lanes.lane_scratch(nbytes)[:nbytes].view(x.dtype)
        cols = scratch[: chunk * cols_size].reshape(chunk, c_in * kh * kw, out_h * out_w)
        gather = cols.reshape(chunk, c_in, kh, kw, out_h, out_w)
        if padding:
            # the chunk's padded frames: the border is zeroed once per lane
            frame = scratch[chunk * cols_size :].reshape(chunk, *frame_shape)
            frame.fill(0)
            interior = frame[:, :, padding:-padding, padding:-padding]
            framed = _patch_view(frame, kh, kw, stride).transpose(0, 1, 4, 5, 2, 3)

        def run(index: int) -> None:
            start, stop = spans[index]
            m = stop - start
            if padding:
                np.copyto(interior[:m], x[start:stop])
                np.copyto(gather[:m], framed[:m])
            else:
                np.copyto(gather[:m], patches[start:stop])
            np.matmul(w_mat[start // per_client], cols[:m], out=out[start:stop])
            if bias is not None:
                out[start:stop] += biases[start // per_client]

        return run

    if bias is not None:
        biases = bias.reshape(-1, c_out, 1)
    lanes.run_in_lanes(open_lane, len(spans))
    return out.reshape(n, c_out, out_h, out_w)


def conv2d_backward(
    grad_out: np.ndarray, cache: tuple, ws: Workspace | None = None, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.  ``input_grad=False``
    skips the ``W.T @ grad`` GEMM and the :func:`col2im` fold and returns
    ``grad_x=None`` — for a stem convolution, whose input gradient is the
    gradient of the images and is read by nobody.
    """
    x_shape, cols, weight, stride, padding = cache
    c_out, c_in, kh, kw = weight.shape[-4:]

    # NC layout throughout: grad_out (K, N, c_out, P), cols (K, N, C·k², P)
    grad_flat = grad_out.reshape(*cols.shape[:2], c_out, -1)
    grad_bias = grad_flat.sum(axis=(1, 3)).reshape(weight.shape[:-3])
    grad_w = np.matmul(grad_flat, cols.swapaxes(2, 3)).sum(axis=1).reshape(weight.shape)
    if not input_grad:
        return None, grad_w, grad_bias
    w_t = weight.reshape(-1, c_out, c_in * kh * kw).swapaxes(1, 2)  # (K, C·k², c_out)
    if _is_pointwise(kh, kw, stride, padding):
        return np.matmul(w_t[:, None], grad_flat).reshape(x_shape), grad_w, grad_bias
    # each sample's W.T @ grad is folded as soon as it is made: the column
    # gradient of a whole (stacked) batch never exists at once
    per_client = grad_flat.shape[1]
    grad_cols = (
        np.matmul(w_t[index // per_client], grad)
        for index, grad in enumerate(grad_flat.reshape(-1, *grad_flat.shape[2:]))
    )
    grad_x = _fold(grad_cols, np.result_type(weight, grad_out), x_shape, kh, kw, stride, padding, ws)
    return grad_x, grad_w, grad_bias


def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, tuple]:
    """Depthwise 2-D convolution (one filter per input channel).

    ``weight`` has shape ``(C, 1, kh, kw)``, or ``(K, C, 1, kh, kw)`` for a
    client stack; channel ``c`` of the output is produced only from channel
    ``c`` of the input, as used by MobileNetV2.  The contractions run one
    ``einsum`` per client: a stacked ``einsum`` is not proven bit-equal.
    """
    n, c = x.shape[:2]
    if weight.shape[-4] != c or weight.shape[-3] != 1:
        raise ValueError(f"depthwise weight shape {weight.shape} incompatible with {c} input channels")
    kh, kw = weight.shape[-2:]
    w_mat = weight.reshape(-1, c, kh * kw)
    clients = w_mat.shape[0]
    cols, out_h, out_w = im2col(x, kh, kw, stride, padding, ws)
    # cols: (K·N, C*kh*kw, P) -> (K, N, C, kh*kw, P)
    cols_c = cols.reshape(clients, n // clients, c, kh * kw, -1)
    # channel-major, the memory order einsum gives one client: what the
    # batch-norm statistics after this layer are rounded in
    out = np.empty((c, n, out_h * out_w), np.result_type(w_mat, cols)).transpose(1, 0, 2)
    for client, rows in enumerate(np.split(out, clients)):
        rows[...] = np.einsum("ck,nckp->ncp", w_mat[client], cols_c[client], optimize=True)
    if bias is not None:
        out.reshape(clients, n // clients, c, -1)[...] += bias.reshape(clients, 1, c, 1)
    out = out.reshape(n, c, out_h, out_w)
    cache = (x.shape, cols_c, weight, stride, padding)
    return out, cache


def depthwise_conv2d_backward(
    grad_out: np.ndarray, cache: tuple, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    x_shape, cols_c, weight, stride, padding = cache
    clients, n, c, taps, _ = cols_c.shape
    kh, kw = weight.shape[-2:]
    w_mat = weight.reshape(clients, c, taps)

    grad_flat = grad_out.reshape(clients, n, c, -1)
    grad_bias = grad_flat.sum(axis=(1, 3)).reshape(weight.shape[:-3])
    grad_w = np.stack(
        [np.einsum("ncp,nckp->ck", grad_flat[k], cols_c[k], optimize=True) for k in range(clients)]
    ).reshape(weight.shape)
    grad_cols_c = np.stack(
        [np.einsum("ncp,ck->nckp", grad_flat[k], w_mat[k], optimize=True) for k in range(clients)]
    )
    grad_cols = grad_cols_c.reshape(clients * n, c * kh * kw, -1)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding, ws)
    return grad_x, grad_w, grad_bias


def _pool_windows(x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int):
    """``(position, strided view of that element of every window)`` in the
    row-major order ``np.argmax`` scans a window in."""
    for position in range(kernel * kernel):
        i, j = divmod(position, kernel)
        yield position, x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]


def maxpool2d_forward(
    x: np.ndarray,
    kernel: int,
    stride: int,
    ws: Workspace | None = None,
    need_argmax: bool = True,
) -> tuple[np.ndarray, tuple]:
    """Max pooling forward pass (no padding).

    A running maximum over the ``kernel²`` window positions.  ``argmax``
    is the running maximum of ``position × (window > out)``: the last
    position that *strictly* beat the running maximum is the first
    occurrence of the window's maximum, which is what ``np.argmax``
    returns on ties (windows of post-ReLU zeros are the common case).
    ``need_argmax=False`` (inference) skips that bookkeeping — the
    returned cache is then unusable for :func:`maxpool2d_backward`.

    A NaN in a window still yields NaN (``np.maximum`` propagates it), but
    the position its gradient is routed to is unspecified.
    """
    n, c, h, w = x.shape
    shape = (n, c, conv_output_size(h, kernel, stride, 0), conv_output_size(w, kernel, stride, 0))
    out = np.empty(shape, x.dtype)
    argmax = None
    if need_argmax:
        # the cache outlives this call (a second forward must not rewrite
        # it), so it is the one array not taken from the workspace
        argmax = np.zeros(shape, np.min_scalar_type(kernel * kernel - 1))
        ws = _owned_or_fresh(ws)
        plane = ws.get(("maxpool_plane", shape), shape, x.dtype)
        beat_at = ws.get(("maxpool_beat_at", shape), shape, argmax.dtype)
    for position, window in _pool_windows(x, kernel, stride, *shape[2:]):
        if position == 0:
            np.copyto(out, window)
            continue
        if need_argmax:
            # read twice: one contiguous copy is cheaper than a second
            # ufunc pass over the strided view
            np.copyto(plane, window)
            window = plane
            np.greater(window, out, out=beat_at)
            beat_at *= position
            np.maximum(argmax, beat_at, out=argmax)
        np.maximum(out, window, out=out)
    return out, (x.shape, argmax, kernel, stride)


def maxpool2d_backward(grad_out: np.ndarray, cache: tuple, ws: Workspace | None = None) -> np.ndarray:
    """Backward pass of :func:`maxpool2d_forward`.

    Position by position, ``grad_out × (argmax == position)`` is added
    onto the strided view of a zeroed input gradient: one gradient lands
    per window, and overlapping windows (``stride < kernel``) accumulate.
    """
    x_shape, argmax, kernel, stride = cache
    if argmax is None:
        raise RuntimeError("maxpool forward ran without argmax (inference mode); no backward possible")
    ws = _owned_or_fresh(ws)
    grad_x = ws.zeros(("maxpool_grad", x_shape), x_shape, grad_out.dtype)
    routed = ws.get(("maxpool_routed", grad_out.shape), grad_out.shape, grad_out.dtype)
    for position, window in _pool_windows(grad_x, kernel, stride, *grad_out.shape[2:]):
        np.equal(argmax, position, out=routed)
        routed *= grad_out
        window += routed
    return grad_x


def maxpool2d_backward_reference(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """The historical 4-axis fancy-index ``np.add.at`` scatter (kept for
    the equivalence test against :func:`maxpool2d_backward`)."""
    x_shape, argmax, kernel, stride = cache
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)

    ki = argmax // kernel
    kj = argmax % kernel
    oi = np.arange(out_h, dtype=np.intp)[None, None, :, None]
    oj = np.arange(out_w, dtype=np.intp)[None, None, None, :]
    rows = oi * stride + ki
    cols = oj * stride + kj
    ni = np.arange(n, dtype=np.intp)[:, None, None, None]
    ci = np.arange(c, dtype=np.intp)[None, :, None, None]
    np.add.at(grad_x, (ni, ci, rows, cols), grad_out)
    return grad_x


def avgpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, ws: Workspace | None = None
) -> tuple[np.ndarray, tuple]:
    """Average pooling forward pass (no padding)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    patches = _patch_view(x, kernel, kernel, stride)
    out = patches.mean(axis=(4, 5))
    cache = (x.shape, kernel, stride)
    return out, cache


def avgpool2d_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Backward pass of :func:`avgpool2d_forward`."""
    x_shape, kernel, stride = cache
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    share = grad_out / (kernel * kernel)
    if stride >= kernel:
        # non-overlapping windows: one broadcast assignment into a strided view
        s = grad_x.strides
        view = np.lib.stride_tricks.as_strided(
            grad_x,
            shape=(n, c, out_h, kernel, out_w, kernel),
            strides=(s[0], s[1], s[2] * stride, s[2], s[3] * stride, s[3]),
        )
        view[:] = share[:, :, :, None, :, None]
        return grad_x
    for i in range(kernel):
        for j in range(kernel):
            grad_x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += share
    return grad_x


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=resolve_dtype())
    out[np.arange(labels.shape[0], dtype=np.intp), labels] = 1.0
    return out
