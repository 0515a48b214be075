"""Test-side oracle: the composed spellings the fused autograd nodes replaced.

Until PR 17 ``BatchNorm``, ``conv2d`` and ``mean_over``/``sum_over`` were
written as chains of primitive :class:`~repro.tensor.Tensor` ops (~17 graph
nodes per batch-norm layer), and until PR 24 so were ``Linear`` (+ ReLU)
and ``bce_with_logits`` (11 nodes).  ``repro.tensor.ops`` now builds one
node per layer with a hand-written backward; these are the old
definitions, kept verbatim as the reference the fused nodes must match
**bit for bit** — output, every gradient, and the order in which leaves
receive theirs.  Likewise the pre-PR-17 bodies of the two kernels whose
bookkeeping changed.

Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.tensor.ops import _conv_geometry, concat
from repro.tensor.tensor import Tensor


# ---------------------------------------------------------------------------
# reductions over multiple axes
# ---------------------------------------------------------------------------


def sum_over(x: Tensor, axes: Union[int, Tuple[int, ...]], keepdims: bool = False) -> Tensor:
    if isinstance(axes, int):
        axes = (axes,)
    out = x
    for axis in sorted(axes, reverse=True):
        out = out.sum(axis=axis, keepdims=keepdims)
    return out


def mean_over(x: Tensor, axes: Union[int, Tuple[int, ...]], keepdims: bool = False) -> Tensor:
    if isinstance(axes, int):
        axes = (axes,)
    count = 1
    for axis in axes:
        count *= x.shape[axis]
    return sum_over(x, axes, keepdims=keepdims) * (1.0 / count)


# ---------------------------------------------------------------------------
# batch normalisation (training mode), as BatchNorm2d/BatchNorm1d spelled it
# ---------------------------------------------------------------------------


def batch_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float, axes: Tuple[int, ...]
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """``weight``/``bias`` already broadcast against ``x`` (the layer reshapes them)."""
    mean = mean_over(x, axes, keepdims=True)
    centered = x - mean
    var = mean_over(centered * centered, axes, keepdims=True)
    inv_std = (var + eps) ** -0.5
    return centered * inv_std * weight + bias, mean.data, var.data


# ---------------------------------------------------------------------------
# linear (+ ReLU) and binary cross-entropy, as nn.Linear / nn.loss spelled them
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor], relu: bool = False) -> Tensor:
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out.relu() if relu else out


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    t = Tensor(np.asarray(targets, dtype=np.float32))
    x = logits
    relu_x = x.relu()
    # -|x| built so its gradient (-sign(x)) flows through x
    neg_abs = x * Tensor(np.sign(-x.data))
    log_term = (neg_abs.exp() + 1.0).log()
    return (relu_x - x * t + log_term).mean()


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def getitem_add_at(x: Tensor, index) -> Tensor:
    """``x[index]`` whose backward scatters with ``np.add.at`` for every index kind."""
    out = x._make(x.data[index], (x,))

    def _backward() -> None:
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            np.add.at(grad, index, out.grad)
            x._accumulate(grad)

    out._backward = _backward
    return out


def chunk(x: Tensor, chunks: int, axis: int = 1) -> Tuple[Tensor, ...]:
    step = x.shape[axis] // chunks
    parts = []
    for i in range(chunks):
        slicer = [slice(None)] * x.ndim
        slicer[axis] = slice(i * step, (i + 1) * step)
        parts.append(getitem_add_at(x, tuple(slicer)))
    return tuple(parts)


# ---------------------------------------------------------------------------
# im2col / conv2d
# ---------------------------------------------------------------------------


def _im2col_forward(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    n, c, h, w = x.shape
    out_h, out_w = _conv_geometry(h, w, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    n, c, h, w = x_shape
    grad_padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for ki in range(kh):
        for kj in range(kw):
            grad_padded[
                :, :, ki : ki + out_h * stride : stride, kj : kj + out_w * stride : stride
            ] += cols6[:, :, ki, kj]
    if pad:
        return grad_padded[:, :, pad:-pad, pad:-pad]
    return grad_padded


def im2col(x: Tensor, kh: int, kw: int, stride: int = 1, pad: int = 0) -> Tuple[Tensor, Tuple[int, int]]:
    cols_data, (out_h, out_w) = _im2col_forward(x.data, kh, kw, stride, pad)
    out = x._make(cols_data, (x,))

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(_col2im(out.grad, x.data.shape, kh, kw, stride, pad, out_h, out_w))

    out._backward = _backward
    return out, (out_h, out_w)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    n, c_in, _, _ = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if groups == 1:
        cols, (out_h, out_w) = im2col(x, kh, kw, stride, padding)
        w2d = weight.reshape(c_out, c_in_g * kh * kw)
        out = w2d.matmul(cols)  # (n, c_out, out_h*out_w) via broadcasting
        out = out.reshape(n, c_out, out_h, out_w)
    else:
        group_outs = []
        x_groups = chunk(x, groups, axis=1)
        w_groups = chunk(weight, groups, axis=0)
        for xg, wg in zip(x_groups, w_groups):
            cols, (out_h, out_w) = im2col(xg, kh, kw, stride, padding)
            w2d = wg.reshape(c_out // groups, c_in_g * kh * kw)
            og = w2d.matmul(cols).reshape(n, c_out // groups, out_h, out_w)
            group_outs.append(og)
        out = concat(group_outs, axis=1)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def matmul_splitk(a: np.ndarray, b: np.ndarray, block: int) -> np.ndarray:
    """Split-K GEMM with both operands copied and partials summed out of place."""
    a = a.astype(np.float32)
    b = b.astype(np.float32)
    k = a.shape[-1]
    out = None
    for start in range(0, k, block):
        part = np.matmul(a[..., start : start + block], b[..., start : start + block, :])
        out = part if out is None else out + part
    assert out is not None
    return out


def reduce_sequential(x: np.ndarray, axis: int, keepdims: bool) -> np.ndarray:
    """D2 single-axis reduction through ``moveaxis``/``expand_dims``."""
    x = np.asarray(x, dtype=np.float32)
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    acc = np.zeros(moved.shape[:-1], dtype=np.float32)
    block = 64
    for start in range(0, n, block):
        acc = acc + np.add.reduce(moved[..., start : start + block], axis=-1, dtype=np.float32)
    if keepdims:
        acc = np.expand_dims(acc, axis)
    return acc
