"""Higher-level autograd operations: conv, pooling, softmax, embedding, ...

These build on :class:`repro.tensor.Tensor`.  Two routing decisions matter
for the paper's determinism story:

- ``conv2d`` lowers to im2col + the registry GEMM, so convolutions inherit
  the executing device's vendor dialect — this is why conv-heavy models pay
  the big D2 penalty in Fig. 12 (the agnostic GEMM replaces the vendor one).
- ``embedding`` backward dispatches through :func:`repro.tensor.kernels.scatter_add`,
  which is the "atomic vs deterministic kernel" switch D0 controls.

The three composites that make up a conv model — :func:`batch_norm`,
:func:`conv2d` (per group) and :func:`mean_over`/:func:`sum_over` — are one
autograd node each, with a hand-written backward that performs the float
operations of the primitive-op spelling in the same order through the same
registry kernels (docs/DETERMINISM.md, "What a change to ``repro.tensor``
may not move").  The primitive-op spellings live on as the test oracle in
``tests/tensor/reference_ops.py``.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.tensor import kernels
from repro.tensor.context import current_context
from repro.tensor.tensor import Tensor, _swap_last, _unbroadcast
from repro.utils.rng import RNGBundle


# ---------------------------------------------------------------------------
# reductions over multiple axes
# ---------------------------------------------------------------------------


def _chain_reduce(data: np.ndarray, axes: Tuple[int, ...], keepdims: bool) -> np.ndarray:
    """Single-axis registry reductions, highest axis first.

    The axis order is part of the bits (each step rounds to float32) and,
    under ``BASELINE_POLICY``, so is the number of registry calls.
    """
    ctx = current_context()
    for axis in sorted(axes, reverse=True):
        data = kernels.reduce_sum(
            data, axis=axis, keepdims=keepdims, dialect=ctx.dialect, policy=ctx.policy
        )
    return data


def _inv_count(shape: Tuple[int, ...], axes: Tuple[int, ...]) -> np.float32:
    """``1/n`` of a mean over ``axes``, rounded once to float32."""
    return np.float32(1.0 / math.prod(shape[axis] for axis in axes))


def _reduce_over(
    x: Tensor, axes: Union[int, Tuple[int, ...]], keepdims: bool, mean: bool
) -> Tensor:
    """Sum (or mean) over ``axes`` as one node whose backward is one broadcast."""
    if isinstance(axes, int):
        axes = (axes,)
    data = _chain_reduce(x.data, axes, keepdims)
    scale = _inv_count(x.shape, axes) if mean else None
    out = x._make(data * scale if mean else data, (x,))
    kept = list(x.shape)
    for axis in axes:
        kept[axis] = 1

    def _backward() -> None:
        if x.requires_grad:
            g = out.grad * scale if mean else out.grad
            x._accumulate(np.broadcast_to(g.reshape(kept), x.shape))

    out._backward = _backward
    return out


def sum_over(x: Tensor, axes: Union[int, Tuple[int, ...]], keepdims: bool = False) -> Tensor:
    """Sum over one or several axes (chained single-axis registry reductions)."""
    return _reduce_over(x, axes, keepdims, mean=False)


def mean_over(x: Tensor, axes: Union[int, Tuple[int, ...]], keepdims: bool = False) -> Tensor:
    """Mean over one or several axes: the registry sums, then one float32 scale."""
    return _reduce_over(x, axes, keepdims, mean=True)


# ---------------------------------------------------------------------------
# batch normalisation
# ---------------------------------------------------------------------------


def batch_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float, axes: Tuple[int, ...]
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch normalisation over ``axes`` as one autograd node.

    ``weight`` and ``bias`` must already broadcast against ``x``: they are
    parents of the node in the order ``(x, weight, bias)``, which is what
    fixes when the affine leaves receive their gradient relative to
    everything upstream of ``x`` (and so DDP's bucket layout).  Returns the
    output plus the batch mean and biased variance (``keepdims`` shape) for
    the running-statistics update.

    Forward and backward perform the float operations of the primitive-op
    spelling (``tests/tensor/reference_ops.py``) in the same order, with
    the statistics going through the registry and the gradient folds
    through :func:`_unbroadcast`'s plain NumPy sums.
    """
    inv_count = _inv_count(x.shape, axes)
    mean = _chain_reduce(x.data, axes, True) * inv_count
    centered = x.data + (-mean)
    var = _chain_reduce(centered * centered, axes, True) * inv_count
    var_eps = var + np.float32(eps)
    inv_std = var_eps**-0.5
    normed = centered * inv_std
    out = x._make(normed * weight.data + bias.data, (x, weight, bias))

    def _backward() -> None:
        g = out.grad
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(g * normed, weight.shape), True)
        if not x.requires_grad:
            return
        g_normed = g * weight.data
        g_inv_std = _unbroadcast(g_normed * centered, inv_std.shape)
        g_var = g_inv_std * -0.5 * var_eps**-1.5
        through_var = g_var * inv_count * centered
        # centered feeds normed once and its own square twice: three terms,
        # added in the order the composed graph accumulated them
        g_centered = g_normed * inv_std + through_var + through_var
        x._accumulate(g_centered, True)
        g_mean = -_unbroadcast(g_centered, mean.shape)
        x._accumulate(np.broadcast_to(g_mean * inv_count, x.shape))

    out._backward = _backward
    return out, mean, var


# ---------------------------------------------------------------------------
# linear (+ ReLU) and the binary cross-entropy loss
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor], relu: bool = False) -> Tensor:
    """``x @ weight.T + bias`` (then ``max(·, 0)`` under ``relu``) as one node.

    ``weight.T`` stays a node of its own and the fused node's parents are
    ``(x, weight.T, bias)``: gradients arrive in reversed-topological
    order, and that transpose node is what makes a ``Linear`` weight
    receive its gradient after everything upstream of ``x`` while the bias
    receives its before.  Backward is the composed spelling's, in its
    order: ReLU mask, bias fold, input GEMM, weight GEMM.
    """
    wt = weight.T
    ctx = current_context()
    data = kernels.matmul(x.data, wt.data, dialect=ctx.dialect, policy=ctx.policy)
    if bias is not None:
        data = data + bias.data
    if relu:
        data = np.maximum(data, 0.0)
    out = x._make(data, (x, wt) if bias is None else (x, wt, bias))

    def _backward() -> None:
        # max(pre, 0) > 0 exactly where pre > 0
        g = out.grad * (data > 0) if relu else out.grad
        if bias is not None and bias.requires_grad:
            grad_bias = _unbroadcast(g, bias.shape)
            bias._accumulate(grad_bias, grad_bias is not out.grad)
        if x.requires_grad:
            grad_x = kernels.matmul(g, _swap_last(wt.data), dialect=ctx.dialect, policy=ctx.policy)
            x._accumulate(_unbroadcast(grad_x, x.shape), True)
        if wt.requires_grad:
            grad_wt = kernels.matmul(_swap_last(x.data), g, dialect=ctx.dialect, policy=ctx.policy)
            wt._accumulate(_unbroadcast(grad_wt, wt.shape), True)

    out._backward = _backward
    return out


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of ``max(x, 0) - x*t + log(1 + exp(-|x|))`` as one node.

    The sum goes through the registry and is scaled by one float32
    ``1/n``; backward hands ``x`` the composed graph's three contributions
    one by one in its order (ReLU, ``-x*t``, log term): summing them first
    would associate differently whenever ``x`` already holds a gradient.
    """
    t = np.asarray(targets, dtype=np.float32)
    x = logits.data
    if t.shape != x.shape:
        raise ValueError(f"targets shape {t.shape} mismatches logits shape {x.shape}")
    sign = np.sign(-x)
    e = np.exp(x * sign)
    p = e + np.float32(1.0)
    terms = np.maximum(x, 0.0) + -(x * t) + np.log(p)
    ctx = current_context()
    total = kernels.reduce_sum(terms, axis=None, dialect=ctx.dialect, policy=ctx.policy)
    scale = np.float32(1.0 / x.size)
    out = logits._make(np.asarray(total, dtype=np.float32) * scale, (logits,))

    def _backward() -> None:
        if logits.requires_grad:
            g = out.grad * scale
            logits._accumulate(g * (x > 0), True)
            logits._accumulate((-g) * t, True)
            logits._accumulate(((g / p) * e) * sign, True)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax (max subtracted as a constant)."""
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    shifted = x - shift
    log_z = shifted.exp().sum(axis=axis if axis >= 0 else x.ndim + axis, keepdims=True).log()
    return shifted - log_z


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick ``x[i, indices[i]]`` for each row ``i`` (cross-entropy gather)."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.arange(x.shape[0])
    out = x._make(x.data[rows, indices], (x,))

    def _backward() -> None:
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            grad[rows, indices] = out.grad
            x._accumulate(grad, True)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make(out_data, tuple(tensors))

    def _backward() -> None:
        index = [slice(None)] * out_data.ndim
        start = 0
        for tensor in tensors:
            end = start + tensor.shape[axis]
            if tensor.requires_grad:
                index[axis] = slice(start, end)
                tensor._accumulate(out.grad[tuple(index)])
            start = end

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    expanded = [t.reshape(*t.shape[:axis], 1, *t.shape[axis:]) for t in tensors]
    return concat(expanded, axis=axis)


def chunk(x: Tensor, chunks: int, axis: int = 1) -> Tuple[Tensor, ...]:
    """Split into equal chunks along ``axis`` (ShuffleNet branch split)."""
    size = x.shape[axis]
    if size % chunks != 0:
        raise ValueError(f"axis of size {size} not divisible into {chunks} chunks")
    step = size // chunks
    parts = []
    for i in range(chunks):
        slicer = [slice(None)] * x.ndim
        slicer[axis] = slice(i * step, (i + 1) * step)
        parts.append(x[tuple(slicer)])
    return tuple(parts)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two (spatial) axes symmetrically."""
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    out = x._make(np.pad(x.data, widths), (x,))

    def _backward() -> None:
        if x.requires_grad:
            slicer = [slice(None)] * (x.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)]
            x._accumulate(out.grad[tuple(slicer)])

    out._backward = _backward
    return out


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    lead = x.shape[:start_dim]
    rest = int(np.prod(x.shape[start_dim:]))
    return x.reshape(*lead, rest)


# ---------------------------------------------------------------------------
# im2col / conv2d
# ---------------------------------------------------------------------------


def _conv_geometry(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> Tuple[int, int]:
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, pad {pad}"
        )
    return out_h, out_w


def _im2col_forward(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    n, c, h, w = x.shape
    out_h, out_w = _conv_geometry(h, w, kh, kw, stride, pad)
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:-pad, pad:-pad] = x
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (n, c*kh*kw, out_h*out_w)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


@functools.lru_cache(maxsize=128)
def _col2im_plan(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int, out_h: int, out_w: int
) -> np.ndarray:
    """Where each kernel offset scatters onto each input pixel, as gather indices.

    Entry ``[k, p]`` (``k = ki*kw + kj``, ``p`` a flat interior pixel) is
    the flat ``(k, out position)`` column of one channel's ``cols`` that
    offset ``k`` adds onto ``p``; where no window covers ``p`` at offset
    ``k`` it is ``kh*kw*out_h*out_w``, the sentinel slot holding +0.0.
    Read-only: one array per geometry, shared by every call.
    """
    ki, kj, oi, oj = np.ix_(np.arange(kh), np.arange(kw), np.arange(out_h), np.arange(out_w))
    row = oi * stride + ki - pad
    col = oj * stride + kj - pad
    inside = (row >= 0) & (row < h) & (col >= 0) & (col < w)
    k = ki * kw + kj
    source = k * (out_h * out_w) + oi * out_w + oj
    plan = np.full((kh * kw, h * w), kh * kw * out_h * out_w, dtype=np.intp)
    plan[np.broadcast_to(k, inside.shape)[inside], (row * w + col)[inside]] = source[inside]
    plan.flags.writeable = False
    return plan


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
    """Fold ``(n, c*kh*kw, out_h*out_w)`` columns back onto a C-ordered input.

    Every pixel sums its contributions from +0.0 in lexicographic
    ``(ki, kj)`` order, the order of the strided-add loop that is its
    oracle in ``tests/tensor/reference_ops.py``.  Offsets that miss a
    pixel add the +0.0 sentinel: ``x + (+0.0)`` is ``x`` for every sum
    that started at +0.0 (docs/DETERMINISM.md).
    """
    n, c, h, w = x_shape
    if not pad and stride >= kh and stride >= kw:
        # windows do not overlap: one strided add onto zeros
        out = np.zeros(x_shape, dtype=np.float32)
        sn, sc, sh, sw = out.strides
        windows = np.ndarray(
            (n, c, kh, kw, out_h, out_w), np.float32, out, 0,
            (sn, sc, sh, sw, sh * stride, sw * stride),
        )
        windows += cols.reshape(n, c, kh, kw, out_h, out_w)
        return out
    plan = _col2im_plan(h, w, kh, kw, stride, pad, out_h, out_w)
    sentinel = kh * kw * out_h * out_w
    source = np.empty((sentinel + 1, n * c), dtype=np.float32)
    source[:sentinel] = cols.reshape(n * c, sentinel).T
    source[sentinel] = 0.0
    acc = np.zeros((h * w, n * c), dtype=np.float32)
    for part in source.take(plan, axis=0):
        acc += part
    return acc.T.copy().reshape(n, c, h, w)


def im2col(x: Tensor, kh: int, kw: int, stride: int = 1, pad: int = 0) -> Tuple[Tensor, Tuple[int, int]]:
    """Autograd im2col: windows flattened for GEMM-based convolution."""
    cols_data, (out_h, out_w) = _im2col_forward(x.data, kh, kw, stride, pad)
    out = x._make(cols_data, (x,))

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(_col2im(out.grad, x.data.shape, kh, kw, stride, pad, out_h, out_w), True)

    out._backward = _backward
    return out, (out_h, out_w)


def _conv2d_group(x: Tensor, weight: Tensor, stride: int, padding: int) -> Tensor:
    """One group's convolution as a single node: im2col -> registry GEMM -> reshape.

    Backward issues the two registry GEMMs of ``w2d.matmul(cols)`` in that
    op's order (weight gradient first — the autotuner picks variants by
    call count) on operands laid out as the composed graph laid them out.
    The weight is accumulated before the input, so a conv weight receives
    its gradient before anything upstream of ``x`` does.
    """
    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    cols, (out_h, out_w) = _im2col_forward(x.data, kh, kw, stride, padding)
    w2d = weight.data.reshape(c_out, c_in * kh * kw)
    ctx = current_context()
    out_data = kernels.matmul(w2d, cols, dialect=ctx.dialect, policy=ctx.policy)
    out = x._make(out_data.reshape(n, c_out, out_h, out_w), (weight, x))

    def _backward() -> None:
        g = np.ascontiguousarray(out.grad).reshape(n, c_out, out_h * out_w)
        if weight.requires_grad:
            grad_w = kernels.matmul(g, _swap_last(cols), dialect=ctx.dialect, policy=ctx.policy)
            weight._accumulate(_unbroadcast(grad_w, w2d.shape).reshape(weight.shape), True)
        if x.requires_grad:
            grad_cols = kernels.matmul(_swap_last(w2d), g, dialect=ctx.dialect, policy=ctx.policy)
            x._accumulate(_col2im(grad_cols, x.shape, kh, kw, stride, padding, out_h, out_w), True)

    out._backward = _backward
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution as im2col + registry GEMM, one autograd node per group.

    ``groups`` supports depthwise/grouped convs (ShuffleNetV2).  Because the
    contraction is a registry matmul, the output bits depend on the device
    dialect unless the active policy is hardware-agnostic (D2).
    """
    c_in = x.shape[1]
    c_out, c_in_g = weight.shape[:2]
    if c_in % groups or c_out % groups:
        raise ValueError("channels must be divisible by groups")
    if c_in_g != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_g} input channels per group, input has {c_in // groups}"
        )

    if groups == 1:
        out = _conv2d_group(x, weight, stride, padding)
    else:
        out = concat(
            [
                _conv2d_group(xg, wg, stride, padding)
                for xg, wg in zip(chunk(x, groups, axis=1), chunk(weight, groups, axis=0))
            ],
            axis=1,
        )
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> Tensor:
    stride = stride or kernel_size
    n, c, h, w = x.shape
    out_h, out_w = _conv_geometry(h, w, kernel_size, kernel_size, stride, padding)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=-np.inf)
    hp, wp = xp.shape[2], xp.shape[3]
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp,
        shape=(n, c, out_h, out_w, kernel_size, kernel_size),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    ).reshape(n, c, out_h, out_w, kernel_size * kernel_size)
    arg = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    out = x._make(out_data.astype(np.float32), (x,))

    # flat index of each window max within the padded input
    ki, kj = arg // kernel_size, arg % kernel_size
    base_i = (np.arange(out_h) * stride)[None, None, :, None]
    base_j = (np.arange(out_w) * stride)[None, None, None, :]
    flat = (base_i + ki) * wp + (base_j + kj)

    def _backward() -> None:
        if not x.requires_grad:
            return
        grad_flat = np.zeros((n, c, hp * wp), dtype=np.float32)
        n_idx = np.arange(n)[:, None, None, None]
        c_idx = np.arange(c)[None, :, None, None]
        np.add.at(grad_flat, (n_idx, c_idx, flat), out.grad)
        grad = grad_flat.reshape(n, c, hp, wp)
        if padding:
            grad = grad[:, :, padding:-padding, padding:-padding]
        x._accumulate(grad, True)

    out._backward = _backward
    return out


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    stride = stride or kernel_size
    cols, (out_h, out_w) = im2col(x, kernel_size, kernel_size, stride, 0)
    n, c = x.shape[0], x.shape[1]
    k2 = kernel_size * kernel_size
    cols = cols.reshape(n, c, k2, out_h * out_w)
    pooled = cols.mean(axis=2)
    return pooled.reshape(n, c, out_h, out_w)


def global_avg_pool(x: Tensor) -> Tensor:
    """Adaptive average pool to 1x1, squeezed to (N, C)."""
    return mean_over(x, (2, 3))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup with policy-dependent scatter-add backward."""
    indices = np.asarray(indices, dtype=np.int64)
    out = weight._make(weight.data[indices], (weight,))
    ctx = current_context()

    def _backward() -> None:
        if weight.requires_grad:
            grad = np.zeros_like(weight.data)
            flat_idx = indices.reshape(-1)
            flat_grad = out.grad.reshape(-1, weight.data.shape[1])
            kernels.scatter_add(grad, flat_idx, flat_grad, policy=ctx.policy)
            weight._accumulate(grad, True)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: RNGBundle, training: bool = True) -> Tensor:
    """Inverted dropout drawing its mask from the *framework* RNG stream.

    The draw advances ``rng.framework``; because EST contexts checkpoint the
    full stream state, a resumed EST reproduces the identical mask sequence.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = rng.bernoulli_mask(x.shape, keep) / np.float32(keep)
    return x * Tensor(mask)
