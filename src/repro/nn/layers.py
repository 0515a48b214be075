"""Neural-network layers over the autograd engine.

Every operator class the paper's D0/D2 analysis mentions appears here:

- ``Linear`` / ``Conv2d`` → registry GEMM (vendor dialect vs. D2 agnostic);
- ``BatchNorm2d`` → *implicit framework state* (running statistics buffers);
- ``Dropout`` → framework RNG stream consumer;
- ``Embedding`` → atomic-vs-deterministic scatter-add backward;
- ``MultiHeadAttention`` / ``LayerNorm`` → transformer workloads
  (Bert / Electra / SwinTransformer in Table 1).

Layers whose math is a GEMM carry ``uses_vendor_kernels = True``; the
D2-eligibility scanner (:func:`repro.core.determinism.scan_model`) walks the
module tree looking at this flag — the reproduction of "EasyScale
automatically analyzes a DL model by scanning the PyTorch nn.Module".
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.nn.init import kaiming_uniform, normal_, uniform_fan_in_bias, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.runtime import current_bn_journal, current_rng
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import RNGBundle


class Linear(Module):
    """Affine map ``y = x W^T + b`` through the registry GEMM."""

    uses_vendor_kernels = True

    def __init__(self, in_features: int, out_features: int, rng: RNGBundle, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform(rng, (out_features, in_features)))
        if bias:
            self.bias = Parameter(uniform_fan_in_bias(rng, (out_features,), in_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution (im2col + registry GEMM), with grouped support."""

    uses_vendor_kernels = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: RNGBundle,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_uniform(rng, shape))
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.bias = Parameter(uniform_fan_in_bias(rng, (out_channels,), fan_in)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding, groups=self.groups
        )


class _BatchNorm(Module):
    """Batch normalization with tracked running statistics.

    The running mean/var buffers are the canonical example of implicit
    framework state (§3.3): they are updated as a side effect of the forward
    pass and must ride along in checkpoints for bitwise restarts.
    """

    #: axes the statistics reduce over (everything but the channel axis)
    axes: Tuple[int, ...]

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _affine(self) -> Tuple[Tensor, Tensor]:
        """``(weight, bias)`` as they broadcast against the input."""
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        w, b = self._affine()
        if self.training:
            out, mean, var = ops.batch_norm(x, w, b, self.eps, self.axes)
            n = x.size // self.num_features
            unbiased = var.reshape(-1) * (n / max(n - 1, 1))
            journal = current_bn_journal()
            if journal is not None:
                # data-parallel harness defers folding to virtual-rank order
                journal.append((self, mean.reshape(-1).copy(), unbiased.copy()))
            else:
                self.fold_stats(mean.reshape(-1), unbiased)
            return out
        stat_shape = [1 if axis in self.axes else -1 for axis in range(x.ndim)]
        centered = x - Tensor(self.running_mean.reshape(stat_shape))
        inv_std = (Tensor(self.running_var.reshape(stat_shape)) + self.eps) ** -0.5
        return centered * inv_std * w + b

    def fold_stats(self, batch_mean: np.ndarray, batch_var_unbiased: np.ndarray) -> None:
        """Apply one momentum update of the running statistics."""
        self._set_buffer(
            "running_mean",
            ((1 - self.momentum) * self.running_mean + self.momentum * batch_mean).astype(np.float32),
        )
        self._set_buffer(
            "running_var",
            ((1 - self.momentum) * self.running_var + self.momentum * batch_var_unbiased).astype(np.float32),
        )


class BatchNorm2d(_BatchNorm):
    """Batch normalization over (N, H, W) of (N, C, H, W) inputs."""

    axes = (0, 2, 3)

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__(num_features, eps, momentum)
        self.register_buffer("num_batches_tracked", np.asarray(0, dtype=np.int64))

    def _affine(self) -> Tuple[Tensor, Tensor]:
        # real reshape nodes: they delay the affine leaves' gradient until
        # everything upstream of the input has received its own
        shape = (1, self.num_features, 1, 1)
        return self.weight.reshape(shape), self.bias.reshape(shape)

    def fold_stats(self, batch_mean: np.ndarray, batch_var_unbiased: np.ndarray) -> None:
        super().fold_stats(batch_mean, batch_var_unbiased)
        self._set_buffer("num_batches_tracked", self.num_batches_tracked + 1)


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (N,) for (N, C) inputs."""

    axes = (0,)

    def _affine(self) -> Tuple[Tensor, Tensor]:
        return self.weight, self.bias


class LayerNorm(Module):
    """Layer normalization over the trailing dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered * (var + self.eps) ** -0.5 * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout; consumes the thread-installed framework RNG."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return ops.dropout(x, self.p, current_rng(), training=True)


class Embedding(Module):
    """Token/ID embedding with policy-dependent scatter-add backward."""

    uses_vendor_kernels = False

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: RNGBundle) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(normal_(rng, (num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        return ops.embedding(self.weight, indices)


class ReLU(Module):
    """Elementwise max(x, 0)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """Tanh-approximation GELU (BERT convention)."""

    def forward(self, x: Tensor) -> Tensor:
        c = math.sqrt(2.0 / math.pi)
        inner = (x + x * x * x * 0.044715) * c
        return x * 0.5 * (inner.tanh() + 1.0)


class Sigmoid(Module):
    """Elementwise logistic function."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    """Collapse all dims after the batch dim."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.flatten(x)


class MaxPool2d(Module):
    """Spatial max pooling."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class MultiHeadAttention(Module):
    """Standard scaled dot-product multi-head attention."""

    uses_vendor_kernels = True

    def __init__(self, dim: int, num_heads: int, rng: RNGBundle, dropout: float = 0.0) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, 3 * dim, rng.spawn("qkv"))
        self.proj = Linear(dim, dim, rng.spawn("proj"))
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor) -> Tensor:
        n, seq, dim = x.shape
        qkv = self.qkv(x)  # (n, seq, 3*dim)
        qkv = qkv.reshape(n, seq, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, n, heads, seq, head_dim)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = q.matmul(k.transpose(0, 1, 3, 2)) * scale  # (n, heads, seq, seq)
        attn = ops.softmax(scores, axis=-1)
        attn = self.dropout(attn)
        out = attn.matmul(v)  # (n, heads, seq, head_dim)
        out = out.transpose(0, 2, 1, 3).reshape(n, seq, dim)
        return self.proj(out)


class TransformerEncoderLayer(Module):
    """Pre-LN transformer block (attention + MLP with GELU)."""

    def __init__(
        self, dim: int, num_heads: int, mlp_ratio: float, rng: RNGBundle, dropout: float = 0.1
    ) -> None:
        super().__init__()
        hidden = int(dim * mlp_ratio)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, rng.spawn("attn"), dropout=dropout)
        self.norm2 = LayerNorm(dim)
        self.fc1 = Linear(dim, hidden, rng.spawn("fc1"))
        self.act = GELU()
        self.drop = Dropout(dropout)
        self.fc2 = Linear(hidden, dim, rng.spawn("fc2"))

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        h = self.fc2(self.drop(self.act(self.fc1(self.norm2(x)))))
        return x + h
