"""NeuMF (He et al., Neural Collaborative Filtering).

The recommendation workload of Table 1: a GMF branch (elementwise product
of user/item embeddings) fused with an MLP branch, trained with binary
cross-entropy on implicit feedback.  Embedding gradients go through the
scatter-add kernel, so this model exercises the atomic-vs-deterministic
kernel switch that D0 controls.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.loss import bce_with_logits
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import RNGBundle


class NeuMF(nn.Module):
    def __init__(
        self,
        num_users: int,
        num_items: int,
        rng: RNGBundle,
        gmf_dim: int = 8,
        mlp_dim: int = 8,
    ) -> None:
        super().__init__()
        self.user_gmf = nn.Embedding(num_users, gmf_dim, rng.spawn("ug"))
        self.item_gmf = nn.Embedding(num_items, gmf_dim, rng.spawn("ig"))
        self.user_mlp = nn.Embedding(num_users, mlp_dim, rng.spawn("um"))
        self.item_mlp = nn.Embedding(num_items, mlp_dim, rng.spawn("im"))
        self.fc1 = nn.Linear(2 * mlp_dim, mlp_dim, rng.spawn("fc1"))
        self.fc2 = nn.Linear(mlp_dim, mlp_dim // 2, rng.spawn("fc2"))
        self.out = nn.Linear(gmf_dim + mlp_dim // 2, 1, rng.spawn("out"))

    def forward(self, pairs: np.ndarray) -> Tensor:
        """``pairs`` is an int64 (batch, 2) array of (user, item) ids."""
        pairs = np.asarray(pairs, dtype=np.int64)
        users, items = pairs[:, 0], pairs[:, 1]
        gmf = self.user_gmf(users) * self.item_gmf(items)
        mlp_in = ops.concat([self.user_mlp(users), self.item_mlp(items)], axis=1)
        hidden = ops.linear(mlp_in, self.fc1.weight, self.fc1.bias, relu=True)
        mlp = ops.linear(hidden, self.fc2.weight, self.fc2.bias, relu=True)
        fused = ops.concat([gmf, mlp], axis=1)
        return self.out(fused).reshape(-1)

    def loss(self, output: Tensor, targets: np.ndarray) -> Tensor:
        return bce_with_logits(output, np.asarray(targets, dtype=np.float32))


def neumf_mini(rng: RNGBundle, num_users: int = 100, num_items: int = 200) -> NeuMF:
    return NeuMF(num_users, num_items, rng)
