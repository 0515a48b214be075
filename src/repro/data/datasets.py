"""Seeded synthetic datasets standing in for the paper's open datasets.

The paper trains on ImageNet / CIFAR10 / PASCAL / MovieLens / SQuAD
(Table 1).  Accuracy-*consistency* — the property under test — depends on
the data pipeline's structure (sample indexing, augmentation randomness,
label structure for per-class metrics), not on the images' semantics, so
each dataset here is a deterministic generator matched in shape:

- :class:`SyntheticImageDataset` — class-conditional Gaussian blob images;
  genuinely learnable, so the motivation experiments (Figs. 2–4) show real
  accuracy/loss dynamics and real per-class variance.
- :class:`SyntheticDetectionDataset` — images with an embedded bright patch
  whose position is the regression target (YOLO stand-in).
- :class:`SyntheticRatingsDataset` — user/item implicit-feedback pairs with
  a low-rank preference structure (MovieLens/NeuMF stand-in).
- :class:`SyntheticQADataset` — token sequences where the answer-class is a
  function of a planted keyword (SQuAD/Bert stand-in).

Every sample is a pure function of ``(seed, index)``: datasets are *not*
materialized, so a 100k-sample "ImageNet-like" costs nothing until sampled,
and two workers fetching the same index always see identical bytes.
``dataset[i]`` builds the sample every time; :meth:`Dataset.gather`, which
the data workers use, builds each sample on first touch and keeps it, so
epochs, ranks and loaders that revisit an index gather bytes already built
(one fancy-index copy per batch) instead of re-seating a generator per
sample.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import derive_seed


class Dataset:
    """Map-style dataset: ``len`` + ``__getitem__`` → (input, target)."""

    #: ``(built, inputs, targets)``: which samples :meth:`gather` has built,
    #: and their stacked bytes — per instance, allocated on first touch
    _store: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int):
        raise NotImplementedError

    def gather(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``np.stack`` of the inputs and ``np.asarray`` of the targets at
        ``indices``, each sample built on first touch and kept.

        The store is private and a fancy index always copies, so a batch
        never aliases a stored sample.  Pages of the store are touched only
        as samples are built: resident memory follows the samples actually
        visited, not ``len(self)``.
        """
        store = self._store
        missing = indices if store is None else indices[~store[0][indices]]
        for index in missing:
            x, y = self[int(index)]
            if store is None:  # the first sample ever built fixes shape and dtype
                x, y = np.asarray(x), np.asarray(y)
                store = self._store = (
                    np.zeros(len(self), dtype=bool),
                    np.empty((len(self), *x.shape), dtype=x.dtype),
                    np.empty((len(self), *y.shape), dtype=y.dtype),
                )
            built, inputs, targets = store
            inputs[index], targets[index], built[index] = x, y, True
        _, inputs, targets = store
        return inputs[indices], targets[indices]

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range [0, {len(self)})")
        return index


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(seed, "sample", index)))


class SyntheticImageDataset(Dataset):
    """Class-conditional images: ``x = prototype[y] + noise``.

    Each class has a fixed random prototype pattern; samples are noisy
    instances.  ``noise_scale`` tunes task difficulty (higher = harder, so
    per-class accuracies spread out as in Fig. 3).
    """

    def __init__(
        self,
        n: int,
        num_classes: int = 10,
        shape: Tuple[int, int, int] = (3, 8, 8),
        seed: int = 0,
        noise_scale: float = 0.6,
    ) -> None:
        if n <= 0 or num_classes <= 0:
            raise ValueError("n and num_classes must be positive")
        self.n = n
        self.num_classes = num_classes
        self.shape = shape
        self.seed = seed
        self.noise_scale = noise_scale
        proto_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "prototypes")))
        self.prototypes = proto_rng.normal(0.0, 1.0, size=(num_classes, *shape)).astype(np.float32)
        # per-class difficulty multiplier: makes some classes intrinsically
        # harder, so per-class accuracy varies like the paper's CIFAR table
        self.class_noise = (
            noise_scale * (0.5 + proto_rng.random(num_classes)).astype(np.float32)
        )

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        index = self._check_index(index)
        rng = _sample_rng(self.seed, index)
        label = int(index % self.num_classes)
        noise = rng.normal(0.0, self.class_noise[label], size=self.shape).astype(np.float32)
        return self.prototypes[label] + noise, label


class SyntheticDetectionDataset(Dataset):
    """Images with one bright square; target = (cx, cy, size, class)."""

    def __init__(
        self,
        n: int,
        num_classes: int = 5,
        shape: Tuple[int, int, int] = (3, 16, 16),
        seed: int = 0,
    ) -> None:
        self.n = n
        self.num_classes = num_classes
        self.shape = shape
        self.seed = seed

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        index = self._check_index(index)
        rng = _sample_rng(self.seed, index)
        c, h, w = self.shape
        img = rng.normal(0.0, 0.3, size=self.shape).astype(np.float32)
        size = int(rng.integers(2, max(3, h // 3)))
        cy = int(rng.integers(size, h - size))
        cx = int(rng.integers(size, w - size))
        cls = int(rng.integers(0, self.num_classes))
        img[cls % c, cy - size // 2 : cy + size // 2 + 1, cx - size // 2 : cx + size // 2 + 1] += 2.0
        target = np.array([cx / w, cy / h, size / h, cls], dtype=np.float32)
        return img, target


class SyntheticRatingsDataset(Dataset):
    """Implicit-feedback (user, item, clicked) with low-rank structure."""

    def __init__(
        self,
        n: int,
        num_users: int = 100,
        num_items: int = 200,
        latent_dim: int = 4,
        seed: int = 0,
    ) -> None:
        self.n = n
        self.num_users = num_users
        self.num_items = num_items
        self.seed = seed
        factor_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "factors")))
        self.user_factors = factor_rng.normal(size=(num_users, latent_dim)).astype(np.float32)
        self.item_factors = factor_rng.normal(size=(num_items, latent_dim)).astype(np.float32)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> Tuple[np.ndarray, float]:
        index = self._check_index(index)
        rng = _sample_rng(self.seed, index)
        user = int(rng.integers(0, self.num_users))
        item = int(rng.integers(0, self.num_items))
        affinity = float(self.user_factors[user] @ self.item_factors[item])
        prob = 1.0 / (1.0 + np.exp(-affinity))
        label = float(rng.random() < prob)
        return np.array([user, item], dtype=np.int64), label


class SyntheticQADataset(Dataset):
    """Token sequences with a planted keyword deciding the answer class."""

    def __init__(
        self,
        n: int,
        vocab_size: int = 64,
        seq_len: int = 16,
        num_classes: int = 4,
        seed: int = 0,
    ) -> None:
        if num_classes >= vocab_size:
            raise ValueError("num_classes must be smaller than vocab_size")
        self.n = n
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        self.num_classes = num_classes
        self.seed = seed

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        index = self._check_index(index)
        rng = _sample_rng(self.seed, index)
        tokens = rng.integers(self.num_classes, self.vocab_size, size=self.seq_len)
        label = int(index % self.num_classes)
        position = int(rng.integers(0, self.seq_len))
        tokens[position] = label  # keyword token ids 0..num_classes-1
        return tokens.astype(np.int64), label


class Subset(Dataset):
    """A contiguous or arbitrary index view of another dataset.

    Used for train/held-out splits: the synthetic datasets are pure
    functions of (seed, index), so any disjoint index sets drawn from the
    *same* dataset share the class structure (prototypes) while containing
    different samples.
    """

    def __init__(self, dataset: Dataset, indices) -> None:
        self.dataset = dataset
        self.indices = list(indices)
        if not self.indices:
            raise ValueError("subset must not be empty")
        for i in self.indices:
            if not 0 <= i < len(dataset):
                raise IndexError(f"subset index {i} out of parent range")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int):
        index = self._check_index(index)
        return self.dataset[self.indices[index]]


def train_eval_split(dataset: Dataset, train_n: int) -> Tuple["Subset", "Subset"]:
    """Split a dataset into a training prefix and a held-out suffix."""
    if not 0 < train_n < len(dataset):
        raise ValueError(f"train_n must be in (0, {len(dataset)}), got {train_n}")
    return (
        Subset(dataset, range(train_n)),
        Subset(dataset, range(train_n, len(dataset))),
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, type] = {
    "cifar10-like": SyntheticImageDataset,
    "imagenet-like": SyntheticImageDataset,
    "pascal-like": SyntheticDetectionDataset,
    "movielens-like": SyntheticRatingsDataset,
    "squad-like": SyntheticQADataset,
}


def build_dataset(name: str, n: int, seed: int = 0, **kwargs) -> Dataset:
    """Build a named dataset; ``imagenet-like`` defaults to larger images."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(_BUILDERS)}")
    if name == "imagenet-like":
        kwargs.setdefault("shape", (3, 16, 16))
        kwargs.setdefault("num_classes", 10)
    return _BUILDERS[name](n, seed=seed, **kwargs)
