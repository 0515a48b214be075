"""The parent's batch bytes, pinned: a loader change may not move one.

EasyScale == DDP cannot see a loader regression — the DDP baseline draws
its batches from the same :class:`SharedDataLoader`, so a change that
moves both sides passes every bitwise-consistency test.  ``GOLDEN`` was
recorded at the commit *before* samples were memoised and batch RNG
states derived on demand (PR 19's parent, 93a99f6): per dataset,
transform and replica count one sha256 rolled over the sha256 of
``x.tobytes() + y.tobytes()`` of every ``(rank, epoch, step)`` batch of
three epochs, plus one digest of what ``QueuingBuffer.pending()`` holds
after a fixed prefetch/load sequence (the checkpoint's loader bytes).
Where the batch's RNG state comes from — derived on demand, prefetched
into the queue, or restored through ``export_state``/``import_state`` —
must not matter, so the three sources are held to the same digest.

Sample and augmentation bytes come from ``numpy.random.Generator``
streams, which NumPy may change between releases; on another NumPy
version the golden tests skip with that reason.  Re-record (only from a
commit whose bytes are trusted) with
``PYTHONPATH=src python tests/data/test_golden_batches.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pytest

from repro.data.dataloader import SharedDataLoader
from repro.data.datasets import Dataset, Subset, SyntheticImageDataset, build_dataset
from repro.data.transforms import default_image_augmentation

EPOCHS = 3
BATCH = 2
SEED = 11
REPLICAS = (1, 3, 8)
SOURCES = ("on-demand", "prefetched", "restored")
DATASETS = ("cifar10-like", "pascal-like", "movielens-like", "squad-like", "subset")
TRANSFORMS = ("plain", "augmented")


def make_dataset(name: str) -> Dataset:
    if name == "subset":
        # arbitrary (strided, offset) view; 38 samples
        return Subset(SyntheticImageDataset(80, seed=3), range(5, 80, 2))
    # 50 samples: 3 and 8 replicas both pad the epoch by wrapping
    return build_dataset(name, 50, seed=3)


def make_loader(dataset: Dataset, transform: str, replicas: int) -> SharedDataLoader:
    return SharedDataLoader(
        dataset,
        num_replicas=replicas,
        batch_size=BATCH,
        seed=SEED,
        transform=default_image_augmentation() if transform == "augmented" else None,
    )


def _batch_digest(x: np.ndarray, y: np.ndarray) -> bytes:
    return hashlib.sha256(x.tobytes() + y.tobytes()).digest()


def epochs_digest(
    dataset: Dataset, transform: str, replicas: int, source: str
) -> str:
    """Roll-up of every (rank, epoch, step) batch, in training order."""
    loader = make_loader(dataset, transform, replicas)
    rolled = hashlib.sha256()
    for epoch in range(EPOCHS):
        keys = [
            (rank, epoch, step)
            for step in range(loader.steps_per_epoch)
            for rank in range(replicas)
        ]
        if source != "on-demand":
            # data workers ran a whole epoch ahead of training
            for key in keys:
                loader.prefetch(*key)
        if source == "restored":
            state = loader.export_state()
            loader = make_loader(dataset, transform, replicas)
            loader.import_state(state)
        loader.set_epoch(epoch)
        for key in keys:
            rolled.update(_batch_digest(*loader.load(*key)))
        assert len(loader.queue) == 0
    return rolled.hexdigest()


def pending_digest(dataset: Dataset, replicas: int) -> str:
    """What a checkpoint would embed after a partly consumed prefetch."""
    loader = make_loader(dataset, "plain", replicas)
    steps = loader.steps_per_epoch
    for step in range(steps):
        for rank in range(replicas):
            loader.prefetch(rank, 0, step)
    for step in range(0, steps, 2):  # consume every other prefetched step
        for rank in range(replicas):
            loader.load(rank, 0, step)
    loader.load(0, 1, 0)  # and one batch nobody prefetched
    pending = loader.export_state()["pending"]
    return hashlib.sha256(repr(sorted(pending.items())).encode()).hexdigest()


def record() -> Dict[str, str]:
    golden: Dict[str, str] = {}
    for name in DATASETS:
        dataset = make_dataset(name)
        for replicas in REPLICAS:
            for transform in TRANSFORMS:
                digests = {
                    epochs_digest(dataset, transform, replicas, source)
                    for source in SOURCES
                }
                assert len(digests) == 1, f"{name} {transform} x{replicas}: state source moved bytes"
                golden[f"{name} {transform} x{replicas}"] = digests.pop()
            golden[f"{name} pending x{replicas}"] = pending_digest(dataset, replicas)
    return golden


NUMPY = "2.4.6"
GOLDEN: Dict[str, str] = {
    "cifar10-like plain x1": "85d7cb590adfe7054dca6a91bee51b36474c7a6185e13413328e92c985379657",
    "cifar10-like augmented x1": "8e213864704b5656ebffd6bac075a66ee761adbfd968c06accdbbb455d29c0a1",
    "cifar10-like pending x1": "95fc360735f2504bce34fc41b0c042eacac8e1a17f6c84efa745431fbba5535e",
    "cifar10-like plain x3": "28d4838101c78cddcb8d3a8a2fca36e3cf5e62ea8f020c157efc2016be665432",
    "cifar10-like augmented x3": "475deede730427099a3a46a51c2b6e36b1773f8533f2f8e32b9b3914db7bac7a",
    "cifar10-like pending x3": "f79fbe0c9f6b3e7a0f6648cb82905bab744d139c1e5f577a21d023bce116ebd7",
    "cifar10-like plain x8": "9f0a6489cc7eb1a32e78bd5a9227624f511e4e237ce43cb7afc97c99f40b3ac8",
    "cifar10-like augmented x8": "b413d5924acfc4e8f4608b8a57baed9c13138f512797e41c9f1811e272c5bc38",
    "cifar10-like pending x8": "76d119e11a009076f2ef561b9826da621a9ec0874427e8b9e2c21c403ab70731",
    "pascal-like plain x1": "1b704c609be5a54c5cc2f33c193c1643ab52705b91612f1f991bdea8e665c37c",
    "pascal-like augmented x1": "3c4f09c58ec70379fc2e520afb71c03b4e407fc0371f089ead70ab63f63a2a9f",
    "pascal-like pending x1": "95fc360735f2504bce34fc41b0c042eacac8e1a17f6c84efa745431fbba5535e",
    "pascal-like plain x3": "0159a7c5b219e4030c963fb954802fc69c311a2c68236963e34cbc9c8c85fcac",
    "pascal-like augmented x3": "8b77ac879310b48b4dabd065301577344126f6bb4b22c04685becf6f6968e879",
    "pascal-like pending x3": "f79fbe0c9f6b3e7a0f6648cb82905bab744d139c1e5f577a21d023bce116ebd7",
    "pascal-like plain x8": "bf1515259a85ee125732fc79710fd050703adc1af19a009e5c1879d984cd7aea",
    "pascal-like augmented x8": "f6b10059b9166a28b2ead46c91a7f86ffcdcd8286ebcc9fbe6dd2c13049d46ab",
    "pascal-like pending x8": "76d119e11a009076f2ef561b9826da621a9ec0874427e8b9e2c21c403ab70731",
    "movielens-like plain x1": "57a680596a75ff8e3b8b5651e9cc2179aeb3d102dfa4a1e0c04377966bbba1e6",
    "movielens-like augmented x1": "57a680596a75ff8e3b8b5651e9cc2179aeb3d102dfa4a1e0c04377966bbba1e6",
    "movielens-like pending x1": "95fc360735f2504bce34fc41b0c042eacac8e1a17f6c84efa745431fbba5535e",
    "movielens-like plain x3": "bd7eab01c1efe0122db35bb4e346cd80db3a61d6085400a3c121b1f59017b915",
    "movielens-like augmented x3": "bd7eab01c1efe0122db35bb4e346cd80db3a61d6085400a3c121b1f59017b915",
    "movielens-like pending x3": "f79fbe0c9f6b3e7a0f6648cb82905bab744d139c1e5f577a21d023bce116ebd7",
    "movielens-like plain x8": "03724794081121a8b4b888bbad523c4d931a423ff52389e1ac3b4790ea5bff08",
    "movielens-like augmented x8": "03724794081121a8b4b888bbad523c4d931a423ff52389e1ac3b4790ea5bff08",
    "movielens-like pending x8": "76d119e11a009076f2ef561b9826da621a9ec0874427e8b9e2c21c403ab70731",
    "squad-like plain x1": "79c3192d9ed8c4abf59abb4659f36243df8087e38cc2dbfa9935f94c18593d67",
    "squad-like augmented x1": "79c3192d9ed8c4abf59abb4659f36243df8087e38cc2dbfa9935f94c18593d67",
    "squad-like pending x1": "95fc360735f2504bce34fc41b0c042eacac8e1a17f6c84efa745431fbba5535e",
    "squad-like plain x3": "1e66320dd4728262b318a469ad185962add503a6fe93b658896f98e6d0ce0225",
    "squad-like augmented x3": "1e66320dd4728262b318a469ad185962add503a6fe93b658896f98e6d0ce0225",
    "squad-like pending x3": "f79fbe0c9f6b3e7a0f6648cb82905bab744d139c1e5f577a21d023bce116ebd7",
    "squad-like plain x8": "77111de25db2f3b50ec201628aa7f9b73d001e55dad98feedf3c8208b9aa2354",
    "squad-like augmented x8": "77111de25db2f3b50ec201628aa7f9b73d001e55dad98feedf3c8208b9aa2354",
    "squad-like pending x8": "76d119e11a009076f2ef561b9826da621a9ec0874427e8b9e2c21c403ab70731",
    "subset plain x1": "2121fe08b94f77171565c93fc37ad1cb1893544fb9dbb456ce4e85c0c0545c32",
    "subset augmented x1": "4c43e238a9aab24440989e1c1fadb2a57a77516e4e5df84c44d3483761361a6c",
    "subset pending x1": "2f822d973e210b73b5a5b3e2750d733a104501ecc339828f91b3053a12763a40",
    "subset plain x3": "f2a949e753bf58bd941244f41291c0356c58530c05ac73f55d23e43c7c39a632",
    "subset augmented x3": "d4823c5764f66fc9ae353ecd1c83cc73d12b42e00299fd1877f3f2cdb6b5752c",
    "subset pending x3": "b39744afd1a6215579961515faa0e28fb10f5a78f6f9375597bc53bddab2335f",
    "subset plain x8": "03418d57235853931993430433c542dd4f97a18a6a273e81bc78416df4c4fa83",
    "subset augmented x8": "708a88d70345bb43d38304a273c0e90effc4b60eb988a7ddaebeb12efbe97006",
    "subset pending x8": "76d119e11a009076f2ef561b9826da621a9ec0874427e8b9e2c21c403ab70731",
}


def _require_numpy() -> None:
    if np.__version__ != NUMPY:
        pytest.skip(
            f"GOLDEN was recorded on numpy {NUMPY}, this is {np.__version__}: "
            "Generator streams are not pinned across releases"
        )


@pytest.fixture(scope="module")
def datasets() -> Dict[str, Dataset]:
    # one instance per name for the whole module: later cases read samples
    # an earlier case (another transform, another replica count) touched
    return {name: make_dataset(name) for name in DATASETS}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("replicas", REPLICAS)
@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("name", DATASETS)
def test_batch_bytes_unchanged(datasets, name, transform, replicas, source):
    _require_numpy()
    assert (
        epochs_digest(datasets[name], transform, replicas, source)
        == GOLDEN[f"{name} {transform} x{replicas}"]
    ), f"{name} {transform} x{replicas} ({source}): batch bytes moved"


@pytest.mark.parametrize("replicas", REPLICAS)
@pytest.mark.parametrize("name", DATASETS)
def test_pending_queue_unchanged(datasets, name, replicas):
    _require_numpy()
    assert pending_digest(datasets[name], replicas) == GOLDEN[f"{name} pending x{replicas}"]


def test_batch_never_aliases_the_store(datasets):
    # a fancy index copies: scribbling over a batch (as an in-place
    # transform or a model might) cannot reach the samples kept for later
    for name in DATASETS:
        loader = make_loader(datasets[name], "plain", 3)
        x, y = loader.load(1, 0, 0)
        before = _batch_digest(x, y)
        assert x.flags.writeable and y.flags.writeable
        x[...] = 0
        y[...] = 0
        assert _batch_digest(*loader.load(1, 0, 0)) == before, name


def test_two_loaders_over_one_dataset_agree_in_any_load_order():
    # the second loader reads what the first one built, and the other way
    # round; a fresh dataset per loader is the oracle
    shared = make_dataset("cifar10-like")
    a, b = (make_loader(shared, "augmented", 3) for _ in range(2))
    keys = [(rank, epoch, step) for epoch in range(2) for step in range(8) for rank in range(3)]
    got_a = {key: _batch_digest(*a.load(*key)) for key in keys}
    got_b = {key: _batch_digest(*b.load(*key)) for key in reversed(keys)}
    alone = make_loader(make_dataset("cifar10-like"), "augmented", 3)
    for key in keys[::5]:
        assert got_a[key] == got_b[key] == _batch_digest(*alone.load(*key)), key


if __name__ == "__main__":
    print(f'NUMPY = "{np.__version__}"')
    print("GOLDEN: Dict[str, str] = {")
    for key, value in record().items():
        print(f'    "{key}": "{value}",')
    print("}")
