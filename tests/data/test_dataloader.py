"""Shared data workers: allocation-independent batches, queuing buffer."""

import numpy as np
import pytest

from repro.data.dataloader import (
    LoaderTiming,
    QueuingBuffer,
    SharedDataLoader,
    batch_rng_state,
)
from repro.data.datasets import SyntheticImageDataset
from repro.data.transforms import default_image_augmentation


@pytest.fixture
def dataset():
    return SyntheticImageDataset(128, seed=3)


def make_loader(dataset, num_workers=2, replicas=4, transform=True):
    return SharedDataLoader(
        dataset,
        num_replicas=replicas,
        batch_size=8,
        seed=11,
        num_workers=num_workers,
        transform=default_image_augmentation() if transform else None,
    )


class TestDeterminism:
    def test_batch_independent_of_worker_count(self, dataset):
        a = make_loader(dataset, num_workers=1)
        b = make_loader(dataset, num_workers=8)
        xa, ya = a.load(2, 0, 1)
        xb, yb = b.load(2, 0, 1)
        assert xa.tobytes() == xb.tobytes()
        np.testing.assert_array_equal(ya, yb)

    def test_batch_independent_of_load_order(self, dataset):
        a = make_loader(dataset)
        b = make_loader(dataset)
        # a loads in EST order, b interleaved differently
        xa = a.load(0, 0, 0)[0]
        a.load(1, 0, 0)
        b.load(1, 0, 0)
        xb = b.load(0, 0, 0)[0]
        assert xa.tobytes() == xb.tobytes()

    def test_batch_rng_state_pure(self):
        s1 = batch_rng_state(5, 1, 0, 3)
        s2 = batch_rng_state(5, 1, 0, 3)
        assert s1 == s2
        assert batch_rng_state(5, 1, 0, 4) != s1

    def test_augmentation_changes_bytes(self, dataset):
        plain = make_loader(dataset, transform=False)
        augmented = make_loader(dataset, transform=True)
        assert plain.load(0, 0, 0)[0].tobytes() != augmented.load(0, 0, 0)[0].tobytes()

    def test_int_inputs_not_transformed(self):
        from repro.data.datasets import SyntheticQADataset

        loader = SharedDataLoader(
            SyntheticQADataset(64, seed=1),
            num_replicas=2,
            batch_size=4,
            seed=2,
            transform=default_image_augmentation(),
        )
        x, y = loader.load(0, 0, 0)
        assert x.dtype == np.int64  # tokens passed through untouched


class TestComputedOnce:
    """Pure functions of (seed, index | epoch | batch key) are not redone."""

    def test_each_sample_is_built_once(self, dataset, monkeypatch):
        built = []
        build = type(dataset).__getitem__
        monkeypatch.setattr(
            type(dataset), "__getitem__",
            lambda self, index: built.append(index) or build(self, index),
        )
        loaders = [make_loader(dataset), make_loader(dataset, transform=False)]
        for loader in loaders:
            for epoch in range(2):
                for step in range(loader.steps_per_epoch):
                    for rank in range(4):
                        loader.load(rank, epoch, step)
        # 128 samples over 4 ranks x 8 per batch: every epoch visits all
        assert sorted(built) == list(range(128))

    def test_unsampled_dataset_stores_nothing(self):
        big = SyntheticImageDataset(100_000, seed=3)
        loader = make_loader(big)
        assert big._store is None
        loader.load(0, 0, 0)
        built, inputs, _ = big._store
        assert built.sum() == 8 and inputs.shape[0] == 100_000

    def test_epoch_permutation_drawn_once_per_loader(self, dataset, monkeypatch):
        from repro.data.sampler import DistributedSampler

        draws = []
        draw = DistributedSampler._global_order
        monkeypatch.setattr(
            DistributedSampler, "_global_order",
            lambda self: draws.append(self.epoch) or draw(self),
        )
        loader = make_loader(dataset)
        for epoch in range(3):
            for step in range(loader.steps_per_epoch):
                for rank in range(4):
                    loader.load(rank, epoch, step)
        assert draws == [0, 1, 2]

    def test_rng_state_derived_only_when_a_transform_draws(self, dataset, monkeypatch):
        import repro.data.dataloader as dataloader
        from repro.data.datasets import SyntheticQADataset

        derived = []
        derive = dataloader.batch_rng_state
        monkeypatch.setattr(
            dataloader, "batch_rng_state",
            lambda *key: derived.append(key) or derive(*key),
        )
        make_loader(dataset, transform=False).load(0, 0, 0)
        tokens = SharedDataLoader(
            SyntheticQADataset(64, seed=1), num_replicas=2, batch_size=4, seed=2,
            transform=default_image_augmentation(),
        )
        tokens.load(0, 0, 0)
        assert derived == []  # nothing would have drawn from it
        augmented = make_loader(dataset)
        augmented.load(2, 0, 1)
        assert derived == [(11, 2, 0, 1)]
        augmented.prefetch(2, 0, 2)  # derives at prefetch time ...
        augmented.load(2, 0, 2)  # ... and the load reuses that state
        assert derived == [(11, 2, 0, 1), (11, 2, 0, 2)]

    def test_queue_entry_consumed_even_when_nothing_draws(self, dataset):
        loader = make_loader(dataset, transform=False)
        loader.prefetch(0, 0, 0)
        loader.prefetch(1, 0, 0)
        loader.load(0, 0, 0)
        assert list(loader.export_state()["pending"]) == [(1, 0, 0)]


class TestQueuingBuffer:
    def test_commit_consume(self):
        q = QueuingBuffer()
        q.commit((0, 0, 1), {"s": 1})
        assert len(q) == 1
        assert q.consume((0, 0, 1)) == {"s": 1}
        assert len(q) == 0

    def test_double_commit_rejected(self):
        q = QueuingBuffer()
        q.commit((0, 0, 1), {})
        with pytest.raises(KeyError):
            q.commit((0, 0, 1), {})

    def test_consume_missing_rejected(self):
        with pytest.raises(KeyError):
            QueuingBuffer().consume((0, 0, 0))

    def test_pending_snapshot_is_copy(self):
        q = QueuingBuffer()
        q.commit((1, 0, 0), {"a": 1})
        snap = q.pending()
        q.consume((1, 0, 0))
        assert (1, 0, 0) in snap

    def test_prefetched_state_used_on_load(self, dataset):
        loader = make_loader(dataset)
        loader.prefetch(0, 0, 0)
        assert len(loader.queue) == 1
        x1 = loader.load(0, 0, 0)[0]
        assert len(loader.queue) == 0
        # identical to non-prefetched load (state derivation is the same)
        x2 = make_loader(dataset).load(0, 0, 0)[0]
        assert x1.tobytes() == x2.tobytes()

    def test_export_import_state(self, dataset):
        loader = make_loader(dataset)
        loader.prefetch(1, 0, 2)
        state = loader.export_state()
        fresh = make_loader(dataset)
        fresh.import_state(state)
        assert len(fresh.queue) == 1
        fresh.load(1, 0, 2)


class TestWorkers:
    def test_round_robin_assignment(self, dataset):
        loader = make_loader(dataset, num_workers=3)
        for i in range(6):
            loader.load(i % 4, 0, i // 4)
        assert [w.batches_processed for w in loader.workers] == [2, 2, 2]

    def test_rank_bounds(self, dataset):
        loader = make_loader(dataset, replicas=2)
        with pytest.raises(IndexError):
            loader.load(2, 0, 0)


class TestTiming:
    def test_sharing_reduces_first_batch_latency(self):
        timing = LoaderTiming(worker_launch_time=0.5, per_sample_time=0.002)
        # 8 ESTs x 4 data workers each = 32 without sharing; 4 with sharing
        unshared = timing.first_batch_latency(32, batch_size=8)
        shared = timing.first_batch_latency(4, batch_size=8)
        reduction = 1 - shared / unshared
        assert reduction > 0.6  # the paper reports 67.1% average

    def test_steady_state_scales_with_workers(self):
        timing = LoaderTiming()
        assert timing.steady_batch_latency(4, 8) == pytest.approx(
            timing.steady_batch_latency(1, 8) / 4
        )

    def test_zero_workers_invalid(self):
        with pytest.raises(ValueError):
            LoaderTiming().first_batch_latency(0, 8)
