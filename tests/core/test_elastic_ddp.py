"""ElasticDDP: virtual-rank aggregation and the D1 bucket mapping."""

import numpy as np
import pytest

from repro.comm.allreduce import allreduce_mean
from repro.comm.bucketing import BucketAssignment
from repro.core.elastic_ddp import ElasticDDP


def make_eddp(num_ests=4, record=True, capacity=6):
    names = ["w1", "w2", "w3"]
    sizes = {"w1": 4, "w2": 2, "w3": 3}
    shapes = {"w1": (2, 2), "w2": (2,), "w3": (3,)}
    return ElasticDDP(
        param_order=names,
        param_sizes=sizes,
        param_shapes=shapes,
        num_ests=num_ests,
        bucket_capacity_elems=capacity,
        record_mapping=record,
    ), shapes


def grads_for(vrank, shapes, seed=0):
    rng = np.random.default_rng(seed * 100 + vrank)
    return {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}


def flats_for(eddp, grads):
    """One EST's hand-off: ``grads`` flattened into ``eddp``'s buckets."""
    return eddp.buckets.flatten_into_buckets(grads, lambda _b, e: np.empty(e, np.float32))


class TestSynchronize:
    def test_matches_manual_bucket_allreduce(self):
        eddp, shapes = make_eddp(3)
        all_grads = [grads_for(v, shapes) for v in range(3)]
        out = eddp.synchronize([flats_for(eddp, g) for g in all_grads])
        # manual: same buckets, same ring mean
        for bucket_idx, bucket in enumerate(eddp.buckets.buckets):
            sub = BucketAssignment([bucket])
            flats = [sub.flatten_bucket(0, g) for g in all_grads]
            expected = sub.unflatten_bucket(0, allreduce_mean(flats), shapes)
            for name in bucket:
                np.testing.assert_array_equal(out[name], expected[name])

    def test_requires_all_ests(self):
        eddp, shapes = make_eddp(4)
        with pytest.raises(ValueError):
            eddp.synchronize([grads_for(0, shapes)])

    def test_result_independent_of_grad_sources(self):
        """Aggregation depends on vrank order, not who computed what where."""
        eddp_a, shapes = make_eddp(4)
        eddp_b, _ = make_eddp(4)
        grads = [grads_for(v, shapes) for v in range(4)]
        out_a = eddp_a.synchronize([flats_for(eddp_a, g) for g in grads])
        # fresh flats
        out_b = eddp_b.synchronize([flats_for(eddp_b, dict(g)) for g in grads])
        for name in out_a:
            assert out_a[name].tobytes() == out_b[name].tobytes()

    def test_missing_param_bucket_skipped(self):
        eddp, shapes = make_eddp(2)
        partial = [{"w1": g["w1"]} for g in (grads_for(0, shapes), grads_for(1, shapes))]
        out = eddp.synchronize([flats_for(eddp, g) for g in partial])
        assert set(out) == {"w1"}

    def test_bucket_missing_from_one_vrank_rejected(self):
        eddp, shapes = make_eddp(2)
        full = flats_for(eddp, grads_for(0, shapes))
        partial = flats_for(eddp, {"w1": grads_for(1, shapes)["w1"]})
        with pytest.raises(KeyError):
            eddp.synchronize([full, partial])

    def test_read_only_flats_accepted_and_result_owns_memory(self):
        eddp, shapes = make_eddp(3)
        flats = [flats_for(eddp, grads_for(v, shapes)) for v in range(3)]
        for vrank_flats in flats:
            for flat in vrank_flats.values():
                flat.flags.writeable = False
        out = eddp.synchronize(flats)
        for grad in out.values():
            assert grad.flags.writeable and grad.flags.c_contiguous
            assert not any(
                np.shares_memory(grad, flat) for fl in flats for flat in fl.values()
            )


class TestReconstruction:
    def test_happens_once(self):
        eddp, _ = make_eddp()
        assert eddp.maybe_reconstruct(["w2", "w1", "w3"])
        first = eddp.buckets.to_state()
        assert not eddp.maybe_reconstruct(["w3", "w2", "w1"])
        assert eddp.buckets.to_state() == first

    def test_changes_layout(self):
        eddp, _ = make_eddp()
        initial = eddp.buckets.to_state()
        eddp.maybe_reconstruct(["w1", "w2", "w3"])
        assert eddp.buckets.to_state() != initial

    def test_partial_arrival_padded(self):
        eddp, _ = make_eddp()
        eddp.maybe_reconstruct(["w2"])  # w1/w3 appended deterministically
        assert sorted(eddp.buckets.all_names) == ["w1", "w2", "w3"]


class TestMappingCheckpoint:
    def test_export_none_when_not_recording(self):
        eddp, _ = make_eddp(record=False)
        assert eddp.export_mapping() is None

    def test_export_import_roundtrip(self):
        eddp, _ = make_eddp(record=True)
        eddp.maybe_reconstruct(["w3", "w1", "w2"])
        state = eddp.export_mapping()

        fresh, _ = make_eddp(record=True)
        fresh.import_mapping(state)
        assert fresh.buckets.to_state() == eddp.buckets.to_state()
        assert fresh.reconstructed  # rebuild disabled after restore

    def test_import_none_reenables_reconstruction(self):
        """The D0 failure mode: restore without mapping -> initial layout
        is back and reconstruction will fire again."""
        fresh, _ = make_eddp(record=False)
        fresh.import_mapping(None)
        assert not fresh.reconstructed
        initial, _ = make_eddp()
        assert fresh.buckets.to_state() == initial.buckets.to_state()
