"""On-demand checkpoints: structure validation and byte round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import Checkpoint
from repro.core.est import EasyScaleThread
from repro.utils.serialization import deep_equal


def make_checkpoint(num_ests=3, seed=5):
    ests = [EasyScaleThread(seed, v) for v in range(num_ests)]
    return Checkpoint(
        est_contexts=[e.save_context().to_state() for e in ests],
        extra={"epoch": 1, "step_in_epoch": 2, "global_step": 10, "bucket_mapping": None,
               "loader": {"pending": {}}, "determinism": "D1"},
        params={"model": {"w": np.float32([1.0, np.nan])}, "optimizer": {"lr": 0.1, "state": {}, "extra": {}},
                "scheduler": None},
        meta={"workload": "resnet18", "num_ests": num_ests, "seed": seed},
    )


class TestValidation:
    def test_requires_contexts(self):
        with pytest.raises(ValueError):
            Checkpoint(est_contexts=[], extra={}, params={})

    def test_vrank_coverage_checked(self):
        ests = [EasyScaleThread(0, v) for v in (0, 2)]  # gap at 1
        with pytest.raises(ValueError):
            Checkpoint(
                est_contexts=[e.save_context().to_state() for e in ests],
                extra={},
                params={},
            )

    def test_duplicate_vranks_rejected(self):
        ctx = EasyScaleThread(0, 0).save_context().to_state()
        with pytest.raises(ValueError):
            Checkpoint(est_contexts=[ctx, dict(ctx)], extra={}, params={})

    def test_context_lookup(self):
        ckpt = make_checkpoint(4)
        assert ckpt.context_for(2).vrank == 2
        with pytest.raises(KeyError):
            ckpt.context_for(7)

    def test_num_ests(self):
        assert make_checkpoint(5).num_ests == 5


class TestSerialization:
    def test_roundtrip_bitwise(self):
        ckpt = make_checkpoint()
        restored = Checkpoint.from_bytes(ckpt.to_bytes())
        assert deep_equal(restored.params, ckpt.params)
        assert deep_equal(restored.extra, ckpt.extra)
        assert restored.meta == ckpt.meta
        assert restored.num_ests == ckpt.num_ests

    def test_version_check(self):
        import pickle

        payload = {"version": 99, "est_contexts": [], "extra": {}, "params": {}}
        with pytest.raises(ValueError):
            Checkpoint.from_bytes(pickle.dumps(payload))

    @given(num_ests=st.integers(1, 8), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_rng_states_survive_roundtrip(self, num_ests, seed):
        ests = [EasyScaleThread(seed, v) for v in range(num_ests)]
        for e in ests:
            e.rng.normal((e.vrank + 1,))  # advance unevenly
        expected = {e.vrank: e.rng.clone().normal((3,)) for e in ests}

        ckpt = Checkpoint(
            est_contexts=[e.save_context().to_state() for e in ests],
            extra={}, params={},
        )
        restored = Checkpoint.from_bytes(ckpt.to_bytes())
        for v in range(num_ests):
            est = EasyScaleThread.from_context(restored.context_for(v))
            np.testing.assert_array_equal(est.rng.normal((3,)), expected[v])
