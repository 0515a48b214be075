"""EasyScaleThread: context capture, restore, relocation."""

import numpy as np
import pytest

from repro.core.est import EasyScaleThread, ESTContext, est_rng


class TestESTRng:
    def test_stream_depends_only_on_seed_and_vrank(self):
        a = EasyScaleThread(7, 2)
        b = EasyScaleThread(7, 2)
        assert np.array_equal(a.rng.normal((5,)), b.rng.normal((5,)))

    def test_vranks_decorrelated(self):
        a = EasyScaleThread(7, 0)
        b = EasyScaleThread(7, 1)
        assert not np.array_equal(a.rng.normal((5,)), b.rng.normal((5,)))

    def test_negative_vrank_rejected(self):
        with pytest.raises(ValueError):
            EasyScaleThread(7, -1)


class TestContextSwitching:
    def test_save_restore_resumes_stream(self):
        est = EasyScaleThread(7, 1)
        est.rng.normal((3,))  # advance
        ctx = est.save_context()
        expected = est.rng.normal((4,))
        est.load_context(ctx)
        np.testing.assert_array_equal(est.rng.normal((4,)), expected)

    def test_relocation_to_new_worker(self):
        """An EST checkpointed on one worker resumes identically elsewhere."""
        original = EasyScaleThread(7, 3)
        original.rng.normal((10,))
        ctx = original.save_context()
        expected = original.rng.normal((6,))

        relocated = EasyScaleThread.from_context(ctx)
        np.testing.assert_array_equal(relocated.rng.normal((6,)), expected)

    def test_from_context_equals_seeded_then_loaded(self):
        """Built from the state alone, every stream is where a seeded EST
        that loaded the context would be, the gaussian cache included."""
        original = EasyScaleThread(11, 2)
        original.rng.python.gauss(0.0, 1.0)  # leaves a cached second gaussian
        original.rng.normal((5,))
        original.rng.permutation(9)
        ctx = original.save_context()
        loaded = EasyScaleThread(11, 2)
        loaded.load_context(ctx)
        rebuilt = EasyScaleThread.from_context(ctx)
        assert rebuilt.vrank == 2 and rebuilt.staged_grads is None
        assert vars(rebuilt).keys() == vars(loaded).keys()
        assert rebuilt.rng.get_state() == loaded.rng.get_state()
        assert rebuilt.rng.python.gauss(0.0, 1.0) == loaded.rng.python.gauss(0.0, 1.0)
        np.testing.assert_array_equal(rebuilt.rng.normal((4,)), loaded.rng.normal((4,)))
        np.testing.assert_array_equal(rebuilt.rng.permutation(7), loaded.rng.permutation(7))

    def test_vrank_mismatch_rejected(self):
        est = EasyScaleThread(7, 1)
        ctx = EasyScaleThread(7, 2).save_context()
        with pytest.raises(ValueError):
            est.load_context(ctx)

    def test_context_state_roundtrip(self):
        ctx = EasyScaleThread(7, 4).save_context()
        restored = ESTContext.from_state(ctx.to_state())
        assert restored.vrank == 4
        assert restored.rng_state == ctx.rng_state

    def test_context_is_small(self):
        """The whole point: EST contexts are bytes, not model replicas."""
        from repro.utils.serialization import sizeof_state

        ctx = EasyScaleThread(7, 0).save_context()
        assert sizeof_state(ctx.to_state()) < 10_000
