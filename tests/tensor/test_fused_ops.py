"""Fused autograd nodes == the composed spellings they replaced, bit for bit.

Environment-independent counterpart of ``test_golden_bits.py``: both sides
run here, on this BLAS, so the comparison holds wherever the tests run.
Each property builds the same surrounding graph twice — once around the
fused op from ``repro.tensor.ops``, once around the primitive-op oracle in
``tests/tensor/reference_ops.py`` — and compares ``tobytes()`` of the
output, every gradient, the batch statistics, and the order in which leaf
tensors received their gradient (DDP's bucket layout follows it).
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.tensor import (
    BASELINE_POLICY,
    D0_POLICY,
    D2_POLICY,
    Tensor,
    execution_context,
    global_autotuner,
    kernels,
    ops,
)
from repro.tensor.tensor import leaf_grad_hook

from tests.tensor import reference_ops

#: the four dialects (three vendor ones under D0, the agnostic one under
#: D2) plus the baseline policy, whose autotuner and atomic-interleave
#: counter pick kernel variants by *call count*
CONFIGS = [
    ("v100", D0_POLICY),
    ("p100", D0_POLICY),
    ("t4", D0_POLICY),
    ("v100", D2_POLICY),
    ("v100", BASELINE_POLICY),
    ("t4", BASELINE_POLICY),
]
config_strategy = st.sampled_from(CONFIGS)


def _signed_zero_array(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws with a fifth of the entries forced to +0.0 and to -0.0."""
    arr = rng.normal(size=shape).astype(np.float32)
    pick = rng.random(size=shape)
    arr[pick < 0.2] = 0.0
    arr[pick < 0.1] = -0.0
    return arr


def _run(
    op: Callable[[Tensor, Dict[str, Tensor]], Sequence[object]],
    leaves: Dict[str, np.ndarray],
    config,
    seed: int,
    op_first: bool,
) -> Dict[str, object]:
    """Build ``leaves -> x -> {op, two more consumers} -> loss`` and backprop.

    ``x`` has a leaf upstream of it (so "before/after everything upstream
    of x" is observable in the arrival order), is ReLU-masked (exact zeros
    in the data, signed zeros in the gradients) and feeds two consumers
    beside ``op`` — at least three gradient contributions, whose
    accumulation order is part of the bits.
    """
    dialect, policy = config
    global_autotuner().reset()
    kernels._atomic_interleave = 0
    rng = np.random.default_rng(seed)
    tensors = {name: Tensor(data.copy(), requires_grad=True) for name, data in leaves.items()}
    names = {id(t): name for name, t in tensors.items()}
    arrival: List[str] = []
    with execution_context(dialect, policy):
        x = (tensors["input"] * tensors["gate"]).relu()
        out, *stats = op(x, tensors)
        head = (out * Tensor(_signed_zero_array(rng, out.shape))).relu().sum()
        side = (x * Tensor(_signed_zero_array(rng, x.shape))).sum() + (x * x).sum()
        loss = head + side if op_first else side + head
        with leaf_grad_hook(lambda t: arrival.append(names[id(t)])):
            loss.backward()
    result: Dict[str, object] = {
        "out": out.data.tobytes(),
        "loss": loss.data.tobytes(),
        "x.grad": x.grad.tobytes(),
        "arrival": arrival,
        "stats": [np.asarray(s).tobytes() for s in stats],
    }
    for name, tensor in tensors.items():
        result[f"{name}.grad"] = tensor.grad.tobytes()
    return result


def _assert_same(fused: Dict[str, object], oracle: Dict[str, object]) -> None:
    assert fused.keys() == oracle.keys()
    for key in fused:
        assert fused[key] == oracle[key], f"{key} differs from the composed oracle"


class TestBatchNorm:
    @given(
        n=st.integers(1, 4), c=st.integers(1, 4), h=st.integers(1, 5), w=st.integers(1, 5),
        config=config_strategy, seed=st.integers(0, 2**16), op_first=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_2d_matches_composed_graph(self, n, c, h, w, config, seed, op_first):
        rng = np.random.default_rng(seed)
        leaves = {
            "input": _signed_zero_array(rng, (n, c, h, w)),
            "gate": rng.normal(size=(1, c, 1, 1)).astype(np.float32),
            "weight": rng.normal(size=(c,)).astype(np.float32),
            "bias": rng.normal(size=(c,)).astype(np.float32),
        }

        def build(module):
            def op(x, t):
                shape = (1, c, 1, 1)
                return module.batch_norm(
                    x, t["weight"].reshape(shape), t["bias"].reshape(shape), 1e-5, (0, 2, 3)
                )
            return op

        _assert_same(
            _run(build(ops), leaves, config, seed, op_first),
            _run(build(reference_ops), leaves, config, seed, op_first),
        )

    @given(
        n=st.integers(1, 6), c=st.integers(1, 5),
        config=config_strategy, seed=st.integers(0, 2**16), op_first=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_1d_matches_composed_graph(self, n, c, config, seed, op_first):
        # BatchNorm1d hands the (C,) leaves in directly, so they receive
        # their gradient *before* everything upstream of x
        rng = np.random.default_rng(seed)
        leaves = {
            "input": _signed_zero_array(rng, (n, c)),
            "gate": rng.normal(size=(1, c)).astype(np.float32),
            "weight": rng.normal(size=(c,)).astype(np.float32),
            "bias": rng.normal(size=(c,)).astype(np.float32),
        }

        def build(module):
            return lambda x, t: module.batch_norm(x, t["weight"], t["bias"], 1e-5, (0,))

        _assert_same(
            _run(build(ops), leaves, config, seed, op_first),
            _run(build(reference_ops), leaves, config, seed, op_first),
        )

    @pytest.mark.parametrize("layer_cls, shape, axes", [
        (nn.BatchNorm2d, (3, 4, 2, 5), (0, 2, 3)),
        (nn.BatchNorm1d, (6, 4), (0,)),
    ])
    def test_layers_fold_the_oracle_statistics(self, layer_cls, shape, axes):
        layer = layer_cls(4)
        x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        out = layer(Tensor(x))
        w, b = layer._affine()
        ref_out, mean, var = reference_ops.batch_norm(Tensor(x), w, b, layer.eps, axes)
        assert out.data.tobytes() == ref_out.data.tobytes()
        n = x.size // 4
        expected = nn.BatchNorm1d(4)
        expected.fold_stats(mean.reshape(-1), var.reshape(-1) * (n / (n - 1)))
        assert layer.running_mean.tobytes() == expected.running_mean.tobytes()
        assert layer.running_var.tobytes() == expected.running_var.tobytes()

    def test_eval_mode_uses_running_statistics_and_keeps_gradients(self):
        layer = nn.BatchNorm2d(3)
        layer.fold_stats(np.float32([0.5, -1.0, 2.0]), np.float32([4.0, 0.25, 1.0]))
        layer.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 2, 2)).astype(np.float32),
                   requires_grad=True)
        before = layer.running_mean.copy()
        out = layer(x)
        mean = layer.running_mean.reshape(1, 3, 1, 1)
        var = layer.running_var.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(out.data, (x.data - mean) / np.sqrt(var + 1e-5), rtol=1e-5)
        out.sum().backward()
        assert x.grad is not None and layer.weight.grad is not None
        assert layer.running_mean.tobytes() == before.tobytes()


class TestConv2d:
    @given(
        n=st.integers(1, 3), groups=st.integers(1, 2),
        c_in_g=st.integers(1, 3), c_out_g=st.integers(1, 3),
        h=st.integers(1, 6), w=st.integers(1, 6), kernel=st.integers(1, 3),
        stride=st.integers(1, 3), pad=st.integers(0, 1), with_bias=st.booleans(),
        config=config_strategy, seed=st.integers(0, 2**16), op_first=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_composed_graph(
        self, n, groups, c_in_g, c_out_g, h, w, kernel, stride, pad, with_bias,
        config, seed, op_first,
    ):
        assume(h + 2 * pad >= kernel and w + 2 * pad >= kernel)
        rng = np.random.default_rng(seed)
        c_in, c_out = groups * c_in_g, groups * c_out_g
        leaves = {
            "input": _signed_zero_array(rng, (n, c_in, h, w)),
            "gate": rng.normal(size=(1, c_in, 1, 1)).astype(np.float32),
            "weight": _signed_zero_array(rng, (c_out, c_in_g, kernel, kernel)),
        }
        if with_bias:
            leaves["bias"] = rng.normal(size=(c_out,)).astype(np.float32)

        def build(module):
            def op(x, t):
                return [module.conv2d(x, t["weight"], t.get("bias"), stride, pad, groups)]
            return op

        _assert_same(
            _run(build(ops), leaves, config, seed, op_first),
            _run(build(reference_ops), leaves, config, seed, op_first),
        )

    @pytest.mark.parametrize("input_grad", [False, True])
    def test_conv_on_a_leaf_input(self, input_grad):
        # the stem conv: without an input gradient only the weight GEMM
        # runs; with one, the weight still receives its gradient first
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        seen = []
        for module in (ops, reference_ops):
            global_autotuner().reset()
            weight = Tensor(w.copy(), requires_grad=True)
            image = Tensor(x.copy(), requires_grad=input_grad)
            arrival = []
            with execution_context("v100", BASELINE_POLICY), leaf_grad_hook(
                lambda t: arrival.append("weight" if t is weight else "image")
            ):
                module.conv2d(image, weight, padding=1).sum().backward()
            assert arrival == (["weight", "image"] if input_grad else ["weight"])
            seen.append((weight.grad.tobytes(), image.grad.tobytes() if input_grad else None))
        assert seen[0] == seen[1]


def _edge_value_array(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws salted with ±0.0, ±inf and ±subnormals."""
    arr = rng.normal(size=shape).astype(np.float32)
    pick = rng.random(size=shape)
    edges = (0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 3e-39, -3e-39)
    for i, value in enumerate(edges):
        arr[(pick >= i * 0.05) & (pick < (i + 1) * 0.05)] = value
    return arr


#: one resnet18 step at the ``train_conv_serial`` sizes folds these
#: geometries ``(h, w, kh, kw, stride, pad, out_h, out_w)`` through a plan;
#: its fourth, the 1x1/s2 shortcut, has no overlapping windows and no plan
RESNET18_PLANS = (
    (4, 4, 3, 3, 1, 1, 4, 4),
    (8, 8, 3, 3, 1, 1, 8, 8),
    (8, 8, 3, 3, 2, 1, 4, 4),
)


class TestCol2im:
    @given(
        n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
        kh=st.integers(1, 5), kw=st.integers(1, 5), stride=st.integers(1, 3),
        pad=st.integers(0, 2), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_strided_add_loop(self, n, c, h, w, kh, kw, stride, pad, seed):
        # stride > kernel leaves pixels no window covers; an all-(-0.0)
        # pixel must come out +0.0, and inf - inf the same NaN
        assume(h + 2 * pad >= kh and w + 2 * pad >= kw)
        out_h, out_w = ops._conv_geometry(h, w, kh, kw, stride, pad)
        cols = _edge_value_array(np.random.default_rng(seed), (n, c * kh * kw, out_h * out_w))
        geometry = ((n, c, h, w), kh, kw, stride, pad, out_h, out_w)
        with np.errstate(invalid="ignore"):
            got = ops._col2im(cols, *geometry)
            want = reference_ops._col2im(cols, *geometry)
        assert got.shape == want.shape and got.dtype == np.float32 and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_a_plan_is_built_once_per_geometry(self):
        from repro.core import (
            EasyScaleEngine,
            EasyScaleJobConfig,
            WorkerAssignment,
            determinism_from_label,
        )
        from repro.exec import SerialBackend
        from repro.hw import gpu_type
        from repro.models import get_workload
        from repro.optim import SGD

        spec = get_workload("resnet18")
        engine = EasyScaleEngine(
            spec,
            spec.build_dataset(64, seed=7),
            EasyScaleJobConfig(
                num_ests=4, seed=7, batch_size=8, determinism=determinism_from_label("D1+D2")
            ),
            lambda model: SGD(model.named_parameters(), lr=0.05, momentum=0.9),
            WorkerAssignment.balanced([gpu_type("V100")] * 2, 4),
            backend=SerialBackend(),
        )
        ops._col2im_plan.cache_clear()
        engine.run_global_step()
        built = ops._col2im_plan.cache_info()
        assert (built.misses, built.currsize) == (len(RESNET18_PLANS), len(RESNET18_PLANS))
        engine.run_global_step()
        assert ops._col2im_plan.cache_info().misses == built.misses
        for geometry in RESNET18_PLANS:
            assert not ops._col2im_plan(*geometry).flags.writeable
        assert ops._col2im_plan.cache_info().misses == built.misses


class TestLinear:
    @given(
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        k=st.integers(1, 40), out=st.integers(1, 5),
        with_bias=st.booleans(), relu=st.booleans(),
        config=config_strategy, seed=st.integers(0, 2**16), op_first=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_composed_graph(self, lead, k, out, with_bias, relu, config, seed, op_first):
        # 2-D activations (NeuMF, the classifier heads) and 3-D ones
        # (ELECTRA / Swin: the weight GEMM is batched and folded back)
        rng = np.random.default_rng(seed)
        leaves = {
            "input": _signed_zero_array(rng, (*lead, k)),
            "gate": rng.normal(size=(k,)).astype(np.float32),
            "weight": _signed_zero_array(rng, (out, k)),
        }
        if with_bias:
            leaves["bias"] = rng.normal(size=(out,)).astype(np.float32)

        def build(module):
            return lambda x, t: [module.linear(x, t["weight"], t.get("bias"), relu)]

        _assert_same(
            _run(build(ops), leaves, config, seed, op_first),
            _run(build(reference_ops), leaves, config, seed, op_first),
        )

    @pytest.mark.parametrize("input_grad", [False, True])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_linear_on_a_leaf_input(self, config, relu, input_grad):
        # the first layer of an MLP: without an input gradient only the
        # weight GEMM runs (the baseline autotuner counts calls)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7)).astype(np.float32)
        w, b = _signed_zero_array(rng, (3, 7)), rng.normal(size=(3,)).astype(np.float32)
        seen = []
        for module in (ops, reference_ops):
            global_autotuner().reset()
            leaves = {
                "x": Tensor(x.copy(), requires_grad=input_grad),
                "weight": Tensor(w.copy(), requires_grad=True),
                "bias": Tensor(b.copy(), requires_grad=True),
            }
            names = {id(t): name for name, t in leaves.items()}
            arrival = []
            with execution_context(*config), leaf_grad_hook(lambda t: arrival.append(names[id(t)])):
                out = module.linear(leaves["x"], leaves["weight"], leaves["bias"], relu)
                (out * out).sum().backward()
            assert arrival == (["bias", "x", "weight"] if input_grad else ["bias", "weight"])
            seen.append([out.data.tobytes()] + [
                t.grad.tobytes() for t in leaves.values() if t.requires_grad
            ])
        assert seen[0] == seen[1]

    def test_layer_routes_through_the_fused_node(self):
        from repro.utils.rng import RNGBundle

        layer = nn.Linear(4, 3, RNGBundle(1))
        out = layer(Tensor(np.ones((2, 4), dtype=np.float32)))
        _, wt, bias = out._prev
        assert wt._prev == (layer.weight,) and bias is layer.bias


def _logits_array(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws salted with signed zeros and logits large enough to saturate."""
    arr = rng.normal(size=shape).astype(np.float32) * 3
    pick = rng.random(size=shape)
    for bound, value in ((0.1, 0.0), (0.2, -0.0), (0.25, 40.0), (0.3, -40.0), (0.33, 1e4), (0.36, -1e4)):
        arr[(pick < bound) & (pick >= bound - 0.1)] = value
    return arr


class TestBceWithLogits:
    @given(
        shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        config=config_strategy, seed=st.integers(0, 2**16), op_first=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_composed_graph(self, shape, config, seed, op_first):
        results = []
        for module in (ops, reference_ops):
            dialect, policy = config
            global_autotuner().reset()
            kernels._atomic_interleave = 0
            rng = np.random.default_rng(seed)
            logits = Tensor(_logits_array(rng, tuple(shape)), requires_grad=True)
            gate = Tensor(np.ones(tuple(shape), dtype=np.float32), requires_grad=True)
            targets = (rng.random(size=tuple(shape)) < 0.5).astype(np.float32)
            weight = _signed_zero_array(rng, tuple(shape))
            arrival = []
            with execution_context(dialect, policy):
                x = logits * gate  # the logits' exact zeros and saturating values survive
                loss = module.bce_with_logits(x, targets)
                side = (x * Tensor(weight)).sum() + (x * x).sum()
                total = loss * 3.0 + side if op_first else side + loss * 3.0
                with leaf_grad_hook(lambda t: arrival.append("logits" if t is logits else "gate")):
                    total.backward()
            results.append({
                "loss": loss.data.tobytes(), "total": total.data.tobytes(),
                "x.grad": x.grad.tobytes(), "logits.grad": logits.grad.tobytes(),
                "gate.grad": gate.grad.tobytes(), "arrival": arrival,
            })
        _assert_same(*results)

    def test_loss_routes_through_the_fused_node(self):
        x = Tensor(np.float32([0.5, -2.0, 0.0]), requires_grad=True)
        loss = nn.bce_with_logits(x, np.float32([1.0, 0.0, 1.0]))
        assert loss._prev == (x,)
        assert loss.data.tobytes() == reference_ops.bce_with_logits(
            Tensor(x.data), np.float32([1.0, 0.0, 1.0])
        ).data.tobytes()


def _graph_nodes(root: Tensor) -> List[Tensor]:
    """Every tensor reachable from ``root`` through ``_prev`` (leaves included)."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    return list(seen.values())


def test_neumf_forward_and_loss_is_at_most_16_graph_nodes():
    from repro.models import get_workload
    from repro.utils.rng import RNGBundle

    spec = get_workload("neumf")
    model = spec.build_model(RNGBundle(7))
    xs, ys = zip(*[spec.build_dataset(8, seed=7)[i] for i in range(8)])
    loss = spec.forward_loss(model, np.stack(xs), np.asarray(ys))
    ops_nodes = [node for node in _graph_nodes(loss) if node._prev]
    assert len(ops_nodes) <= 16, len(ops_nodes)  # 30 when every layer was composed


class TestGradientOwnership:
    """``_accumulate`` keeps a first contribution the op owns; nothing may alias it."""

    @given(seed=st.integers(0, 2**16), relu=st.booleans(), config=config_strategy)
    @settings(max_examples=60, deadline=None)
    def test_no_grad_aliases_another_grad_or_a_saved_operand(self, seed, relu, config):
        from repro.utils.rng import RNGBundle

        rng = np.random.default_rng(seed)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        table, w1, b1, w2, b2, scale = leaf(6, 4), leaf(5, 8), leaf(5), leaf(3, 5), leaf(3), leaf(1, 8)
        full_bias, square = leaf(4, 5), leaf(3, 3)
        rows = rng.integers(0, 6, size=(4,))
        with execution_context(*config), nn.use_rng(RNGBundle(seed)):
            emb = ops.embedding(table, rows)                       # owning
            wide = ops.concat([emb, emb.relu()], axis=1) * scale   # pass-through, then owning
            hidden = ops.linear(wide, w1, b1, relu)                # owning, bias folds
            hidden = hidden.reshape(2, 2, 5).transpose(1, 0, 2)    # two views
            logits = ops.linear(hidden, w2, b2)                    # 3-D, no ReLU
            picked = logits[0] + logits[1]                         # scatter + pass-through
            # a bias of the output's shape: its gradient *is* the incoming one
            flat = ops.linear(wide, w1, full_bias) + (-b1) / 2.0
            loss = (
                ops.bce_with_logits(picked.matmul(square), (rng.random((2, 3)) < 0.5))
                + flat.exp().sum() + ops.mean_over(picked.tanh(), (0, 1))
            )
            nodes = _graph_nodes(loss)
            loss.backward()
        graded = [node for node in nodes if node.grad is not None]
        assert {id(t) for t in (table, w1, b1, w2, b2, scale, full_bias, square)} <= {id(t) for t in graded}
        for i, node in enumerate(graded):
            assert node.grad.dtype == np.float32 and node.grad.flags.c_contiguous
            for other in graded[i + 1:]:
                assert not np.shares_memory(node.grad, other.grad)
            for other in nodes:
                assert not np.shares_memory(node.grad, other.data)

    def test_staged_gradients_of_two_ests_never_alias(self):
        from repro.comm.bucketing import build_initial_buckets
        from repro.core.est import EasyScaleThread
        from repro.core.worker import EasyScaleWorker
        from repro.data.dataloader import SharedDataLoader
        from repro.hw import V100
        from repro.models import get_workload
        from repro.utils.rng import RNGBundle

        spec = get_workload("neumf")
        model = spec.build_model(RNGBundle(5))
        loader = SharedDataLoader(spec.build_dataset(64, seed=3), num_replicas=2, batch_size=8, seed=5)
        ests = [EasyScaleThread(5, vrank) for vrank in range(2)]
        worker = EasyScaleWorker(0, V100, ests, spec, D2_POLICY, validate_memory=False)
        named = dict(model.named_parameters())
        layout = build_initial_buckets(list(named), {n: p.data.size for n, p in named.items()}, 4096)
        worker.run_global_step(
            model, load_batch=lambda v: loader.load(v, 0, 0), named_params=named, layout=layout
        )
        first, second = (est.staged_grads for est in ests)
        assert first.keys() == second.keys()
        assert sorted(n for _, names in first for n in names) == sorted(named)
        arrays = list(first.values()) + list(second.values())
        for i, grad in enumerate(arrays):
            for other in arrays[i + 1:]:
                assert not np.shares_memory(grad, other)
            for param in named.values():
                assert param.grad is None and not np.shares_memory(grad, param.data)


class TestLayerArrivalOrder:
    """When each layer's leaves receive their gradient, relative to upstream.

    The order feeds ``rebuild_from_arrival``: a fused batch-norm whose
    parents were the bare ``(x, weight, bias)`` leaves computed identical
    gradients and still changed the trained bits through the bucket layout.
    """

    @staticmethod
    def _arrival(layer, x_shape):
        from repro.utils.rng import RNGBundle

        upstream = nn.Linear(x_shape[-1], x_shape[-1], RNGBundle(0))
        names = {id(upstream.weight): "upstream.weight", id(upstream.bias): "upstream.bias"}
        names.update({id(p): name for name, p in layer.named_parameters()})
        x = upstream(Tensor(np.random.default_rng(1).normal(size=x_shape).astype(np.float32)))
        arrival = []
        with leaf_grad_hook(lambda t: arrival.append(names[id(t)])):
            layer(x).sum().backward()
        return arrival

    def test_batchnorm2d_affine_arrives_after_upstream(self):
        assert self._arrival(nn.BatchNorm2d(3), (2, 3, 4, 4)) == [
            "upstream.bias", "upstream.weight", "weight", "bias",
        ]

    def test_batchnorm1d_affine_arrives_before_upstream(self):
        assert self._arrival(nn.BatchNorm1d(4), (5, 4)) == [
            "bias", "weight", "upstream.bias", "upstream.weight",
        ]

    def test_conv_weight_arrives_before_upstream_and_bias_after(self):
        from repro.utils.rng import RNGBundle

        conv = nn.Conv2d(3, 2, 3, RNGBundle(2), padding=1)
        assert self._arrival(conv, (2, 3, 4, 4)) == [
            "weight", "upstream.bias", "upstream.weight", "bias",
        ]

    def test_linear_bias_arrives_before_upstream_and_weight_after(self):
        # the transpose node under a Linear weight is what makes it late
        from repro.utils.rng import RNGBundle

        assert self._arrival(nn.Linear(4, 3, RNGBundle(2)), (5, 4)) == [
            "bias", "upstream.bias", "upstream.weight", "weight",
        ]

    @pytest.mark.parametrize("relu", [False, True])
    def test_two_linear_layers_arrive_as_b2_b_x_w_w2(self, relu):
        rng = np.random.default_rng(4)
        leaves = {
            "x": (6, 4), "w": (5, 4), "b": (5,), "w2": (3, 5), "b2": (3,),
        }
        tensors = {
            name: Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            for name, shape in leaves.items()
        }
        names = {id(t): name for name, t in tensors.items()}
        for module in (ops, reference_ops):
            arrival = []
            hidden = module.linear(tensors["x"], tensors["w"], tensors["b"], relu)
            out = module.linear(hidden, tensors["w2"], tensors["b2"])
            with leaf_grad_hook(lambda t: arrival.append(names[id(t)])):
                out.sum().backward()
            assert arrival == ["b2", "b", "x", "w", "w2"]


class TestReduceOver:
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        data=st.data(), keepdims=st.booleans(), mean=st.booleans(),
        config=config_strategy, seed=st.integers(0, 2**16), op_first=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_composed_graph(self, shape, data, keepdims, mean, config, seed, op_first):
        axes = tuple(data.draw(
            st.lists(st.integers(0, len(shape) - 1), min_size=1, max_size=len(shape), unique=True)
        ))
        rng = np.random.default_rng(seed)
        leaves = {
            "input": _signed_zero_array(rng, tuple(shape)),
            "gate": rng.normal(size=tuple(shape)).astype(np.float32),
        }
        name = "mean_over" if mean else "sum_over"

        def build(module):
            return lambda x, t: [getattr(module, name)(x, axes, keepdims=keepdims)]

        _assert_same(
            _run(build(ops), leaves, config, seed, op_first),
            _run(build(reference_ops), leaves, config, seed, op_first),
        )

    def test_int_axis(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = ops.mean_over(x, 1)
        np.testing.assert_array_equal(out.data, [1.0, 4.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 3, dtype=np.float32))


class TestSplitKGemm:
    @pytest.mark.parametrize("k", [1, 15, 16, 17, 576])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "batched"])
    def test_same_bits_as_the_copying_loop(self, k, layout):
        rng = np.random.default_rng(k)
        if layout == "batched":
            a = _signed_zero_array(rng, (9, k))
            b = _signed_zero_array(rng, (3, k, 21))
        elif layout == "transposed":
            a = _signed_zero_array(rng, (k, 9)).T
            b = _signed_zero_array(rng, (3, 21, k)).swapaxes(-1, -2)
        elif layout == "strided":
            a = _signed_zero_array(rng, (9, 2 * k))[:, ::2]
            b = _signed_zero_array(rng, (2, k, 3, 21))[:, :, 1]
        else:
            a = _signed_zero_array(rng, (9, k))
            b = _signed_zero_array(rng, (k, 21))
        for block in (16, max(8, k // 2)):
            got = kernels._matmul_splitk(a, b, block)
            assert got.tobytes() == reference_ops.matmul_splitk(a, b, block).tobytes()
        assert kernels._matmul_agnostic(a, b).tobytes() == reference_ops.matmul_splitk(a, b, 16).tobytes()
        # astype's default order="K" keeps a transposed operand transposed,
        # and the layout is part of the bits (BLAS sums a C-ordered copy
        # of the same values in another order)
        direct = np.matmul(a.astype(np.float32), b.astype(np.float32))
        assert kernels._matmul_f32_direct(a, b).tobytes() == direct.tobytes()

    def test_operands_are_not_copied(self):
        a = np.ones((64, 4096), dtype=np.float32)
        b = np.ones((4096, 8), dtype=np.float32)
        for fn in (kernels._matmul_agnostic, kernels._matmul_t4, kernels._matmul_f32_direct):
            fn(a, b)  # warm BLAS buffers
            tracemalloc.start()
            try:
                fn(a, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < b.nbytes, f"{fn.__name__} allocated {peak} bytes: an operand copy"


class TestReduceSequential:
    @given(
        shape=st.lists(st.sampled_from([1, 2, 3, 7, 63, 64, 65, 130]), min_size=1, max_size=3),
        data=st.data(), keepdims=st.booleans(), transpose=st.booleans(), step=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_the_moveaxis_route(self, shape, data, keepdims, transpose, step, seed):
        x = _signed_zero_array(np.random.default_rng(seed), tuple(shape))
        if transpose:
            x = x.T
        x = x[::step]
        axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
        got = kernels._reduce_sequential(x, axis, keepdims)
        want = reference_ops.reduce_sequential(x, axis, keepdims)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
