import numpy as np
import pytest

from gpgait.autodiff import (Tensor, batch_norm_train, block_epilogue, concat,
                             spatial_graph_conv, stop_gradient, temporal_conv)
from gpgait.graph import mask_set
from reference import graph_conv, softmax


def finite_difference(fn, x0, h=1e-6):
    num = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        num.flat[i] = (fn(xp) - fn(xm)) / (2 * h)
    return num


def check_grad(build, x0, h=1e-6, tol=1e-6):
    """build maps a Tensor to a scalar Tensor."""
    x = Tensor(x0.copy(), requires_grad=True)
    y = build(x)
    y.backward()
    num = finite_difference(lambda a: build(Tensor(a)).item(), x0, h)
    err = np.abs(x.grad - num) / np.maximum(
        np.maximum(np.abs(x.grad), np.abs(num)), 1e-4)
    assert err.max() < tol, f"max rel grad error {err.max():.3e}"


def check_grads(build, arrays, rng, h=1e-6, tol=1e-6):
    """Central-difference check of every input of ``build``, which maps
    a list of Tensors to one Tensor; the scalar checked is the output
    weighted by a fixed random array."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(leaves)
    weight = rng.normal(size=out.shape)
    (out * Tensor(weight)).sum().backward()
    for j, leaf in enumerate(leaves):
        def value(a, j=j):
            inputs = [Tensor(b) for b in arrays]
            inputs[j] = Tensor(a)
            return float((build(inputs).data * weight).sum())
        num = finite_difference(value, arrays[j], h)
        err = np.abs(leaf.grad - num) / np.maximum(
            np.maximum(np.abs(leaf.grad), np.abs(num)), 1e-4)
        assert err.max() < tol, f"input {j}: max rel grad error {err.max():.3e}"


@pytest.fixture
def x0(rng):
    return rng.normal(size=(3, 4))


class TestElementwise:
    def test_add_mul(self, x0, rng):
        c = rng.normal(size=(3, 4))
        check_grad(lambda x: ((x + Tensor(c)) * x).sum(), x0)

    def test_broadcast_ops(self, x0, rng):
        row = rng.normal(size=(4,))
        check_grad(lambda x: ((x * Tensor(row)) / 3.0 - Tensor(row)).square().sum(), x0)

    def test_div_by_tensor(self, x0, rng):
        d = rng.normal(size=(3, 4)) + 5.0
        check_grad(lambda x: (x / Tensor(d)).sum(), x0)

    def test_relu_exp_log(self, x0):
        check_grad(lambda x: (x.relu() + 1.0).log().exp().sum(), x0)

    def test_sqrt_positive(self, x0):
        check_grad(lambda x: (x.square() + 1.0).sqrt().sum(), x0)

    def test_sqrt_zero_gradient_convention(self):
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        y = x.sqrt().sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.25])


class TestMatmulShapes:
    def test_plain(self, x0, rng):
        w = rng.normal(size=(4, 5))
        check_grad(lambda x: (x @ Tensor(w)).square().sum(), x0)

    def test_batched_broadcast(self, rng):
        f = rng.normal(size=(2, 3, 5, 4))
        h = rng.normal(size=(2, 1, 4, 4))
        x = Tensor(h.copy(), requires_grad=True)
        out = Tensor(f) @ x
        out.backward(np.ones_like(out.data))
        num = finite_difference(
            lambda a: float(np.matmul(f, a).sum()), h)
        np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)

    def test_vector_weight_sides(self, rng):
        a0 = rng.normal(size=(5, 4))
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = (Tensor(a0) @ w).sum()
        out.backward()
        num = finite_difference(
            lambda v: float((a0 @ v).sum()), w.data.copy())
        np.testing.assert_allclose(w.grad, num, rtol=1e-6)


class TestReductionsAndShape:
    def test_mean_axes(self, x0):
        check_grad(lambda x: x.mean(axis=(0, 1)) * 5.0, x0)

    def test_max_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 3.0], [2.0, 2.0, 0.0]]),
                   requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_array_equal(
            x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])  # first-index ties

    def test_reshape_transpose(self, x0):
        check_grad(lambda x: x.reshape(2, 6).transpose((1, 0)).square().sum(), x0)

    def test_getitem_slice(self, x0):
        check_grad(lambda x: x[1:3, 0:2].square().sum(), x0)

    def test_take_repeated_indices(self, x0):
        check_grad(lambda x: x.take([0, 2, 2, 1], axis=0).square().sum(), x0)

    def test_take_unique_indices(self, x0):
        check_grad(lambda x: x.take([3, 0, 2], axis=1).square().sum(), x0)

    def test_concat(self, x0):
        check_grad(lambda x: concat([x, x * 2.0], axis=1).square().sum(), x0)


class TestFusedOps:
    @pytest.mark.parametrize("per_sequence", [False, True])
    def test_graph_conv_gradient(self, rng, per_sequence):
        """All three subsets under the parts5 mask, with one adjacency
        for the batch or one per sequence."""
        mask = mask_set()["parts5"]
        n, k = 2, 3
        adj_shape = (n, 17, 17) if per_sequence else (17, 17)
        arrays = [rng.normal(size=(n, 3, 17, 3))]
        arrays += [rng.normal(size=adj_shape) * mask for _ in range(k)]
        arrays += [rng.normal(size=(3, 2)) for _ in range(k)]

        def build(t):
            return graph_conv(t[0], t[1:1 + k], t[1 + k:])

        # linear in each input, so a wide step has no truncation error
        # and keeps rounding noise far below the tolerance
        check_grads(build, arrays, rng, h=1e-3)
        # the value against the per-subset definition
        f, adjs, ws = arrays[0], arrays[1:1 + k], arrays[1 + k:]
        spec = "nvu,ntvc->ntuc" if per_sequence else "vu,ntvc->ntuc"
        expect = sum(np.einsum(spec, a, f @ w) for a, w in zip(adjs, ws))
        out = build([Tensor(a) for a in arrays]).data
        np.testing.assert_allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("attention", [False, True])
    def test_spatial_graph_conv_gradient(self, rng, attention):
        """Every input of the spatial node under the parts5 mask, with
        and without the attention term (exact zeros of the masked learned
        entries: ``test_pagcn.py::TestSpatial``)."""
        mask = mask_set()["parts5"]
        k, c_in, c_out, ce = 3, 3, 2, 2
        fixed = rng.uniform(size=(k, 17, 17))
        arrays = [rng.normal(size=(2, 3, 17, c_in))]
        arrays += [rng.normal(size=(17, 17)) for _ in range(k)]
        arrays += [rng.normal(size=(c_in, c_out)) for _ in range(k)]
        if attention:
            arrays += [rng.normal(size=(c_in, ce)) for _ in range(2 * k)]

        def build(t):
            return spatial_graph_conv(t[0], fixed, mask, t[1:1 + k],
                                      t[1 + k:1 + 2 * k], t[1 + 2 * k:1 + 3 * k],
                                      t[1 + 3 * k:])

        check_grads(build, arrays, rng, h=1e-5)

    @pytest.mark.parametrize("residual", [False, True])
    def test_block_epilogue_gradient(self, rng, residual):
        """Every input of the epilogue node (batch norm, ReLU, temporal
        conv, batch norm, ReLU, optional residual), and its batch
        statistics."""
        shape, c = (2, 4, 5, 3), 3
        arrays = [rng.normal(size=shape), rng.uniform(0.5, 1.5, size=c),
                  rng.normal(size=c), rng.normal(size=(3, c)),
                  rng.uniform(0.5, 1.5, size=c), rng.normal(size=c)]
        if residual:
            arrays.append(rng.normal(size=shape))

        def build(t):
            return block_epilogue(*t[:6], 1e-5, t[6] if residual else None)[0]

        check_grads(build, arrays, rng, h=1e-5)
        y = arrays[0]
        _, (mu1, var1), (mu2, var2) = block_epilogue(
            *[Tensor(a) for a in arrays[:6]], 1e-5)
        np.testing.assert_allclose(mu1, y.mean(axis=(0, 1, 2)), atol=1e-12)
        np.testing.assert_allclose(var1, y.var(axis=(0, 1, 2)), atol=1e-12)
        h = np.maximum((y - mu1) / np.sqrt(var1 + 1e-5) * arrays[1] + arrays[2], 0.0)
        z = temporal_conv(Tensor(h), Tensor(arrays[3])).data
        np.testing.assert_allclose(mu2, z.mean(axis=(0, 1, 2)), atol=1e-12)
        np.testing.assert_allclose(var2, z.var(axis=(0, 1, 2)), atol=1e-12)

    def test_temporal_conv_gradient(self, rng):
        """Kernel sizes 1, 3 and 5, a single frame and fewer frames than
        taps."""
        for t, k in ((6, 1), (6, 3), (6, 5), (1, 3), (1, 5), (2, 5), (4, 5)):
            arrays = [rng.normal(size=(2, t, 3, 4)), rng.normal(size=(k, 4))]
            check_grads(lambda x: temporal_conv(x[0], x[1]), arrays, rng, h=1e-3)
            x, kern = arrays
            padded = np.pad(x, [(0, 0), (k // 2, k // 2), (0, 0), (0, 0)])
            expect = sum(padded[:, d:d + t] * kern[d] for d in range(k))
            np.testing.assert_allclose(temporal_conv(Tensor(x), Tensor(kern)).data,
                                       expect, atol=1e-12)

    @pytest.mark.parametrize("shape,axes", [((3, 2, 4, 3), (0, 1, 2)),
                                            ((5, 4), (0,))])
    def test_batch_norm_gradient(self, rng, shape, axes):
        c = shape[-1]
        arrays = [rng.normal(1.0, 2.0, size=shape), rng.normal(size=c),
                  rng.normal(size=c)]
        # at a step of 1e-6 rounding noise alone reaches a few 1e-6 of
        # relative error on the smallest entries; at 1e-5 rounding and
        # truncation error both stay below the tolerance
        check_grads(lambda x: batch_norm_train(x[0], x[1], x[2], axes, 1e-5)[0],
                    arrays, rng, h=1e-5)
        x = arrays[0]
        out, mu, var = batch_norm_train(*[Tensor(a) for a in arrays], axes, 1e-5)
        np.testing.assert_allclose(mu, x.mean(axis=axes), atol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=axes), atol=1e-12)
        expect = ((x - x.mean(axis=axes)) / np.sqrt(x.var(axis=axes) + 1e-5)
                  * arrays[1] + arrays[2])
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        s = softmax(Tensor(rng.normal(size=(4, 9))), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_uniform_for_constants(self):
        s = softmax(Tensor(np.full((2, 17), 3.3)), axis=-1)
        np.testing.assert_allclose(s.data, 1.0 / 17, atol=1e-15)

    def test_gradient(self, x0, rng):
        g = rng.normal(size=(3, 4))
        check_grad(lambda x: (softmax(x, axis=-1) * Tensor(g)).sum(), x0)

    def test_masked_gradient(self, x0, rng):
        mask = np.zeros((3, 4), dtype=bool)
        mask[:, :3] = True
        g = rng.normal(size=(3, 4))
        check_grad(
            lambda x: (softmax(x, axis=-1, mask=mask) * Tensor(g)).sum(), x0)

    def test_masked_excludes(self, rng):
        mask = np.array([[True, True, False, False]])
        s = softmax(Tensor(rng.normal(size=(1, 4))), axis=-1, mask=mask)
        assert s.data[0, 2] == 0.0 and s.data[0, 3] == 0.0
        np.testing.assert_allclose(s.data.sum(), 1.0, atol=1e-12)


class TestGraphMechanics:
    def test_diamond_accumulation(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * 3.0
        z = y * y + y
        z.backward()
        assert x.grad == pytest.approx(2 * 6.0 * 3 + 3)

    def test_stop_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (stop_gradient(x) * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])

    def test_no_grad_tracking_when_not_required(self):
        x = Tensor(np.ones((2, 2)))
        y = (x @ x).relu()
        assert y._parents == () and y._backward is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert np.isfinite(x.grad)

    def test_intermediate_grads_released_leaf_grads_kept(self, rng):
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        hidden = (x @ w).relu()
        loss = (hidden * hidden).sum()
        loss.backward()
        assert w.grad is not None and w.grad.shape == (3, 2)
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if node._backward is not None:
                assert node.grad is None
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert id(w) in seen and id(hidden) in seen

    def test_leaves_own_their_grads(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_repeated_backward_zero_grad(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        (x * x).backward()
        g1 = float(x.grad)
        x.zero_grad()
        (x * x).backward()
        assert float(x.grad) == g1
