import copy

import numpy as np
import pytest

from gpgait.autodiff import (Arena, Role, Tensor, _bn_backward, _bn_normalize,
                             _frame_buffer, _temporal_conv, _temporal_conv_grads,
                             bnneck_classifier, graph_block, group_pool, slot_fc)
from gpgait.graph import mask_set
from gpgait.pagcn import PART_GROUPS
from reference import (OpTensor, batch_norm_train, concat, graph_conv,
                       joint_group_pool, softmax, stop_gradient,
                       stored_spatial_graph_conv, tap_temporal_conv,
                       tap_temporal_conv_grads, temporal_conv)


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
    """build maps an OpTensor to a scalar Tensor."""
    x = OpTensor(x0.copy(), requires_grad=True)
    y = build(x)
    y.backward()
    num = finite_difference(lambda a: build(OpTensor(a)).item(), x0, h)
    err = np.abs(x.grad - num) / np.maximum(
        np.maximum(np.abs(x.grad), np.abs(num)), 1e-4)
    assert err.max() < tol, f"max rel grad error {err.max():.3e}"


def check_grads(build, arrays, rng, h=1e-6, tol=1e-6):
    """Central-difference check of every input of ``build``, which maps
    a list of Tensors to one Tensor; the scalar checked is the output
    weighted by a fixed random array, the seed of its backward."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(leaves)
    weight = rng.normal(size=out.shape)
    out.backward(weight)
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
        check_grad(lambda x: ((x + OpTensor(c)) * x).sum(), x0)

    def test_broadcast_ops(self, x0, rng):
        row = rng.normal(size=(4,))
        check_grad(lambda x: (x * OpTensor(row) * (1.0 / 3.0) - OpTensor(row)).square().sum(), x0)

    def test_relu_exp_log(self, x0):
        check_grad(lambda x: (x.relu() + 1.0).log().exp().sum(), x0)

    def test_sqrt_positive(self, x0):
        check_grad(lambda x: (x.square() + 1.0).sqrt().sum(), x0)

    def test_sqrt_zero_gradient_convention(self):
        x = OpTensor(np.array([0.0, 4.0]), requires_grad=True)
        y = x.sqrt().sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.25])


class TestMatmulShapes:
    def test_plain(self, x0, rng):
        w = rng.normal(size=(4, 5))
        check_grad(lambda x: (x @ OpTensor(w)).square().sum(), x0)

    def test_batched_broadcast(self, rng):
        f = rng.normal(size=(2, 3, 5, 4))
        h = rng.normal(size=(2, 1, 4, 4))
        x = OpTensor(h.copy(), requires_grad=True)
        out = OpTensor(f) @ x
        out.backward(np.ones_like(out.data))
        num = finite_difference(
            lambda a: float(np.matmul(f, a).sum()), h)
        np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)

    def test_vector_weight_sides(self, rng):
        a0 = rng.normal(size=(5, 4))
        w = OpTensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = (OpTensor(a0) @ w).sum()
        out.backward()
        num = finite_difference(
            lambda v: float((a0 @ v).sum()), w.data.copy())
        np.testing.assert_allclose(w.grad, num, rtol=1e-6)


class TestReductionsAndShape:
    def test_mean_axes(self, x0):
        check_grad(lambda x: x.mean(axis=(0, 1)) * 5.0, x0)

    def test_max_routes_to_argmax(self):
        x = OpTensor(np.array([[1.0, 5.0, 3.0], [2.0, 2.0, 0.0]]),
                   requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_array_equal(
            x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])  # first-index ties

    def test_reshape_transpose(self, x0):
        check_grad(lambda x: x.reshape(2, 6).transpose((1, 0)).square().sum(), x0)

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

    # (residual, attention) at 3 frames and 3 taps, then the frame and
    # kernel edges with both on
    @pytest.mark.parametrize("residual,attention,frames,taps", [
        pytest.param(r, a, 3, 3, id=f"{r}-{a}")
        for r in (False, True) for a in (False, True)] + [
        pytest.param(True, True, t, k, id=f"True-True-t{t}k{k}")
        for t, k in ((1, 3), (2, 5), (4, 1), (6, 5))])
    def test_graph_block_gradient(self, rng, residual, attention, frames, taps):
        """Every input of the block node (spatial step, batch norm, ReLU,
        temporal conv, batch norm, ReLU, optional residual) under the
        parts5 mask, with and without the attention term, and its batch
        statistics; at a single frame, fewer frames than taps and kernel
        sizes 1 and 5 too, the edges ``test_temporal_conv_gradient``
        checks on the standalone node."""
        mask = mask_set()["parts5"]
        k, c_in, ce = 3, 3, 2
        c_out = c_in if residual else 2
        fixed = rng.uniform(size=(k, 17, 17))
        arrays = [rng.normal(size=(2, frames, 17, c_in))]
        arrays += [np.stack([rng.normal(size=(17, 17)) for _ in range(k)]),
                   np.stack([rng.normal(size=(c_in, c_out)) for _ in range(k)])]
        if attention:
            proj = [rng.normal(size=(c_in, ce)) for _ in range(2 * k)]
            arrays += [np.stack(proj[:k]), np.stack(proj[k:])]
        n_spatial = len(arrays)
        arrays += [rng.uniform(0.5, 1.5, size=c_out), rng.normal(size=c_out),
                   rng.normal(size=(taps, c_out)), rng.uniform(0.5, 1.5, size=c_out),
                   rng.normal(size=c_out)]

        def spatial_args(t):
            return (t[0], fixed, mask, t[1], t[2], *(t[3:n_spatial] or (None, None)))

        def build(t):
            return graph_block(*spatial_args(t), *t[n_spatial:], 1e-5,
                               residual)[0]

        # the weighted output sums 34 rows a frame through two batch norms, so
        # rounding noise, not truncation, limits steps below 1e-4
        check_grads(build, arrays, rng, h=1e-4)
        tensors = [Tensor(a) for a in arrays]
        y = stored_spatial_graph_conv(*spatial_args(tensors)).data
        _, (mu1, var1), (mu2, var2) = graph_block(*spatial_args(tensors),
                                                  *tensors[n_spatial:], 1e-5)
        np.testing.assert_allclose(mu1, y.mean(axis=(0, 1, 2)), atol=1e-12)
        np.testing.assert_allclose(var1, y.var(axis=(0, 1, 2)), atol=1e-12)
        gamma1, beta1, kern = arrays[n_spatial:n_spatial + 3]
        h = np.maximum((y - mu1) / np.sqrt(var1 + 1e-5) * gamma1 + beta1, 0.0)
        z = temporal_conv(Tensor(h), Tensor(kern)).data
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
        check_grads(lambda x: batch_norm_train(x[0], x[1], x[2], 1e-5)[0],
                    arrays, rng, h=1e-5)
        x = arrays[0]
        out, mu, var = batch_norm_train(*[Tensor(a) for a in arrays], 1e-5)
        np.testing.assert_allclose(mu, x.mean(axis=axes), atol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=axes), atol=1e-12)
        expect = ((x - x.mean(axis=axes)) / np.sqrt(x.var(axis=axes) + 1e-5)
                  * arrays[1] + arrays[2])
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_group_pool_gradient(self, rng):
        """Overlapping groups of different sizes; ties route to the first
        frame and the first joint of a group."""
        groups = ((0, 2), (1, 2, 3), (3,), (0, 1, 2, 3))
        check_grads(lambda x: group_pool(x[0], groups),
                    [rng.normal(size=(2, 3, 4, 2))], rng)
        x = Tensor(np.zeros((1, 2, 4, 1)), requires_grad=True)
        group_pool(x, ((1, 2),)).backward()
        # mean shares on both joints of the first frame, the max on joint 1
        np.testing.assert_array_equal(x.grad[0, :, :, 0],
                                      [[0.0, 1.5, 0.5, 0.0], [0.0] * 4])

    @pytest.mark.parametrize("groups", [
        PART_GROUPS,                                  # the body is its parts' union
        ((0, 2), (1, 3), (2, 3)),                     # no group is a union
        ((0, 2), (1, 2, 3), (3,), (0, 1, 2, 3)),      # overlapping, with a union
        ((0, 2), (1, 2), (0, 1, 2, 3), (2, 0)),       # a superset, then a repeat
    ])
    def test_group_pool_equals_joint_maxima(self, rng, groups):
        """Values and gradients equal, bit for bit, those of the node
        whose every group's maxima run over its own joints. Small
        integers make ties, so the gradient's routing to the first
        argmax frame and joint is compared too."""
        v = max(j for m in groups for j in m) + 1
        data = rng.integers(-3, 4, size=(3, 5, v, 4)).astype(float)
        g = rng.normal(size=(3, len(groups), 4))
        outs, grads = [], []
        for pool in (group_pool, joint_group_pool):
            x = Tensor(data, requires_grad=True)
            out = pool(x, groups)
            out.backward(g)
            outs.append(out.data)
            grads.append(x.grad)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert grads[0].tobytes() == grads[1].tobytes()


    def test_slot_fc_gradient(self, rng):
        """Two pools of 2 and 3 slots; every slot its own weight and bias."""
        s, n, c, d = 5, 4, 3, 2
        arrays = [rng.normal(size=(n, 2, c)), rng.normal(size=(n, 3, c))]
        arrays += [np.stack([rng.normal(size=(c, d)) for _ in range(s)]),
                   np.stack([rng.normal(size=d) for _ in range(s)])]

        def build(t):
            return slot_fc(t[:2], t[2], t[3])

        # linear in each input, so a wide step has no truncation error
        check_grads(build, arrays, rng, h=1e-3)
        x = np.concatenate(arrays[:2], axis=1)
        expect = np.stack([x[:, i] @ arrays[2][i] + arrays[3][i] for i in range(s)])
        np.testing.assert_allclose(build([Tensor(a) for a in arrays]).data, expect,
                                   atol=1e-12)

    def test_bnneck_classifier_gradient(self, rng):
        """Every input, and the batch statistics of each slot's columns."""
        s, n, d, k = 3, 5, 2, 4
        arrays = [rng.normal(1.0, 2.0, size=(s, n, d)),
                  np.stack([rng.uniform(0.5, 1.5, size=d) for _ in range(s)]),
                  np.stack([rng.normal(size=d) for _ in range(s)]),
                  np.stack([rng.normal(size=(d, k)) for _ in range(s)])]

        def run(t):
            return bnneck_classifier(*t, 1e-5)

        # as for the batch norm of a block: rounding and truncation error
        # both stay below the tolerance at a step of 1e-5
        check_grads(lambda t: run(t)[0], arrays, rng, h=1e-5)
        logits, mu, var = run([Tensor(a) for a in arrays])
        x = arrays[0]
        np.testing.assert_allclose(mu, x.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=1), atol=1e-12)
        gamma, beta, cls = arrays[1:]
        necked = ((x - mu[:, None]) / np.sqrt(var[:, None] + 1e-5) * gamma[:, None]
                  + beta[:, None])
        np.testing.assert_allclose(logits.data, necked @ cls, atol=1e-12)


# (kernel size, frames, channels): T = 1, 2, k - 1 (T < k included) and 20
CONTRACTION_CASES = [(k, t, c) for k in (1, 3, 5)
                     for t in sorted({1, 2, k - 1, 20} - {0}) for c in (1, 2, 16)]


class TestTemporalContraction:
    """The temporal convolution's kernels, one contraction each over a
    zero-padded frame buffer, against the tap loop they replaced
    (``reference.tap_temporal_conv``), at kernel sizes 1, 3 and 5.

    Inputs hold exact zeros (a ReLU's output, and forced zeros in the
    gradient) and kernels negative taps, so products of -0 occur. Which
    bits may move, and why:

    - the sign of a zero result: the loop starts from the centre tap's
      product, so where every product it adds is -0 it returns -0;
      ``einsum`` adds onto a +0 it starts from and returns +0. Every
      other bit of the forward and the input gradient is the loop's for
      k <= 3, whose loop adds (centre + tap 0) + tap 2 and the
      contraction (0 + tap 0 + centre) + tap 2, the same sums;
    - k = 5: the loop adds the centre, then taps 1, 3, 0, 4, the
      contraction taps 0 to 4 in order, so a frame's sum of five
      products is rounded in another order (last bits only);
    - the kernel gradient at C = 1: numpy reduces a single column with
      SIMD partial sums grouped by the operands' memory layout; the loop
      read a contiguous input, the contraction reads the frames inside
      their padded buffer, one sequence at a time, so the grouping and
      the last bits differ. For C >= 2 both add the (n, t, v) products of
      a channel one after another, and the padding adds only zeros,
      which change no sum, so the kernel gradient is the loop's bit for
      bit at every k.
    """

    @staticmethod
    def _inputs(rng, k, t, c):
        x = np.maximum(rng.normal(size=(3, t, 17, c)), 0.0)   # a ReLU's output
        g = rng.normal(size=x.shape)
        g[rng.random(g.shape) < 0.3] = 0.0
        kernel = rng.normal(size=(k, c))
        kernel[:, : c // 2 + 1] = -np.abs(kernel[:, : c // 2 + 1])
        padded, frames = _frame_buffer(x.shape, k)
        frames[...] = x
        return x, g, kernel, padded

    @staticmethod
    def _assert_matches_loop(new, old, k, what):
        """Equal values for k <= 3, differing only in the sign of zeros
        the loop leaves at -0; close to the last bits for k = 5."""
        if k <= 3:
            np.testing.assert_array_equal(new, old, err_msg=what)
            moved = new.view(np.uint64) != old.view(np.uint64)
            assert (old[moved] == 0.0).all() and np.signbit(old[moved]).all(), what
            assert not np.signbit(new[new == 0.0]).any(), what
        else:
            np.testing.assert_allclose(new, old, rtol=0,
                                       atol=1e-14 * np.abs(old).max(), err_msg=what)

    @pytest.mark.parametrize("k,t,c", CONTRACTION_CASES)
    def test_forward_matches_tap_loop(self, rng, k, t, c):
        x, _g, kernel, padded = self._inputs(rng, k, t, c)
        self._assert_matches_loop(_temporal_conv(padded, kernel),
                                  tap_temporal_conv(x, kernel), k, "forward")

    @pytest.mark.parametrize("k,t,c", CONTRACTION_CASES)
    def test_gradients_match_tap_loop(self, rng, k, t, c):
        x, g, kernel, padded = self._inputs(rng, k, t, c)
        gx_old, gk_old = tap_temporal_conv_grads(g, x, kernel, True, True)
        gx, gk = _temporal_conv_grads(g, padded, kernel, True)
        self._assert_matches_loop(gx, gx_old, k, "input gradient")
        if c > 1:
            assert gk.tobytes() == gk_old.tobytes()
        else:
            bound = 1e-14 * np.einsum("ntvc,ntvc->c", np.abs(g), x).max()
            np.testing.assert_allclose(gk, gk_old, rtol=0, atol=bound)

    def test_gradient_written_over_its_output_gradient(self, rng):
        """``out=g``, as the training block passes it: the kernel
        gradient is taken before ``g`` goes into the frame buffer and the
        input gradient overwrites ``g``."""
        x, g, kernel, padded = self._inputs(rng, 3, 20, 16)
        expect = _temporal_conv_grads(g, padded.copy(), kernel, True)
        got = _temporal_conv_grads(g, padded, kernel, True, out=g)
        assert got[0] is g
        assert got[0].tobytes() == expect[0].tobytes()
        assert got[1].tobytes() == expect[1].tobytes()

    def test_padding_stays_zero(self, rng):
        """The frames around the interior are read, never written: the
        forward leaves the buffer as it is, the gradients leave the
        output gradient's frames in its interior."""
        x, _g, kernel, padded = self._inputs(rng, 5, 4, 2)
        _temporal_conv(padded, kernel)
        np.testing.assert_array_equal(padded[:, 2:-2], x)
        g = rng.normal(size=x.shape)
        _temporal_conv_grads(g, padded, kernel, True)
        assert not padded[:, :2].any() and not padded[:, -2:].any()
        np.testing.assert_array_equal(padded[:, 2:-2], g)


class TestBatchNormSums:
    """The per-channel sums of the batch norm's forward (the mean) and
    backward (the gradient's sum) are ``x.sum(axis=0)``'s bits."""

    @pytest.mark.parametrize("m", [1, 3, 2720])
    @pytest.mark.parametrize("c", [1, 16, 128])
    def test_sums_equal_numpy_sum(self, rng, m, c):
        x = rng.normal(1.0, 2.0, size=(m, c))
        g = rng.normal(size=(m, c))
        _xhat, mu, _var, _std = _bn_normalize(x.copy(), 1e-5)
        assert mu.tobytes() == (x.sum(axis=0) * (1.0 / m)).tobytes()
        xhat = rng.normal(size=(m, c))
        _gx, _g_gamma, g_sum = _bn_backward(g, xhat, np.ones(c), np.ones(c))
        assert g_sum.tobytes() == g.sum(axis=0).tobytes()


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        s = softmax(Tensor(rng.normal(size=(4, 9))), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_uniform_for_constants(self):
        s = softmax(Tensor(np.full((2, 17), 3.3)), axis=-1)
        np.testing.assert_allclose(s.data, 1.0 / 17, atol=1e-15)

    def test_gradient(self, x0, rng):
        g = rng.normal(size=(3, 4))
        check_grad(lambda x: (softmax(x, axis=-1) * OpTensor(g)).sum(), x0)

    def test_masked_gradient(self, x0, rng):
        mask = np.zeros((3, 4), dtype=bool)
        mask[:, :3] = True
        g = rng.normal(size=(3, 4))
        check_grad(
            lambda x: (softmax(x, axis=-1, mask=mask) * OpTensor(g)).sum(), x0)

    def test_masked_excludes(self, rng):
        mask = np.array([[True, True, False, False]])
        s = softmax(Tensor(rng.normal(size=(1, 4))), axis=-1, mask=mask)
        assert s.data[0, 2] == 0.0 and s.data[0, 3] == 0.0
        np.testing.assert_allclose(s.data.sum(), 1.0, atol=1e-12)


class TestGraphMechanics:
    def test_diamond_accumulation(self):
        x = OpTensor(np.array(2.0), requires_grad=True)
        y = x * 3.0
        z = y * y + y
        z.backward()
        assert x.grad == pytest.approx(2 * 6.0 * 3 + 3)

    def test_stop_gradient(self):
        x = OpTensor(np.array([1.0, 2.0]), requires_grad=True)
        (stop_gradient(x) * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])

    def test_no_grad_tracking_when_not_required(self):
        x = OpTensor(np.ones((2, 2)))
        y = (x @ x).relu()
        assert y._parents == () and y._backward is None

    def test_deep_chain_no_recursion_error(self):
        x = OpTensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert np.isfinite(x.grad)

    def test_intermediate_grads_released_leaf_grads_kept(self, rng):
        w = OpTensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = OpTensor(rng.normal(size=(4, 3)))
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
        a = OpTensor(np.ones(3), requires_grad=True)
        b = OpTensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_repeated_backward_zero_grad(self):
        x = OpTensor(np.array(3.0), requires_grad=True)
        (x * x).backward()
        g1 = float(x.grad)
        x.zero_grad()
        (x * x).backward()
        assert float(x.grad) == g1


class TestZeroGrad:
    def test_first_gradient_overwrites_the_region(self, rng):
        """A role whose gradient was dropped: the next sweep's first
        gradient is copied over its region of the arena's gradient array,
        not added to the old values; later ones are added. Its
        neighbours' regions keep theirs."""
        roles = [Role((2, 3)) for _ in range(3)]
        arena = Arena(roles)
        for r in roles:
            r._accumulate(rng.normal(size=(2, 3)))
        kept = [roles[0].grad.copy(), roles[2].grad.copy()]
        roles[1].zero_grad()
        assert roles[1].grad is None
        g = rng.normal(size=(2, 3))
        roles[1]._accumulate(g)
        assert np.shares_memory(roles[1].grad, arena.grad)
        np.testing.assert_array_equal(roles[1].view(arena.grad), g)
        roles[1]._accumulate(g)
        np.testing.assert_array_equal(roles[1].view(arena.grad), g + g)
        np.testing.assert_array_equal(roles[0].grad, kept[0])
        np.testing.assert_array_equal(roles[2].grad, kept[1])

    def test_loose_and_unused_tensors(self, rng):
        """A tensor outside any arena just drops its gradient; an arena
        whose roles never had one holds no gradient array."""
        loose = Tensor(rng.normal(size=3), requires_grad=True)
        loose._accumulate(np.ones(3))
        loose.zero_grad()
        assert loose.grad is None
        placed = Role((3,))
        arena = Arena([placed])
        placed.zero_grad()
        assert placed.grad is None and arena.grad is None


class TestArena:
    def test_layout(self):
        """Roles in order, each on an ``ARENA_ALIGN`` boundary, their
        values views of the one value array holding their fill values;
        the padding is 0."""
        roles = [Role((3,), 1.0), Role((2, 9)), Role((8,), -2.0)]
        arena = Arena(roles)
        assert [r.start for r in roles] == [0, 8, 32]
        assert arena.size == 40
        expect = np.zeros(40)
        expect[:3], expect[32:] = 1.0, -2.0
        np.testing.assert_array_equal(arena.data, expect)
        for r in roles:
            assert r.data.base is arena.data and r.data.flags.writeable

    def test_deep_copy_keeps_roles_in_the_copied_arena(self, rng):
        """A deep copy of roles shares one copy of their arena, each role
        at its place, values and gradient included; the original is
        untouched by writes to the copy."""
        roles = [Role((2, 3)), Role((4,), 1.0)]
        arena = Arena(roles)
        roles[0]._accumulate(rng.normal(size=(2, 3)))
        twins = copy.deepcopy(roles)
        twin_arena = twins[0].arena
        assert twin_arena is twins[1].arena and twin_arena is not arena
        for role, twin in zip(roles, twins):
            assert twin.data.base is twin_arena.data and twin.start == role.start
            np.testing.assert_array_equal(twin.data, role.data)
        assert twins[0].grad.base is twin_arena.grad and twins[1].grad is None
        np.testing.assert_array_equal(twins[0].grad, roles[0].grad)
        twins[1].data[...] = 7.0
        assert (roles[1].data == 1.0).all()
