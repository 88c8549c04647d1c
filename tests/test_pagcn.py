import copy

import numpy as np
import pytest

import reference as ref
from gpgait import pagcn
from gpgait.autodiff import Tensor
from gpgait.checkpoint import load_container, save_container
from gpgait.errors import DataError
from gpgait.graph import PARTS5, build_adjacency_subsets, mask_set
from gpgait.pagcn import (
    BatchNormParams,
    BlockParams,
    NetworkConfig,
    SubsetParams,
    batch_norm,
    descriptor_inputs,
    detached_view,
    init_model,
    load_model_tensors,
    model_tensors,
    network_forward,
    pagcn_block,
    pagcn_spatial,
    part_pool,
    per_part_head,
    temporal_conv,
    temporal_pool,
    with_masks,
)
from gpgait.train import combined_loss

MASKS = mask_set()
ADJ = build_adjacency_subsets()
ONES_MASKS = {name: np.ones_like(m) for name, m in MASKS.items()}


def tiny_config(**kw):
    defaults = dict(num_classes=2, parts5_channels=(4,), larger_schemes=("global",),
                    larger_channels=4, embed_dim=4)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def make_block(rng, c_in, c_out, mask_name="parts5", attention=True,
               kernel=3):
    cfg = NetworkConfig(num_classes=2, parts5_channels=(c_out,),
                        larger_channels=c_out, temporal_kernel=kernel,
                        attention=attention)
    block = pagcn._init_block(rng, c_in, c_out, mask_name, cfg)
    # non-zero learned adjacency so it participates in oracles
    for sub in block.subsets:
        sub.learned_adj.data = rng.normal(0, 0.1, size=(17, 17))
    return block


def random_input(rng, n=2, t=4, c=3):
    return rng.normal(size=(n, t, 17, c))


class TestAttention:
    def test_uniform_for_identical_features(self, rng):
        f = np.tile(rng.normal(size=(1, 1, 1, 3)), (2, 5, 17, 1))
        pa = Tensor(rng.normal(size=(3, 4)))
        pb = Tensor(rng.normal(size=(3, 4)))
        att = ref.attention_adjacency(Tensor(f), pa, pb)
        np.testing.assert_allclose(att.data, 1.0 / 17, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        f = random_input(rng)
        att = ref.attention_adjacency(Tensor(f), Tensor(rng.normal(size=(3, 4))),
                                      Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_matches_scalar_reference(self, rng):
        f = random_input(rng)
        pa = rng.normal(size=(3, 4))
        pb = rng.normal(size=(3, 4))
        att = ref.attention_adjacency(Tensor(f), Tensor(pa), Tensor(pb))
        expect = ref.ref_attention(f, pa, pb)
        np.testing.assert_allclose(att.data, expect, atol=1e-9)

    def test_masked_matches_reference(self, rng):
        f = random_input(rng)
        pa = rng.normal(size=(3, 4))
        pb = rng.normal(size=(3, 4))
        att = ref.attention_adjacency(Tensor(f), Tensor(pa), Tensor(pb),
                                      mask=MASKS["parts5"])
        expect = ref.ref_attention(f, pa, pb, mask=MASKS["parts5"])
        np.testing.assert_allclose(att.data, expect, atol=1e-9)
        np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-9)


class TestSpatial:
    def test_identity_composition(self, rng):
        c = 3
        block = BlockParams(
            subsets=[SubsetParams(weight=Tensor(np.eye(c)),
                                  learned_adj=Tensor(np.zeros((17, 17))))],
            temporal_kernel=Tensor(np.zeros((3, c))),
            bn1=None, bn2=None, mask_name="global", in_channels=c, out_channels=c)
        f = random_input(rng, c=c)
        out = pagcn_spatial(Tensor(f), block, np.eye(17)[None],
                            np.ones((17, 17)))
        np.testing.assert_array_equal(out.data, f)

    def test_matches_scalar_reference(self, rng):
        block = make_block(rng, 3, 5)
        f = random_input(rng, c=3)
        out = pagcn_spatial(Tensor(f), block, ADJ, MASKS["parts5"])
        attns = [ref.ref_attention(f, s.attn_a.data, s.attn_b.data,
                                   MASKS["parts5"]) for s in block.subsets]
        expect = ref.ref_spatial(
            f, ADJ, [s.learned_adj.data for s in block.subsets],
            [s.weight.data for s in block.subsets], attn=attns,
            mask=MASKS["parts5"])
        np.testing.assert_allclose(out.data, expect, atol=1e-9)

    def test_block_diagonal_oracle(self, rng):
        """parts5-masked spatial conv equals five independent per-part
        convolutions run on sliced adjacencies with the same weights."""
        for _ in range(50):
            block = make_block(rng, 3, 4)
            f = random_input(rng, n=2, t=3, c=3)
            full = pagcn_spatial(Tensor(f), block, ADJ, MASKS["parts5"]).data
            for g in PARTS5.values():
                ix = np.asarray(g)
                fg = f[:, :, ix, :]
                pieces = np.zeros((2, 3, len(ix), 4))
                for k, sub in enumerate(block.subsets):
                    att = ref.ref_attention(fg, sub.attn_a.data, sub.attn_b.data)
                    for b in range(2):
                        h = (ADJ[k][np.ix_(ix, ix)]
                             + sub.learned_adj.data[np.ix_(ix, ix)] + att[b])
                        for t in range(3):
                            pieces[b, t] += (fg[b, t].T @ h).T @ sub.weight.data
                np.testing.assert_allclose(full[:, :, ix, :], pieces, atol=1e-6)

    def test_cross_part_zero_path(self, rng):
        block = make_block(rng, 3, 4)
        f = random_input(rng)
        base = pagcn_spatial(Tensor(f), block, ADJ, MASKS["parts5"]).data
        poked = f.copy()
        poked[:, :, 16, :] += 123.456
        out = pagcn_spatial(Tensor(poked), block, ADJ, MASKS["parts5"]).data
        head = list(range(5))
        np.testing.assert_array_equal(out[:, :, head, :], base[:, :, head, :])

    def test_masked_learned_adj_gradient_exactly_zero(self, rng):
        block = make_block(rng, 3, 4)
        f = Tensor(random_input(rng), requires_grad=True)
        out = pagcn_spatial(f, block, ADJ, MASKS["parts5"])
        out.backward(rng.normal(size=out.shape))
        outside = MASKS["parts5"] == 0
        for sub in block.subsets:
            assert np.all(sub.learned_adj.grad[outside] == 0.0)
            assert np.all(sub.learned_adj.grad[~outside] != 0.0)

    def test_channel_mismatch(self, rng):
        block = make_block(rng, 3, 4)
        with pytest.raises(DataError, match="channels"):
            pagcn_spatial(Tensor(random_input(rng, c=2)), block, ADJ,
                          MASKS["parts5"])


class TestBlock:
    def test_matches_scalar_reference(self, rng):
        block = make_block(rng, 3, 3)  # equal channels -> residual active
        f = random_input(rng, n=2, t=4, c=3)
        out = pagcn_block(Tensor(f), block, ADJ, MASKS, training=True,
                          update_stats=False)
        attns = [ref.ref_attention(f, s.attn_a.data, s.attn_b.data,
                                   MASKS["parts5"]) for s in block.subsets]
        expect = ref.ref_block(
            f, ADJ, [s.learned_adj.data for s in block.subsets],
            [s.weight.data for s in block.subsets], attns, MASKS["parts5"],
            block.temporal_kernel.data,
            block.bn1.gamma.data, block.bn1.beta.data,
            block.bn2.gamma.data, block.bn2.beta.data, residual=True)
        np.testing.assert_allclose(out.data, expect, atol=1e-6)

    def test_single_frame_padding_contract(self, rng):
        block = make_block(rng, 3, 4)
        out = pagcn_block(Tensor(random_input(rng, t=1)), block, ADJ, MASKS)
        assert out.shape == (2, 1, 17, 4)

    def test_zero_input_zero_output(self, rng):
        block = make_block(rng, 3, 4)
        block.bn1.beta.data[:] = 0.0
        block.bn2.beta.data[:] = 0.0
        f = np.zeros((2, 3, 17, 3))
        out = pagcn_block(Tensor(f), block, ADJ, MASKS, training=False)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 17, 4)))

    def test_temporal_conv_t1(self, rng):
        kern = rng.normal(size=(3, 4))
        x = rng.normal(size=(2, 1, 17, 4))
        out = temporal_conv(Tensor(x), Tensor(kern))
        np.testing.assert_allclose(out.data, x * kern[1], atol=1e-12)


def _perturbed_bn(rng, bn):
    """Non-trivial affine and running statistics, so the inference fold
    has something to fold."""
    c = bn.gamma.shape[0]
    bn.gamma.data = rng.uniform(0.5, 1.5, size=c)
    bn.beta.data = rng.normal(0.0, 0.3, size=c)
    bn.running_mean[...] = rng.normal(0.0, 0.5, size=c)
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=c)


def _assert_rel(actual, expect, tol, what):
    """Largest entry difference within ``tol`` of the largest entry."""
    scale = np.abs(expect).max()
    err = np.abs(actual - expect).max() / scale if scale > 0 else np.abs(actual).max()
    assert err <= tol, f"{what}: relative error {err:.2e}"


# (mask, attention, masks table, frames, temporal kernel, c_in, c_out)
BLOCK_CASES = {
    "parts5": ("parts5", True, MASKS, 4, 3, 3, 3),
    "global": ("global", True, MASKS, 4, 3, 3, 5),
    "no_attention": ("parts5", False, MASKS, 4, 3, 4, 4),
    "no_masks": ("parts5", True, ONES_MASKS, 4, 3, 3, 3),
    "t1": ("parts5", True, MASKS, 1, 3, 3, 3),
    "t_below_k": ("upper_lower", True, MASKS, 2, 5, 3, 3),
}


class TestFusedBlock:
    """The two-node training block and the folded inference path
    against the chain of generic autodiff nodes they replace
    (``reference.ref_block_chain``)."""

    def _case(self, rng, case):
        mask_name, attention, masks, t, kernel, c_in, c_out = BLOCK_CASES[case]
        block = make_block(rng, c_in, c_out, mask_name, attention=attention,
                           kernel=kernel)
        _perturbed_bn(rng, block.bn1)
        _perturbed_bn(rng, block.bn2)
        return block, masks, random_input(rng, n=3, t=t, c=c_in)

    @staticmethod
    def _run(fn, block, masks, f, weight, **kw):
        x = Tensor(f, requires_grad=True)
        out = fn(x, block, ADJ, masks, **kw)
        (out * Tensor(weight)).sum().backward()
        return out.data, x.grad, {n: p.grad for n, p in
                                  _block_params(block).items()}

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_training_matches_generic_chain(self, rng, case):
        block, masks, f = self._case(rng, case)
        twin = copy.deepcopy(block)
        weight = rng.normal(size=f.shape[:-1] + (block.out_channels,))
        out, gx, grads = self._run(pagcn_block, block, masks, f, weight,
                                   training=True)
        out_ref, gx_ref, grads_ref = self._run(ref.ref_block_chain, twin, masks,
                                               f, weight, training=True)
        _assert_rel(out, out_ref, 1e-10, "output")
        _assert_rel(gx, gx_ref, 1e-10, "input gradient")
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            if np.abs(grads_ref[name]).max() == 0.0:   # e.g. masked out
                np.testing.assert_array_equal(g, grads_ref[name])
            else:
                _assert_rel(g, grads_ref[name], 1e-10, name)
        for bn, bn_ref in ((block.bn1, twin.bn1), (block.bn2, twin.bn2)):
            _assert_rel(bn.running_mean, bn_ref.running_mean, 1e-12, "mean")
            _assert_rel(bn.running_var, bn_ref.running_var, 1e-12, "var")

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_inference_matches_generic_chain(self, rng, case):
        block, masks, f = self._case(rng, case)
        out = pagcn_block(Tensor(f), block, ADJ, masks, training=False)
        assert out._parents == () and out._backward is None
        expect = ref.ref_block_chain(Tensor(f), block, ADJ, masks, training=False)
        _assert_rel(out.data, expect.data, 1e-12, "inference output")

    @pytest.mark.parametrize("group_bytes", [1, 2 * 17 * 3 * 3 * 8 * 4])
    def test_inference_in_groups_of_sequences(self, rng, monkeypatch, group_bytes):
        """Groups of one and of two sequences (the last one short) give
        the single-group result."""
        block, masks, f = self._case(rng, "parts5")
        whole = pagcn_block(Tensor(f), block, ADJ, masks).data
        monkeypatch.setattr(pagcn, "INFERENCE_GROUP_BYTES", group_bytes)
        grouped = pagcn_block(Tensor(f), block, ADJ, masks).data
        _assert_rel(grouped, whole, 1e-12, "grouped inference")

    def test_inference_builds_no_graph_from_trainable_params(self, rng):
        block, masks, f = self._case(rng, "parts5")
        out = pagcn_block(Tensor(f, requires_grad=True), block, ADJ, masks)
        assert not out.requires_grad and out._parents == ()

    def test_running_stats_untouched_without_update(self, rng):
        """``update_stats=False`` and inference leave the running
        statistics bit-for-bit as they were (a training call updates
        them once: ``test_training_matches_generic_chain``)."""
        block, masks, f = self._case(rng, "parts5")
        stats = [block.bn1.running_mean, block.bn1.running_var,
                 block.bn2.running_mean, block.bn2.running_var]
        before = [s.copy() for s in stats]
        pagcn_block(Tensor(f), block, ADJ, masks, training=True,
                    update_stats=False)
        pagcn_block(Tensor(f), block, ADJ, masks, training=False)
        for s, b in zip(stats, before):
            np.testing.assert_array_equal(s, b)

    def test_cross_part_isolation_through_folded_inference(self, rng):
        """Three parts5 blocks with folded running statistics and
        non-zero shifts: a right-leg perturbation reaches no other part,
        bit-exactly."""
        blocks = []
        for _ in range(3):
            block = make_block(rng, 4, 4)
            _perturbed_bn(rng, block.bn1)
            _perturbed_bn(rng, block.bn2)
            blocks.append(block)
        f = random_input(rng, n=2, t=5, c=4)
        poked = f.copy()
        poked[:, :, 16, :] += 7.7

        def run(x):
            t = Tensor(x)
            for b in blocks:
                t = pagcn_block(t, b, ADJ, MASKS, training=False)
            return t.data

        base, out = run(f), run(poked)
        others = [j for j in range(17) if j not in PARTS5["right_leg"]]
        np.testing.assert_array_equal(out[:, :, others, :], base[:, :, others, :])
        assert not np.array_equal(out[:, :, 16, :], base[:, :, 16, :])


# toy and casiab channel plans at the benchmark's batch shapes
# (P x K sequences of L frames)
PLANS = {
    "toy": (dict(parts5_channels=(16, 32), larger_schemes=("global",),
                 larger_channels=32, embed_dim=32), (4, 2, 20)),
    "casiab": (dict(parts5_channels=(64, 64, 128)), (2, 2, 20)),
}


def _stored_tape(monkeypatch):
    """Swap in the training nodes that store their intermediates."""
    monkeypatch.setattr(pagcn, "spatial_graph_conv", ref.stored_spatial_graph_conv)
    monkeypatch.setattr(pagcn, "block_epilogue", ref.stored_block_epilogue)


class TestRebuiltTape:
    """The training nodes rebuild the aggregate, the first ReLU output
    and the second normalized array in backward; against the nodes that
    stored them (``reference.stored_*``) every value is bit-identical."""

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_training_step_bit_identical(self, rng, monkeypatch, plan):
        """Loss, every parameter gradient and every running statistic of
        one training step; each plan has blocks with and without the
        residual."""
        channels, (p, k, t) = PLANS[plan]
        cfg = NetworkConfig(num_classes=p, **channels)
        inputs = descriptor_inputs(
            cfg, rng.normal(size=(p * k, t, 17, 2)),
            rng.normal(size=(p * k, t, 17, 2)), rng.normal(size=(p * k, t, 17, 1)))
        labels = np.repeat(np.arange(p), k)
        residuals = {b.in_channels == b.out_channels
                     for b in init_model(cfg).branches["joint"]}
        assert residuals == {False, True}

        def step():
            model = init_model(cfg, seed=3)
            res = network_forward(model, inputs, training=True)
            total = combined_loss(res.metrics, res.logits, labels, 0.2, 1.0)[0]
            total.backward()
            grads = {name: param.grad
                     for name, param in model.named_parameters().items()}
            stats = {name: tensor for name, tensor in model.named_tensors().items()
                     if name.endswith(("/mean", "/var"))}
            return total.data, grads, stats

        loss, grads, stats = step()
        _stored_tape(monkeypatch)
        loss_ref, grads_ref, stats_ref = step()
        np.testing.assert_array_equal(loss, loss_ref)
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, grads_ref[name], err_msg=name)
        assert stats.keys() == stats_ref.keys() and stats
        for name, s in stats.items():
            np.testing.assert_array_equal(s, stats_ref[name], err_msg=name)

    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("attention", [False, True])
    def test_block_bit_identical(self, rng, monkeypatch, plan, residual,
                                 attention):
        """One block at a plan's widest channel count, its input
        gradient included."""
        channels, (p, k, t) = PLANS[plan]
        c_out = max(channels["parts5_channels"])
        c_in = c_out if residual else c_out // 2
        block = make_block(rng, c_in, c_out, attention=attention)
        _perturbed_bn(rng, block.bn1)
        _perturbed_bn(rng, block.bn2)
        twin = copy.deepcopy(block)
        f = random_input(rng, n=p * k, t=t, c=c_in)
        weight = rng.normal(size=f.shape[:-1] + (c_out,))
        out, gx, grads = TestFusedBlock._run(pagcn_block, block, MASKS, f,
                                             weight, training=True)
        _stored_tape(monkeypatch)
        out_ref, gx_ref, grads_ref = TestFusedBlock._run(
            pagcn_block, twin, MASKS, f, weight, training=True)
        np.testing.assert_array_equal(out, out_ref)
        np.testing.assert_array_equal(gx, gx_ref)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, grads_ref[name], err_msg=name)
        for bn, bn_ref in ((block.bn1, twin.bn1), (block.bn2, twin.bn2)):
            np.testing.assert_array_equal(bn.running_mean, bn_ref.running_mean)
            np.testing.assert_array_equal(bn.running_var, bn_ref.running_var)

    def test_tape_inventory(self, rng):
        """What one training block keeps for backward: walking the two
        nodes' closures finds the block input, the spatial output ``y``
        and the block's parameters as tensors, and as arrays only the
        four (C,) statistics, the (N, 1, V*K, V) stacked adjacency, one
        bool mask and the block's constant partition mask. A walk over
        node ``.data`` alone cannot see this: closures are invisible to
        it, while the forward's peak memory is not."""
        n, t, c = 3, 5, 4
        block = make_block(rng, c, c)
        mask = MASKS[block.mask_name]
        x = Tensor(random_input(rng, n=n, t=t, c=c), requires_grad=True)
        out = pagcn_block(x, block, ADJ, MASKS, training=True)
        y = out._parents[0]
        assert y._parents[0] is x

        tensors, arrays = [], []

        def walk(obj):
            if isinstance(obj, Tensor):
                tensors.append(obj)
            elif isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item)

        for node in (y, out):
            for cell in node._backward.__closure__:
                walk(cell.cell_contents)
        held = {id(tn) for tn in tensors}
        assert {id(x), id(y)} <= held <= {id(x), id(y)} | {
            id(p) for p in _block_params(block).values()}
        kept = sorted((a.shape, a.dtype.str) for a in arrays if a is not mask)
        k = len(block.subsets)
        assert kept == sorted([((c,), "<f8")] * 4 + [
            ((n, 1, 17 * k, 17), "<f8"), ((n, t, 17, c), "|b1")])
        assert any(a is mask for a in arrays)


def _block_params(block):
    params = {"tkernel": block.temporal_kernel}
    for bn_name in ("bn1", "bn2"):
        bn = getattr(block, bn_name)
        params[f"{bn_name}/gamma"], params[f"{bn_name}/beta"] = bn.gamma, bn.beta
    for k, sub in enumerate(block.subsets):
        params[f"k{k}/weight"], params[f"k{k}/adj"] = sub.weight, sub.learned_adj
        if sub.attn_a is not None:
            params[f"k{k}/attn_a"], params[f"k{k}/attn_b"] = sub.attn_a, sub.attn_b
    return params


class TestStacks:
    def _stack(self, rng, n_blocks=3, c=4, attention=True):
        blocks = [make_block(rng, c, c, "parts5", attention=attention)
                  for _ in range(n_blocks)]
        return blocks

    def test_cross_part_isolation_bit_exact(self, rng):
        """Inference through three parts5-masked blocks: a perturbation
        at a right-leg joint cannot reach any other part, bit-exactly."""
        blocks = self._stack(rng)
        f = random_input(rng, n=1, t=5, c=4)
        poked = f.copy()
        poked[:, :, 16, :] += 7.7

        def run(x, masks):
            t = Tensor(x)
            for b in blocks:
                t = pagcn_block(t, b, ADJ, masks, training=False)
            return t.data

        base = run(f, MASKS)
        out = run(poked, MASKS)
        others = [j for j in range(17) if j not in PARTS5["right_leg"]]
        np.testing.assert_array_equal(out[:, :, others, :],
                                      base[:, :, others, :])
        # sanity: the perturbation does reach its own part
        assert not np.array_equal(out[:, :, 16, :], base[:, :, 16, :])

    def test_unmasked_stack_leaks(self, rng):
        """The same stack with all-ones masks propagates the
        perturbation everywhere: the isolation property fails."""
        blocks = self._stack(rng)
        f = random_input(rng, n=1, t=5, c=4)
        poked = f.copy()
        poked[:, :, 16, :] += 7.7

        def run(x):
            t = Tensor(x)
            for b in blocks:
                t = pagcn_block(t, b, ADJ, ONES_MASKS, training=False)
            return t.data

        base, out = run(f), run(poked)
        head = list(range(5))
        assert not np.array_equal(out[:, :, head, :], base[:, :, head, :])

    def test_masked_rows_more_distinct_under_perturbation(self, rng):
        """Restated over-smoothing check: under a cross-part probe the
        masked stack keeps other parts' rows identical to baseline while
        the unmasked stack changes them."""
        blocks = self._stack(rng)
        f = random_input(rng, n=1, t=5, c=4)
        poked = f.copy()
        poked[:, :, 16, :] += 7.7

        def changed_rows(masks):
            def run(x):
                t = Tensor(x)
                for b in blocks:
                    t = pagcn_block(t, b, ADJ, masks, training=False)
                return t.data
            delta = np.abs(run(poked) - run(f)).sum(axis=(0, 1, 3))
            return int((delta > 0).sum())

        assert changed_rows(MASKS) <= 3          # right leg only
        assert changed_rows(ONES_MASKS) == 17    # everything moved


class TestPooling:
    def test_constant_part_gives_2c(self):
        f = np.zeros((1, 2, 17, 3))
        f[:, :, [5, 7, 9], :] = 4.0
        pooled = part_pool(Tensor(f)).data
        np.testing.assert_allclose(pooled[0, :, 1, :], 8.0)  # left_arm slot

    def test_mean_plus_max(self):
        f = np.zeros((1, 1, 17, 1))
        f[0, 0, [5, 7, 9], 0] = [1.0, 2.0, 3.0]
        pooled = part_pool(Tensor(f)).data
        assert pooled[0, 0, 1, 0] == pytest.approx(2.0 + 3.0)

    def test_whole_body_zero(self):
        pooled = part_pool(Tensor(np.zeros((2, 3, 17, 4)))).data
        np.testing.assert_array_equal(pooled[:, :, 5, :], 0.0)

    def test_temporal_pool_max_and_order_free(self, rng):
        f = rng.normal(size=(2, 6, 6, 4))
        a = temporal_pool(Tensor(f)).data
        perm = rng.permutation(6)
        b = temporal_pool(Tensor(f[:, perm])).data
        np.testing.assert_array_equal(a, b)
        f2 = np.zeros((1, 3, 1, 1))
        f2[0, :, 0, 0] = [1.0, 5.0, 3.0]
        assert temporal_pool(Tensor(f2)).data[0, 0, 0] == 5.0

    def test_t1_identity(self, rng):
        f = rng.normal(size=(2, 1, 6, 4))
        np.testing.assert_array_equal(temporal_pool(Tensor(f)).data, f[:, 0])

    def test_scalar_reference(self, rng):
        f = rng.normal(size=(2, 3, 17, 4))
        groups = [PARTS5[n] for n in ("head", "left_arm", "right_arm",
                                      "left_leg", "right_leg")]
        groups.append(tuple(range(17)))
        mine = temporal_pool(part_pool(Tensor(f))).data
        expect = ref.ref_temporal_pool(ref.ref_part_pool(f, groups))
        np.testing.assert_allclose(mine, expect, atol=1e-9)


class TestHeads:
    def test_identity_head(self):
        head = pagcn.HeadParams(
            fc_w=Tensor(np.eye(4)), fc_b=Tensor(np.zeros(4)),
            bnn=BatchNormParams(Tensor(np.ones(4)), Tensor(np.zeros(4)),
                                np.zeros(4), np.ones(4) - pagcn.BN_EPS),
            cls_w=Tensor(np.eye(4)))
        v = np.array([[1.0, -2.0, 0.5, 3.0]])
        metric, logits = per_part_head(Tensor(v), head, training=False)
        np.testing.assert_allclose(metric.data, v, atol=1e-12)
        np.testing.assert_allclose(logits.data, v, atol=1e-12)

    def test_heads_never_share_parameters(self):
        model = init_model(tiny_config(), seed=1)
        ids = set()
        for h in model.heads:
            for t in (h.fc_w, h.fc_b, h.bnn.gamma, h.bnn.beta, h.cls_w):
                assert id(t) not in ids
                ids.add(id(t))

    def test_head_matches_reference(self, rng):
        model = init_model(tiny_config(), seed=3)
        head = model.heads[0]
        vec = rng.normal(size=(4, 4))
        metric, logits = per_part_head(Tensor(vec), head, training=True,
                                       update_stats=False)
        em, el = ref.ref_head(vec, head.fc_w.data, head.fc_b.data,
                              head.bnn.gamma.data, head.bnn.beta.data,
                              head.cls_w.data)
        np.testing.assert_allclose(metric.data, em, atol=1e-9)
        np.testing.assert_allclose(logits.data, el, atol=1e-9)


class TestNetworkForward:
    def _inputs(self, rng, n=4, t=3):
        return {
            "joint": rng.normal(size=(n, t, 17, 2)),
            "angle": rng.normal(size=(n, t, 17, 1)),
            "bone": rng.normal(size=(n, t, 17, 2)),
        }

    def test_shape_contract(self, rng):
        model = init_model(tiny_config(), seed=0)
        res = network_forward(model, self._inputs(rng), training=False)
        assert len(res.metrics) == 18
        emb = res.embedding_matrix()
        assert emb.shape == (4, 18, 4)
        assert res.part_names[0] == "joint/head"
        assert res.part_names[6].startswith("angle/")
        assert res.part_names[12].startswith("bone/")

    def test_duplicate_sequence_identical_embedding(self, rng):
        model = init_model(tiny_config(), seed=0)
        inp = self._inputs(rng, n=2)
        dup = {k: np.concatenate([v, v[:1]]) for k, v in inp.items()}
        emb = network_forward(model, dup, training=False).embedding_matrix()
        np.testing.assert_array_equal(emb[0], emb[2])

    def test_batch_permutation_equivariance(self, rng):
        model = init_model(tiny_config(), seed=0)
        inp = self._inputs(rng, n=4)
        perm = np.array([2, 0, 3, 1])
        emb = network_forward(model, inp, training=False).embedding_matrix()
        emb_p = network_forward(
            model, {k: v[perm] for k, v in inp.items()},
            training=False).embedding_matrix()
        np.testing.assert_allclose(emb_p, emb[perm], atol=1e-9)

    def test_branch_parameter_independence(self, rng):
        model = init_model(tiny_config(), seed=0)
        same = rng.normal(size=(2, 3, 17, 2))
        inputs = {"joint": same, "angle": same[..., :1], "bone": same}
        res = network_forward(model, inputs, training=False)
        # joint and bone branches got identical inputs but have their
        # own parameters: outputs must differ
        assert not np.allclose(res.metrics[0].data, res.metrics[12].data)

    def test_preset_channel_plan(self, rng):
        cfg = NetworkConfig(num_classes=5)
        model = init_model(cfg, seed=0)
        blocks = model.branches["joint"]
        assert [b.out_channels for b in blocks] == [64, 64, 128, 128, 128, 128, 128]
        assert [b.mask_name for b in blocks] == [
            "parts5", "parts5", "parts5", "upper_lower", "three_groups",
            "left_right", "global"]
        cfg4 = NetworkConfig(num_classes=5, parts5_channels=(64, 128, 128, 128))
        blocks4 = init_model(cfg4, seed=0).branches["joint"]
        assert [b.out_channels for b in blocks4][:4] == [64, 128, 128, 128]
        assert sum(b.mask_name == "parts5" for b in blocks4) == 4

    def test_whole_forward_scalar_oracle(self, rng):
        """Training-mode forward against the loop reference on the tiny
        configuration."""
        model = init_model(tiny_config(), seed=5)
        inputs = self._inputs(rng, n=4, t=3)
        res = network_forward(model, inputs, training=True, update_stats=False)

        groups = [PARTS5[n] for n in ("head", "left_arm", "right_arm",
                                      "left_leg", "right_leg")]
        groups.append(tuple(range(17)))
        slot = 0
        for bname in ("joint", "angle", "bone"):
            x = inputs[bname]
            for bi, block in enumerate(model.branches[bname]):
                mask = MASKS[block.mask_name]
                attns = [ref.ref_attention(x, s.attn_a.data, s.attn_b.data, mask)
                         for s in block.subsets]
                x = ref.ref_block(
                    x, ADJ, [s.learned_adj.data for s in block.subsets],
                    [s.weight.data for s in block.subsets], attns, mask,
                    block.temporal_kernel.data,
                    block.bn1.gamma.data, block.bn1.beta.data,
                    block.bn2.gamma.data, block.bn2.beta.data,
                    residual=block.in_channels == block.out_channels)
            pooled = ref.ref_temporal_pool(ref.ref_part_pool(x, groups))
            for p in range(6):
                head = model.heads[slot]
                em, el = ref.ref_head(pooled[:, p, :], head.fc_w.data,
                                      head.fc_b.data, head.bnn.gamma.data,
                                      head.bnn.beta.data, head.cls_w.data)
                np.testing.assert_allclose(res.metrics[slot].data, em, atol=1e-6)
                np.testing.assert_allclose(res.logits[slot].data, el, atol=1e-6)
                slot += 1

    def test_bad_input_shape(self, rng):
        model = init_model(tiny_config(), seed=0)
        inputs = self._inputs(rng)
        inputs["angle"] = inputs["angle"][:, :, :16, :]
        with pytest.raises(DataError):
            network_forward(model, inputs)


class TestBatchNormStats:
    def test_running_stats_update(self, rng):
        bn = pagcn._init_bn(3)
        x = Tensor(rng.normal(2.0, 3.0, size=(50, 4, 2, 3)))
        batch_norm(x, bn, (0, 1, 2), training=True, update_stats=True)
        mu = x.data.mean(axis=(0, 1, 2))
        np.testing.assert_allclose(bn.running_mean, 0.1 * mu, atol=1e-9)

    def test_inference_uses_running(self, rng):
        bn = pagcn._init_bn(3)
        bn.running_mean = np.array([1.0, 2.0, 3.0])
        bn.running_var = np.array([4.0, 4.0, 4.0])
        x = np.ones((2, 2, 2, 3))
        out = batch_norm(Tensor(x), bn, (0, 1, 2), training=False)
        expect = (x - bn.running_mean) / np.sqrt(4.0 + pagcn.BN_EPS)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


class TestCheckpointGlue:
    def test_roundtrip(self, tmp_path, rng):
        model = init_model(tiny_config(), seed=9)
        path = tmp_path / "m.gpgw"
        save_container(path, {"network": model.config.to_dict()},
                       model_tensors(model))
        config, tensors = load_container(path)
        model2 = init_model(NetworkConfig.from_dict(config["network"]), seed=1)
        load_model_tensors(model2, tensors)
        for name, t in model.named_parameters().items():
            np.testing.assert_allclose(
                model2.named_parameters()[name].data, t.data.astype(np.float32),
                atol=0)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        model = init_model(tiny_config(), seed=9)
        path = tmp_path / "m.gpgw"
        save_container(path, {}, model_tensors(model))
        _, tensors = load_container(path)
        other = init_model(tiny_config(embed_dim=8), seed=0)
        with pytest.raises(DataError, match="head/00/fc_w"):
            load_model_tensors(other, tensors)

    def test_running_stats_roundtrip_in_place(self, tmp_path, rng):
        model = init_model(tiny_config(), seed=9)
        inp = {"joint": rng.normal(size=(4, 3, 17, 2)),
               "angle": rng.normal(size=(4, 3, 17, 1)),
               "bone": rng.normal(size=(4, 3, 17, 2))}
        network_forward(model, inp, training=True)
        path = tmp_path / "m.gpgw"
        save_container(path, {}, model_tensors(model))
        _, tensors = load_container(path)
        assert np.abs(tensors["head/00/bnn/mean"]).max() > 0
        model2 = init_model(tiny_config(), seed=1)
        before = model2.named_tensors()
        load_model_tensors(model2, tensors)
        after = model2.named_tensors()
        assert all(after[name] is t for name, t in before.items())
        for name, arr in model_tensors(model).items():
            np.testing.assert_array_equal(model_tensors(model2)[name],
                                          arr.astype(np.float32))

    def test_missing_running_stat_names_tensor(self, tmp_path):
        model = init_model(tiny_config(), seed=9)
        tensors = model_tensors(model)
        del tensors["head/00/bnn/var"]
        with pytest.raises(DataError,
                           match="checkpoint missing tensor head/00/bnn/var"):
            load_model_tensors(init_model(tiny_config(), seed=0), tensors)

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = init_model(tiny_config(), seed=9)
        p1, p2 = tmp_path / "a.gpgw", tmp_path / "b.gpgw"
        save_container(p1, {"x": 1}, model_tensors(model))
        config, tensors = load_container(p1)
        save_container(p2, config, tensors)
        assert p1.read_bytes() == p2.read_bytes()


class TestMaskOverride:
    def test_with_masks_shares_parameters(self):
        model = init_model(tiny_config(), seed=2)
        twin = with_masks(model, ONES_MASKS)
        assert twin.branches["joint"][0].subsets[0].weight is \
            model.branches["joint"][0].subsets[0].weight
        assert twin.masks["parts5"].all()

    def test_detached_view_shares_state(self):
        model = init_model(tiny_config(), seed=2)
        view = detached_view(model)
        table, view_table = model.named_tensors(), view.named_tensors()
        assert list(view_table) == list(table)
        for name, t in table.items():
            v = view_table[name]
            if isinstance(t, Tensor):
                assert v is not t and v.data is t.data and not v.requires_grad
            else:
                assert v is t, name
        assert view.masks is model.masks and view.adjacency is model.adjacency

    def test_detached_view_no_graph(self, rng):
        model = init_model(tiny_config(), seed=2)
        view = detached_view(model)
        inp = {
            "joint": rng.normal(size=(1, 2, 17, 2)),
            "angle": rng.normal(size=(1, 2, 17, 1)),
            "bone": rng.normal(size=(1, 2, 17, 2)),
        }
        res = network_forward(view, inp, training=False, update_stats=False)
        assert res.metrics[0]._parents == ()
        full = network_forward(model, inp, training=False, update_stats=False)
        np.testing.assert_array_equal(res.embedding_matrix(),
                                      full.embedding_matrix())
