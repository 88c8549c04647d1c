import copy
import dataclasses
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import reference as ref
from gpgait import autodiff, hot, pagcn
from gpgait.autodiff import Arena, Tensor
from gpgait.checkpoint import load_container, save_container
from gpgait.config import build_run_config, read_header
from gpgait.errors import ConfigError, DataError
from gpgait.graph import PARTS5, build_adjacency_subsets, mask_set
from gpgait.pagcn import (
    BatchNormParams,
    NetworkConfig,
    branch_forward,
    descriptor_inputs,
    init_model,
    load_model_tensors,
    model_tensors,
    network_forward,
    pagcn_block,
    part_heads,
    part_pool,
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
    block = pagcn._block(len(ADJ), c_in, c_out, mask_name, cfg)
    Arena(block.roles())
    pagcn._draw_block(rng, block)
    # non-zero learned adjacency so it participates in oracles
    for adj in block.learned_adj.data:
        adj[...] = rng.normal(0, 0.1, size=(17, 17))
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
    """The spatial step as the training and inference blocks run it;
    its values against the scalar loops, through the block:
    ``TestBlock::test_matches_scalar_reference`` and acceptance 05."""

    def test_masked_learned_adj_gradient_exactly_zero(self, rng):
        """Through the training block."""
        outside = MASKS["parts5"] == 0
        block = make_block(rng, 3, 4)
        f = Tensor(random_input(rng), requires_grad=True)
        out = pagcn_block(f, block, ADJ, MASKS, training=True)
        out.backward(rng.normal(size=out.shape))
        for sub in block.subsets:
            assert np.all(sub.learned_adj.grad[outside] == 0.0)
            assert np.all(sub.learned_adj.grad[~outside] != 0.0)

    def test_channel_mismatch(self, rng):
        block = make_block(rng, 3, 4)
        for training in (False, True):
            with pytest.raises(DataError, match="channels"):
                pagcn_block(Tensor(random_input(rng, c=2)), block, ADJ, MASKS,
                            training=training)


class TestBlock:
    def test_matches_scalar_reference(self, rng):
        block = make_block(rng, 3, 3)  # equal channels -> residual active
        f = random_input(rng, n=2, t=4, c=3)
        out = pagcn_block(Tensor(f), block, ADJ, MASKS, training=True)
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
        out = ref.temporal_conv(Tensor(x), Tensor(kern))
        np.testing.assert_allclose(out.data, x * kern[1], atol=1e-12)


def _perturbed_bn(rng, bn):
    """Non-trivial affine and running statistics, so the inference fold
    has something to fold."""
    c = bn.gamma.shape[0]
    bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=c)
    bn.beta.data[...] = rng.normal(0.0, 0.3, size=c)
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
    """The one-node training block and the folded inference path
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
        out.backward(weight)
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

    @pytest.mark.parametrize("group", [1, 2])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_inference_in_groups_of_sequences(self, rng, monkeypatch, case, group):
        """Groups of one and of two sequences (the last one short) give
        the generic chain's result."""
        block, masks, f = self._case(rng, case)
        monkeypatch.setattr(pagcn, "INFERENCE_GROUP_BYTES",
                            group * pagcn._group_bytes_per_sequence(f.shape, block))
        assert pagcn._inference_group(f.shape, block) == group
        grouped = pagcn_block(Tensor(f), block, ADJ, masks).data
        expect = ref.ref_block_chain(Tensor(f), block, ADJ, masks, training=False)
        _assert_rel(grouped, expect.data, 1e-12, "grouped inference")

    @pytest.mark.parametrize("attention", [False, True])
    def test_inference_memory_flat_in_the_number_of_groups(self, rng, monkeypatch,
                                                           attention):
        """One sequence per group at the toy network's widest block: the
        traced peak of an inference block, less its output, grows from 4
        groups to 16 by no more than the stacked adjacency, which is built
        once for all sequences (one (V*K, V) array per sequence with
        attention, a single one without)."""
        block = make_block(rng, 32, 32, attention=attention)
        monkeypatch.setattr(pagcn, "INFERENCE_GROUP_BYTES", 1)
        per_sequence_adjacency = 17 * 3 * 17 * 8 if attention else 0
        extra = []
        for n in (4, 16):
            f = Tensor(random_input(rng, n=n, t=40, c=32))
            tracemalloc.start()
            try:
                out = pagcn_block(f, block, ADJ, MASKS)
                extra.append(tracemalloc.get_traced_memory()[1] - out.data.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] - extra[0] <= 12 * per_sequence_adjacency + 4096, extra

    def test_inference_builds_no_graph_from_trainable_params(self, rng):
        block, masks, f = self._case(rng, "parts5")
        out = pagcn_block(Tensor(f, requires_grad=True), block, ADJ, masks)
        assert not out.requires_grad and out._parents == ()

    def test_running_stats_untouched_without_update(self, rng):
        """Inference leaves the running statistics bit-for-bit as they
        were (a training call updates them once:
        ``test_training_matches_generic_chain``)."""
        block, masks, f = self._case(rng, "parts5")
        stats = [block.bn1.running_mean, block.bn1.running_var,
                 block.bn2.running_mean, block.bn2.running_var]
        before = [s.copy() for s in stats]
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


class _DirtyEmpty:
    """numpy, whose ``empty`` fills float arrays with NaN, as memory the
    allocator hands back may hold anything."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out


class TestFrameBuffer:
    """``autodiff._frame_buffer`` sets only its padding frames: they are
    exactly 0 in every buffer a block's training forward, its backward
    and its inference pass use, and the callers write every interior
    frame, so with ``np.empty`` handing out NaN-filled memory the values
    and gradients are byte-identical."""

    @staticmethod
    def _run(block, f, weight):
        x = Tensor(f, requires_grad=True)
        for p in _block_params(block).values():
            p.zero_grad()
        out = pagcn_block(x, block, ADJ, MASKS, training=True)
        out.backward(weight)
        inference = pagcn_block(Tensor(f), block, ADJ, MASKS, training=False)
        return [out.data, x.grad, inference.data] + [
            p.grad for p in _block_params(block).values()]

    @pytest.mark.parametrize("k,t", [(1, 1), (1, 4), (3, 2), (3, 6), (5, 2),
                                     (5, 4), (5, 7)])
    def test_padding_exactly_zero(self, rng, monkeypatch, k, t):
        block = make_block(rng, 3, 4, kernel=k)
        f = random_input(rng, n=3, t=t)
        weight = rng.normal(size=f.shape[:-1] + (4,))
        clean = self._run(copy.deepcopy(block), f, weight)

        buffers = []
        make = autodiff._frame_buffer

        def recording(shape, k):
            padded, frames = make(shape, k)
            buffers.append((padded, k // 2, shape[1]))
            return padded, frames

        monkeypatch.setattr(autodiff, "np", _DirtyEmpty())
        monkeypatch.setattr(autodiff, "_frame_buffer", recording)
        monkeypatch.setattr(pagcn, "_frame_buffer", recording)
        dirty = self._run(block, f, weight)
        assert len(buffers) == 3          # forward, backward, inference
        for padded, p, frames in buffers:
            assert padded.shape[1] == frames + 2 * p
            for pad in (padded[:, :p], padded[:, p + frames:]):
                assert pad.tobytes() == bytes(pad.nbytes)      # +0.0 only
        for a, b in zip(clean, dirty):
            assert a.tobytes() == b.tobytes()

def _stored_tape(monkeypatch):
    """Swap in the two training nodes that store their intermediates."""
    monkeypatch.setattr(pagcn, "graph_block", ref.stored_graph_block)


class TestRebuiltTape:
    """The training node rebuilds the aggregate, the spatial output, the
    first ReLU output, the second normalized array and the second
    ReLU's mask in backward; against the two nodes that stored them
    (``reference.stored_graph_block``) every value is bit-identical."""

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
        """What one training block keeps for backward, with and without
        the residual and the attention term: walking the node's closure
        finds the block input and the block's parameters as tensors, and
        as arrays only the four (C,) statistics, the stacked adjacency
        ((V*K, V), with attention (N, 1, V*K, V)), the block's constant
        partition mask and, with attention, the (N, V, C_in) pooled
        features and the (N, K, V, V) attention; no (N, T, V, C_out) array
        and no bool array. A walk over node ``.data`` alone cannot see
        this: closures are invisible to it, while the forward's peak
        memory is not."""
        n, t, c_out = 3, 5, 4

        def walk(obj, tensors, arrays):
            if isinstance(obj, Tensor):
                tensors.append(obj)
            elif isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item, tensors, arrays)

        for c_in, attention in itertools.product((2, c_out), (False, True)):
            block = make_block(rng, c_in, c_out, attention=attention)
            mask = MASKS[block.mask_name]
            x = Tensor(random_input(rng, n=n, t=t, c=c_in), requires_grad=True)
            out = pagcn_block(x, block, ADJ, MASKS, training=True)
            assert out._parents[0] is x
            tensors, arrays = [], []
            for cell in out._backward.__closure__:
                walk(cell.cell_contents, tensors, arrays)
            held = {id(tn) for tn in tensors}
            assert id(x) in held
            assert held <= {id(x)} | {id(p) for p in _block_params(block).values()}
            kept = sorted((a.shape, a.dtype.str) for a in arrays if a is not mask)
            k = len(block.subsets)
            if attention:
                adjacency = [((n, 1, 17 * k, 17), "<f8"), ((n, 17, c_in), "<f8"),
                             ((n, k, 17, 17), "<f8")]
            else:
                adjacency = [((17 * k, 17), "<f8")]
            assert kept == sorted([((c_out,), "<f8")] * 4 + adjacency)
            assert any(a is mask for a in arrays)


class TestTrainingMemory:
    """What a training forward holds and what a block's backward
    allocates."""

    def test_pooled_branch_outputs_dropped(self, rng, monkeypatch):
        """After a training ``pooled_slots`` each branch's last block
        output array is freed (its pooling keeps index arrays only),
        while the earlier block outputs, the next blocks' inputs, stay
        alive on the tape."""
        cfg = tiny_config(parts5_channels=(4, 4))
        model = init_model(cfg, seed=1)
        inputs = descriptor_inputs(cfg, rng.normal(size=(2, 3, 17, 2)),
                                   rng.normal(size=(2, 3, 17, 2)),
                                   rng.normal(size=(2, 3, 17, 1)))
        refs = []

        def recording(*args, **kw):
            out = pagcn_block(*args, **kw)
            refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(pagcn, "pagcn_block", recording)
        slots = pagcn.pooled_slots(model, inputs, training=True)
        depth = len(model.branches[cfg.branches[0]])
        assert depth == 3 and len(refs) == depth * len(cfg.branches)
        alive = [r() is not None for r in refs]
        assert alive == [i % depth != depth - 1 for i in range(len(refs))], alive
        for pool in slots:
            dropped = pool._parents[0].data
            assert dropped.shape == (2, 3, 17, 4) and not any(dropped.strides)
            assert not dropped.flags.writeable

    def test_block_backward_peak(self, rng):
        """A 128 -> 128 block's backward at (4, 20, 17, 128) allocates at
        most 5 output-sized arrays at its peak (tracemalloc; the arena's
        gradient array made by a first step, as in training): the
        K*C_in-wide aggregate is freed once ``y`` is rebuilt, made again
        only for the weight gradient, and the gradient of ``y`` is
        dropped once the aggregate's is formed."""
        block = make_block(rng, 128, 128)
        f = random_input(rng, n=4, t=20, c=128)
        g = rng.normal(size=f.shape)
        for _ in range(2):
            for role in block.roles():
                role.zero_grad()
            out = pagcn_block(Tensor(f, requires_grad=True), block, ADJ, MASKS,
                              training=True)
            tracemalloc.start()
            try:
                out._backward(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 5 * g.nbytes, peak / g.nbytes


def _block_params(block):
    """A block's roles by name."""
    names = ("weight", "learned_adj", "attn_a", "attn_b", "temporal_kernel")
    params = {name: getattr(block, name) for name in names
              if getattr(block, name) is not None}
    for bn_name in ("bn1", "bn2"):
        bn = getattr(block, bn_name)
        params[f"{bn_name}/gamma"], params[f"{bn_name}/beta"] = bn.gamma, bn.beta
    return params


class TestStackedTail:
    """Pooling, heads and losses of all 18 slots in one pass, against
    the chain with one pooling, head and loss per slot
    (``reference.slot_tail``) on the same branch outputs."""

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_matches_slot_chain(self, rng, plan):
        """Loss, every parameter gradient and every running statistic of
        one training step within 1e-10 of the largest gradient entry (the
        fc biases' exact gradient is 0: BNNeck and the triplet distances
        both cancel a shift, so theirs are rounding noise), and the
        inference embeddings within 1e-12. They are not bit-identical:
        the stacked products and sums round differently."""
        channels, (p, k, t) = PLANS[plan]
        cfg = NetworkConfig(num_classes=p, **channels)
        inputs = descriptor_inputs(
            cfg, rng.normal(size=(p * k, t, 17, 2)),
            rng.normal(size=(p * k, t, 17, 2)), rng.normal(size=(p * k, t, 17, 1)))
        labels = np.repeat(np.arange(p), k)

        def step(stacked):
            model = init_model(cfg, seed=3)
            if stacked:
                res = network_forward(model, inputs, training=True)
                total = combined_loss(res.metrics, res.logits, labels, 0.2, 1.0)[0]
                embedding = network_forward(model, inputs).embedding_matrix()
            else:
                f_ms = {b: branch_forward(Tensor(inputs[b]), model.branches[b],
                                          model.adjacency, model.masks, True)
                        for b in cfg.branches}
                total = ref.slot_tail(model, f_ms, labels, 0.2, 1.0)[0]
                view = ref.detached_view(model)
                f_ms = {b: branch_forward(Tensor(inputs[b]), view.branches[b],
                                          view.adjacency, view.masks)
                        for b in cfg.branches}
                metrics = ref.slot_tail(view, f_ms, labels, 0.2, 1.0,
                                        training=False)[1]
                embedding = np.stack([m.data for m in metrics], axis=1)
            total.backward()
            grads = {name: param.grad
                     for name, param in model.named_parameters().items()}
            stats = {name: tensor for name, tensor in model.named_tensors().items()
                     if name.endswith(("/mean", "/var"))}
            return total.data, grads, stats, embedding

        loss, grads, stats, embedding = step(stacked=True)
        loss_ref, grads_ref, stats_ref, embedding_ref = step(stacked=False)
        largest = max(np.abs(g).max() for g in grads_ref.values())
        assert abs(loss - loss_ref) <= 1e-10 * largest
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(g, grads_ref[name], rtol=0,
                                       atol=1e-10 * largest, err_msg=name)
        assert stats.keys() == stats_ref.keys()
        assert any(name.startswith("head/") for name in stats)
        for name, st in stats.items():
            np.testing.assert_allclose(st, stats_ref[name], rtol=0, atol=1e-12,
                                       err_msg=name)
        np.testing.assert_allclose(embedding, embedding_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("distinct", [False, True])
    def test_bit_identical_to_generic_tail(self, rng, plan, distinct):
        """The two head nodes and the loss nodes against the stacked
        tail in the generic algebra (``reference.generic_tail``) on the
        same pooled slots: the three losses, the gradients of the pooled
        slots and of every head parameter, and the BNNeck's running
        statistics, bit for bit. The fused nodes run the same forward
        operations and add each gradient's terms in the same order. With
        every label ``distinct`` no anchor has a positive: the triplet
        loss is 0 and the metric features get the BNNeck's gradient
        only."""
        channels, (p, k, _t) = PLANS[plan]
        cfg = NetworkConfig(num_classes=p * k, **channels)
        labels = np.arange(p * k) if distinct else np.repeat(np.arange(p), k)
        pooled = [rng.normal(size=(p * k, len(pagcn.PART_ORDER), cfg.larger_channels))
                  for _ in cfg.branches]
        gammas = rng.uniform(0.5, 1.5, size=(cfg.num_parts, cfg.embed_dim))
        betas = rng.normal(0.0, 0.3, size=(cfg.num_parts, cfg.embed_dim))

        def step(fused):
            model = init_model(cfg, seed=3)
            for head, gamma, beta in zip(model.heads, gammas, betas):
                # in place: the tensors keep their arena slots
                head.bnn.gamma.data[...] = gamma
                head.bnn.beta.data[...] = beta
            pools = [Tensor(a, requires_grad=True) for a in pooled]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if fused:
                    losses = combined_loss(*part_heads(pools, model.heads),
                                           labels, 0.2, 0.7)
                else:
                    losses = ref.generic_tail(model, pools, labels, 0.2, 0.7)[:3]
            losses[0].backward()
            heads = {name: t for name, t in model.named_tensors().items()
                     if name.startswith("head/")}
            arrays = [loss.data for loss in losses] + [pool.grad for pool in pools]
            return arrays + [t if isinstance(t, np.ndarray) else t.grad
                             for t in heads.values()]

        for got, want in zip(step(True), step(False), strict=True):
            assert got.tobytes() == want.tobytes()


class TestGraphGuards:
    @staticmethod
    def _toy_step_graph(rng):
        """(every tensor reachable from a toy training step's loss, the
        backward closures' qualified names of its inner nodes), and the
        model."""
        channels, (p, k, t) = PLANS["toy"]
        cfg = NetworkConfig(num_classes=p, **channels)
        inputs = descriptor_inputs(
            cfg, rng.normal(size=(p * k, t, 17, 2)),
            rng.normal(size=(p * k, t, 17, 2)), rng.normal(size=(p * k, t, 17, 1)))
        model = init_model(cfg, seed=0)
        res = network_forward(model, inputs, training=True)
        total = combined_loss(res.metrics, res.logits, np.repeat(np.arange(p), k),
                              0.2, 1.0)[0]
        seen, stack, inner = {id(total)}, [total], []
        while stack:
            node = stack.pop()
            if node._backward is not None:
                inner.append(node._backward.__qualname__.split(".")[0])
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return seen, inner, model

    def test_training_graph_node_bound(self, rng):
        """A toy training step's graph (every tensor reachable from the
        loss, leaves included): 86 parameter roles (243 checkpoint
        names), 3 inputs and 17 inner nodes. Measured: 106 nodes; 263
        when every subset's and slot's parameter was a leaf of its own,
        321 with 65 inner nodes when the tail was built from generic ops,
        1181 (788) when every slot had its own chain."""
        seen, inner, model = self._toy_step_graph(rng)
        assert len(model.named_parameters()) == 243
        assert len(model.roles()) == 86
        assert len(seen) == 106 and len(inner) == 17, (len(seen), len(inner))

    def test_tape_is_fused_nodes(self, rng):
        """Every inner node behind a toy step's loss is a block, a
        branch's pooling or one of the tail's five nodes: 9 + 3 + 5."""
        _seen, inner, _model = self._toy_step_graph(rng)
        tail = ["slot_fc", "bnneck_classifier", "triplet_loss",
                "cross_entropy_loss", "combined_loss"]
        assert sorted(inner) == sorted(["graph_block"] * 9 + ["group_pool"] * 3
                                       + tail), sorted(inner)

    def test_inference_builds_no_graph(self, rng):
        """Inference on the live, trainable model: outputs have no
        parents, and equal those of a view whose tensors need no grad."""
        model = init_model(tiny_config(), seed=2)
        inp = {
            "joint": rng.normal(size=(1, 2, 17, 2)),
            "angle": rng.normal(size=(1, 2, 17, 1)),
            "bone": rng.normal(size=(1, 2, 17, 2)),
        }
        res = network_forward(model, inp, training=False)
        assert res.logits is None
        assert res.metrics._parents == () and res.metrics._backward is None
        assert not res.metrics.requires_grad
        view = network_forward(ref.detached_view(model), inp, training=False)
        np.testing.assert_array_equal(res.embedding_matrix(),
                                      view.embedding_matrix())


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
        np.testing.assert_allclose(pooled[0, 1, :], 8.0)  # left_arm slot

    def test_mean_plus_max(self):
        f = np.zeros((1, 1, 17, 1))
        f[0, 0, [5, 7, 9], 0] = [1.0, 2.0, 3.0]
        pooled = part_pool(Tensor(f)).data
        assert pooled[0, 1, 0] == pytest.approx(2.0 + 3.0)

    def test_whole_body_zero(self):
        pooled = part_pool(Tensor(np.zeros((2, 3, 17, 4)))).data
        np.testing.assert_array_equal(pooled[:, 5, :], 0.0)

    def test_temporal_pool_max_and_order_free(self, rng):
        f = rng.normal(size=(2, 6, 17, 4))
        a = part_pool(Tensor(f)).data
        perm = rng.permutation(6)
        b = part_pool(Tensor(f[:, perm])).data
        np.testing.assert_array_equal(a, b)
        f2 = np.zeros((1, 3, 17, 1))
        f2[0, :, 5, 0] = [1.0, 5.0, 3.0]       # a left-arm joint
        assert part_pool(Tensor(f2)).data[0, 1, 0] == pytest.approx(5.0 / 3 + 5.0)

    def test_t1_identity(self, rng):
        f = rng.normal(size=(2, 1, 17, 4))
        groups = [PARTS5[n] for n in pagcn.PART_ORDER[:-1]] + [tuple(range(17))]
        np.testing.assert_allclose(part_pool(Tensor(f)).data,
                                   ref.ref_part_pool(f, groups)[:, 0], atol=1e-12)

    def test_scalar_reference(self, rng):
        """The pooling node and the per-part chain against the loops."""
        f = rng.normal(size=(2, 3, 17, 4))
        groups = [PARTS5[n] for n in ("head", "left_arm", "right_arm",
                                      "left_leg", "right_leg")]
        groups.append(tuple(range(17)))
        expect = ref.ref_temporal_pool(ref.ref_part_pool(f, groups))
        for pool in (part_pool, ref.slot_part_pool):
            np.testing.assert_allclose(pool(Tensor(f)).data, expect, atol=1e-9)


def _identity_head():
    """The heads of one slot, as plain tensors."""
    return pagcn.Heads(
        fc_w=Tensor(np.eye(4)[None]), fc_b=Tensor(np.zeros((1, 4))),
        bnn=BatchNormParams(Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))),
                            np.zeros((1, 4)), np.ones((1, 4)) - pagcn.BN_EPS),
        cls_w=Tensor(np.eye(4)[None]))


class TestHeads:
    def test_identity_head(self):
        """Training: the metric is the fc output, the logits its BNNeck
        output under batch statistics through an identity classifier."""
        v = np.array([[[1.0, -2.0, 0.5, 3.0], [3.0, 2.0, -0.5, 1.0]]])
        metric, logits = part_heads([Tensor(v.transpose(1, 0, 2))],
                                    _identity_head())
        np.testing.assert_allclose(metric.data, v, atol=1e-12)
        expect = (v - v.mean(axis=1)) / np.sqrt(v.var(axis=1) + pagcn.BN_EPS)
        np.testing.assert_allclose(logits.data, expect, atol=1e-12)

    def test_heads_never_share_parameters(self):
        """Every head's every parameter is memory of its own."""
        model = init_model(tiny_config(), seed=1)
        arrays = [t.data for h in model.heads
                  for t in (h.fc_w, h.fc_b, h.bnn.gamma, h.bnn.beta, h.cls_w)]
        assert len(arrays) == 18 * 5
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[:i])

    def test_head_matches_reference(self, rng):
        """Every slot of one stacked training call against the per-slot
        head chain and against the scalar head."""
        model = init_model(tiny_config(), seed=3)
        for head in model.heads:
            _perturbed_bn(rng, head.bnn)
        pooled = rng.normal(size=(18, 4, 4))
        # training updates the running statistics: on a copy
        heads = copy.deepcopy(model.heads)
        metric, logits = part_heads([Tensor(pooled.transpose(1, 0, 2))], heads)
        assert metric.shape == (18, 4, 4) and logits.shape == (18, 4, 2)
        for slot, head in enumerate(copy.deepcopy(model.heads)):
            em, el = ref.per_part_head(Tensor(pooled[slot]), head, True)
            np.testing.assert_allclose(metric.data[slot], em.data, atol=1e-12)
            np.testing.assert_allclose(logits.data[slot], el.data, atol=1e-12)
        metric_train, logits_train = metric.data, logits.data
        for slot, head in enumerate(model.heads):
            em, el = ref.ref_head(pooled[slot], head.fc_w.data, head.fc_b.data,
                                  head.bnn.gamma.data, head.bnn.beta.data,
                                  head.cls_w.data)
            np.testing.assert_allclose(metric_train[slot], em, atol=1e-9)
            np.testing.assert_allclose(logits_train[slot], el, atol=1e-9)


class TestNetworkForward:
    def _inputs(self, rng, n=4, t=3):
        return {
            "joint": rng.normal(size=(n, t, 17, 2)),
            "angle": rng.normal(size=(n, t, 17, 1)),
            "bone": rng.normal(size=(n, t, 17, 2)),
        }

    def test_shape_contract(self, rng):
        model = init_model(tiny_config(), seed=0)
        inputs = self._inputs(rng)
        res = network_forward(model, inputs, training=False)
        assert res.metrics.shape == (18, 4, 4) and res.logits is None
        emb = res.embedding_matrix()
        assert emb.shape == (4, 18, 4)
        # slots are branch-major: a branch's input moves its six slots only
        for b, bname in enumerate(("joint", "angle", "bone")):
            moved = self._inputs(rng)
            moved = {k: v if k == bname else inputs[k] for k, v in moved.items()}
            changed = (network_forward(model, moved).metrics.data
                       != res.metrics.data).any(axis=(1, 2))
            assert np.flatnonzero(changed).tolist() == list(range(6 * b, 6 * b + 6))

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
        assert not np.allclose(res.metrics.data[0], res.metrics.data[12])

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

    @pytest.mark.parametrize("branches", [("joint", "joint"),
                                          ("joint", "bone", "joint"),
                                          ("fused", "angle", "fused")])
    def test_repeated_branch_is_config_error(self, branches):
        """A repeated branch would build one stack run twice per forward
        behind twice the heads, its batch-norm statistics folded twice
        an iteration."""
        with pytest.raises(ConfigError, match=f"branch '{branches[0]}' listed twice"):
            tiny_config(branches=branches)

    def test_whole_forward_scalar_oracle(self, rng):
        """Training-mode forward against the loop reference on the tiny
        configuration, and against the per-slot tail chain on the same
        branch outputs."""
        model = init_model(tiny_config(), seed=5)
        inputs = self._inputs(rng, n=4, t=3)
        res = network_forward(model, inputs, training=True)

        f_ms = {b: branch_forward(Tensor(inputs[b]), model.branches[b], ADJ,
                                  MASKS, training=True)
                for b in ("joint", "angle", "bone")}
        _, slot_metrics, slot_logits = ref.slot_tail(
            model, f_ms, np.array([0, 0, 1, 1]), 0.2, 1.0)
        for slot in range(18):
            np.testing.assert_allclose(res.metrics.data[slot],
                                       slot_metrics[slot].data, atol=1e-12)
            np.testing.assert_allclose(res.logits.data[slot],
                                       slot_logits[slot].data, atol=1e-12)

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
                np.testing.assert_allclose(res.metrics.data[slot], em, atol=1e-6)
                np.testing.assert_allclose(res.logits.data[slot], el, atol=1e-6)
                slot += 1

    def test_bad_input_shape(self, rng):
        model = init_model(tiny_config(), seed=0)
        inputs = self._inputs(rng)
        inputs["angle"] = inputs["angle"][:, :, :16, :]
        with pytest.raises(DataError):
            network_forward(model, inputs)


def _trained_like(preset: str):
    """A preset's network with perturbed batch-norm parameters and
    running statistics throughout, so inference folds something."""
    model = init_model(build_run_config(preset=preset).network_config(num_classes=3),
                       seed=4)
    rng = np.random.default_rng(9)
    for blocks in model.branches.values():
        for block in blocks:
            _perturbed_bn(rng, block.bn1)
            _perturbed_bn(rng, block.bn2)
    for head in model.heads:
        _perturbed_bn(rng, head.bnn)
    return model


class TestInferenceChunks:
    """An inference forward runs blocks and pooling over chunks of whole
    sequences of at most ``hot.CHUNK_FRAMES`` frames and the heads once."""

    N, T = 7, 6

    def _inputs(self, n):
        rng = np.random.default_rng(21)
        return {"joint": rng.normal(size=(n, self.T, 17, 2)),
                "angle": rng.normal(size=(n, self.T, 17, 1)),
                "bone": rng.normal(size=(n, self.T, 17, 2))}

    # frame budget -> the chunks of 7 sequences of 6 frames it gives
    BUDGETS = {
        "less_than_one_sequence": (5, [(i, i + 1) for i in range(7)]),
        "one_sequence": (6, [(i, i + 1) for i in range(7)]),
        "two_sequences": (12, [(0, 1), (1, 3), (3, 5), (5, 7)]),
        "three_sequences": (18, [(0, 2), (2, 4), (4, 7)]),
        "uneven_last_chunk": (30, [(0, 3), (3, 7)]),
    }

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("preset", ["toy", "casiab"])
    def test_embeddings_equal_unchunked(self, monkeypatch, preset, budget):
        frames, chunks = self.BUDGETS[budget]
        model = _trained_like(preset)
        inputs = self._inputs(self.N)
        monkeypatch.setattr(hot, "CHUNK_FRAMES", self.N * self.T)
        whole = network_forward(model, inputs)
        monkeypatch.setattr(hot, "CHUNK_FRAMES", frames)
        assert pagcn._sequence_chunks(self.N, self.T) == chunks
        chunked = network_forward(model, inputs)
        np.testing.assert_array_equal(chunked.metrics.data, whole.metrics.data)

    def test_training_never_chunks(self, monkeypatch):
        """Batch norm takes the whole batch's statistics in training."""
        model = _trained_like("toy")
        inputs = self._inputs(self.N)
        monkeypatch.setattr(hot, "CHUNK_FRAMES", self.T)
        chunked = network_forward(copy.deepcopy(model), inputs, training=True)
        monkeypatch.setattr(hot, "CHUNK_FRAMES", self.N * self.T)
        whole = network_forward(model, inputs, training=True)
        np.testing.assert_array_equal(chunked.metrics.data, whole.metrics.data)

    def test_peak_grows_only_with_the_inputs(self, monkeypatch):
        """With chunks of 4 sequences, 16 sequences peak no higher than
        4 do plus the 12 extra sequences' input bytes and 64 KB: block
        outputs, stacked adjacencies and pooling temporaries stay
        chunk-sized."""
        model = _trained_like("toy")
        monkeypatch.setattr(hot, "CHUNK_FRAMES", 4 * self.T)
        peaks, input_bytes = [], []
        for n in (4, 16):
            inputs = self._inputs(n)
            input_bytes.append(sum(a.nbytes for a in inputs.values()))
            tracemalloc.start()
            try:
                network_forward(model, inputs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= input_bytes[1] - input_bytes[0] + 64 * 1024, peaks


class TestBatchNormStats:
    """The BNNeck of the stacked heads, one batch norm over every slot's
    columns."""

    def test_running_stats_update(self, rng):
        model = init_model(tiny_config(), seed=4)
        pooled = Tensor(rng.normal(2.0, 3.0, size=(50, 18, 4)))
        metric, _ = part_heads([pooled], model.heads)
        for slot, head in enumerate(model.heads):
            mu = metric.data[slot].mean(axis=0)
            var = metric.data[slot].var(axis=0)
            np.testing.assert_allclose(head.bnn.running_mean, 0.1 * mu, atol=1e-9)
            np.testing.assert_allclose(head.bnn.running_var, 0.9 + 0.1 * var,
                                       atol=1e-9)

    def test_inference_stops_at_metric_features(self, rng):
        """Inference reads neither the BNNeck nor the classifier: with
        them all NaN, the embeddings are the fc outputs unchanged, and
        the running statistics stay as they are."""
        model = _trained_like("toy")
        inputs = {"joint": rng.normal(size=(3, 4, 17, 2)),
                  "angle": rng.normal(size=(3, 4, 17, 1)),
                  "bone": rng.normal(size=(3, 4, 17, 2))}
        expect = network_forward(model, inputs).embedding_matrix()
        for head in model.heads:
            head.cls_w.data[...] = np.nan
            head.bnn.gamma.data[...] = np.nan
            head.bnn.beta.data[...] = np.nan
            head.bnn.running_mean[...] = np.nan
            head.bnn.running_var[...] = np.nan
        res = network_forward(model, inputs)
        assert res.logits is None
        np.testing.assert_array_equal(res.embedding_matrix(), expect)
        pooled = np.concatenate([p.data for p in pagcn.pooled_slots(model, inputs)],
                                axis=1)
        for slot, head in enumerate(model.heads):
            np.testing.assert_allclose(
                expect[:, slot], pooled[:, slot] @ head.fc_w.data + head.fc_b.data,
                rtol=0, atol=1e-12)
        assert all(np.isnan(h.bnn.running_mean).all() for h in model.heads)


class TestInit:
    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("preset", ["toy", "casiab"])
    def test_draws_equal_the_oracle(self, preset, attention):
        """Every tensor of ``init_model`` byte for byte as the oracle
        draws it (``reference.init_tensors``), in checkpoint order."""
        cfg = dataclasses.replace(
            build_run_config(preset=preset).network_config(num_classes=7),
            attention=attention)
        got = model_tensors(init_model(cfg, seed=11))
        want = ref.init_tensors(cfg, 11)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name


class TestCheckpointGlue:
    def test_roundtrip(self, tmp_path, rng):
        model = init_model(tiny_config(), seed=9)
        path = tmp_path / "m.gpgw"
        save_container(path, {"network": model.config.to_dict()},
                       model_tensors(model))
        config, tensors = load_container(path)
        model2 = init_model(read_header(config, path)[1], seed=1)
        load_model_tensors(model2, tensors)
        for name, t in model.named_parameters().items():
            np.testing.assert_allclose(
                model2.named_parameters()[name].data, t.data.astype(np.float32),
                atol=0)

    def test_blank_model_loads_as_init_model_does(self, rng):
        """``blank_model`` is ``init_model``'s network without the random
        draws: the same directory, each parameter in its arena slot, and
        once a checkpoint's tensors are loaded, the same values."""
        cfg = tiny_config()
        tensors = model_tensors(init_model(cfg, seed=9))
        blank, seeded = pagcn.blank_model(cfg), init_model(cfg, seed=1)
        assert ([(n, a.shape) for n, a in model_tensors(blank).items()]
                == [(n, a.shape) for n, a in tensors.items()])
        assert all(r.data.base is blank.arena.data for r in blank.roles())
        assert blank.arena.size == seeded.arena.size
        for model in (blank, seeded):
            load_model_tensors(model, tensors)
        for name, arr in model_tensors(blank).items():
            np.testing.assert_array_equal(arr, model_tensors(seeded)[name])
            np.testing.assert_array_equal(arr, tensors[name])

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
        before = model_tensors(model2)
        load_model_tensors(model2, tensors)
        after = model_tensors(model2)
        assert all(np.shares_memory(after[name], a) for name, a in before.items())
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
        twin = dataclasses.replace(model, masks=mask_set(partitioned=False))
        assert twin.branches["joint"][0].weight is model.branches["joint"][0].weight
        assert twin.masks["parts5"].all()
