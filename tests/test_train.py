import gc
import math
import platform
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

import reference as ref
from gpgait import train as tr
from gpgait.autodiff import ARENA_ALIGN, Tensor
from gpgait.checkpoint import load_container, save_container
from gpgait.config import build_run_config
from gpgait.errors import ConfigError, DataError, NumericError
from gpgait.hot import HotConfig, apply_hot
from gpgait.pagcn import NetworkConfig, blank_model, init_model, network_forward
from gpgait.synth import CameraSpec, generate_sequence, make_identities

from conftest import walker_frame


def tiny_train_cfg(**kw):
    defaults = dict(subjects_per_batch=2, samples_per_subject=2,
                    sequence_length=6, iterations=5, log_interval=2,
                    checkpoint_interval=0, noise_sigma=1.0, seed=3)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


def tiny_net_cfg(classes):
    return NetworkConfig(num_classes=classes, parts5_channels=(4,),
                         larger_schemes=("global",), larger_channels=4,
                         embed_dim=4)


def build_train_set(n_ids=3, seqs=2, frames=10, seed=11):
    identities = make_identities(n_ids, seed)
    cam = CameraSpec(jitter_sigma=0.4)
    unified = []
    for i, ident in enumerate(identities):
        for j in range(seqs):
            seq = generate_sequence(ident, cam, frames, seed * 100 + i * 10 + j,
                                    seq_id=f"{ident.identity}-NM-{j:02d}-000")
            unified.append(apply_hot(seq, HotConfig()))
    return tr.TrainSet.build(unified)


class TestSampling:
    def test_shape_and_labels(self, rng):
        ts = build_train_set()
        batch, labels = tr.sample_batch(ts, p=2, k=2, length=4, rng=rng)
        assert batch["joint"].shape == (4, 4, 17, 2)
        assert batch["bone"].shape == (4, 4, 17, 2)
        assert batch["angle"].shape == (4, 4, 17, 1)
        assert len(set(labels.tolist())) == 2

    def test_short_sequence_repeats(self, rng):
        frames = np.stack([walker_frame(0.0), walker_frame(1.0)])
        out = tr.sample_frames(frames, length=5, rng=rng)
        assert out.shape[0] == 5  # only 2 distinct frames available

    def test_no_replacement_when_long_enough(self, rng):
        frames = np.stack([walker_frame(i / 3) for i in range(8)])
        out = tr.sample_frames(frames, length=8, rng=rng)
        # all 8 frames present exactly once, order arbitrary
        assert sorted(out[:, 0, 1].tolist()) == sorted(frames[:, 0, 1].tolist())

    def test_deterministic_under_seed(self):
        ts = build_train_set()
        b1, l1 = tr.sample_batch(ts, 2, 2, 4, np.random.default_rng(9))
        b2, l2 = tr.sample_batch(ts, 2, 2, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(b1["joint"], b2["joint"])
        np.testing.assert_array_equal(l1, l2)

    def test_too_few_subjects(self, rng):
        ts = build_train_set(n_ids=2)
        with pytest.raises(DataError, match="subjects"):
            tr.sample_batch(ts, p=3, k=2, length=4, rng=rng)


class TestAugment:
    def _unified_frames(self):
        seq = apply_hot(
            __import__("conftest").sequence_from_coords(
                [walker_frame(p) for p in (0.2, 0.9)]), HotConfig())
        return seq.frames

    def test_flip_probability_zero(self, rng):
        f = self._unified_frames()
        np.testing.assert_array_equal(tr.augment_flip(f, 0.0, rng), f)

    def test_flip_involution(self, rng):
        f = self._unified_frames()
        twice = tr.augment_flip(tr.augment_flip(f, 1.0, rng), 1.0, rng)
        np.testing.assert_array_equal(twice, f)

    def test_flip_preserves_hot_invariants(self, rng):
        f = self._unified_frames()
        flipped = tr.augment_flip(f, 1.0, rng)
        for frame in flipped:
            neck = (frame[5] + frame[6]) / 2.0
            np.testing.assert_allclose(neck, 0.0, atol=1e-12)
            extent = frame[:, 1].max() - frame[:, 1].min()
            assert extent == pytest.approx(225.0, rel=1e-9)

    def test_noise_probability_zero(self, rng):
        f = self._unified_frames()
        np.testing.assert_array_equal(tr.augment_noise(f, 0.0, 2.0, rng), f)

    def test_noise_sigma_zero(self, rng):
        f = self._unified_frames()
        np.testing.assert_array_equal(tr.augment_noise(f, 0.5, 0.0, rng), f)

    def test_noise_reproducible(self):
        f = self._unified_frames()
        a = tr.augment_noise(f, 0.5, 2.0, np.random.default_rng(4))
        b = tr.augment_noise(f, 0.5, 2.0, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)


class TestTripletLoss:
    def test_hinge_inactive(self):
        emb = np.array([[0.0], [1.0], [3.0], [4.0]])
        labels = np.array([0, 0, 1, 1])
        # anchor 0: hardest pos 1.0, hardest neg 3.0
        loss = tr.triplet_loss(Tensor(emb), labels, margin=0.2)
        expect = ref.ref_batch_hard_triplet(emb, labels, 0.2)
        assert loss.item() == pytest.approx(expect, abs=1e-12)
        assert loss.item() == 0.0

    def test_hinge_active(self):
        emb = np.array([[0.0], [2.0], [1.0], [9.0]])
        labels = np.array([0, 0, 1, 1])
        loss = tr.triplet_loss(Tensor(emb), labels, margin=0.2)
        expect = ref.ref_batch_hard_triplet(emb, labels, 0.2)
        assert loss.item() == pytest.approx(expect, abs=1e-12)
        assert loss.item() > 0

    def test_brute_force_oracle_100_batches(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 17))
            emb = rng.normal(size=(n, 5))
            labels = rng.integers(0, max(2, n // 3), size=n)
            if len(np.unique(labels)) < 2:
                labels[0] = labels[0] + 1
            mine = tr.triplet_loss(Tensor(emb), labels, 0.3).item()
            expect = ref.ref_batch_hard_triplet(emb, labels, 0.3)
            assert mine == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_translation_invariance(self, rng):
        emb = rng.normal(size=(8, 4))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        a = tr.triplet_loss(Tensor(emb), labels, 0.2).item()
        b = tr.triplet_loss(Tensor(emb + 57.0), labels, 0.2).item()
        assert a == pytest.approx(b, rel=1e-9)

    def test_all_anchors_skipped_warns(self):
        emb = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])  # no positives anywhere
        with pytest.warns(UserWarning, match="no anchor"):
            loss = tr.triplet_loss(Tensor(emb), labels, 0.2)
        assert loss.item() == 0.0

    def test_gradient_flows(self, rng):
        emb = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        labels = np.array([0, 0, 0, 1, 1, 1])
        tr.triplet_loss(emb, labels, 0.5).backward()
        assert emb.grad is not None and np.isfinite(emb.grad).all()


class TestCrossEntropy:
    def test_uniform_two_class(self):
        loss = tr.cross_entropy_loss(Tensor(np.zeros((1, 2))), np.array([0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated(self):
        logits = np.array([[1000.0, -1000.0]])
        loss = tr.cross_entropy_loss(Tensor(logits), np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_oracle(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([2, 0, 1, 1])
        mine = tr.cross_entropy_loss(Tensor(logits), labels).item()
        assert mine == pytest.approx(ref.ref_cross_entropy(logits, labels),
                                     abs=1e-9)

    def test_constant_shift_invariance(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        a = tr.cross_entropy_loss(Tensor(logits), labels).item()
        b = tr.cross_entropy_loss(Tensor(logits + 13.5), labels).item()
        assert a == pytest.approx(b, rel=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            tr.cross_entropy_loss(Tensor(np.zeros((1, 2))), np.array([2]))


class TestCombinedLoss:
    def _parts(self, rng, n_parts=18):
        labels = np.array([0, 0, 1, 1])
        return (Tensor(rng.normal(size=(n_parts, 4, 3))),
                Tensor(rng.normal(size=(n_parts, 4, 2))), labels)

    def test_gamma_zero(self, rng):
        metrics, logits, labels = self._parts(rng)
        total, tri, _ = tr.combined_loss(metrics, logits, labels, 0.2, 0.0)
        assert total.item() == pytest.approx(tri.item(), abs=1e-12)

    def test_equal_losses_scale(self):
        # engineered so every part produces triplet = ce = c
        metrics = Tensor(np.tile([[0.0], [2.0], [1.0], [9.0]], (18, 1, 1)))
        labels = np.array([0, 0, 1, 1])
        logits = Tensor(np.zeros((18, 4, 2)))
        gamma = 0.7
        total, tri, ce = tr.combined_loss(metrics, logits, labels, 0.2, gamma)
        assert total.item() == pytest.approx(tri.item() + gamma * ce.item(),
                                             abs=1e-12)

    def test_hand_sum(self, rng):
        metrics, logits, labels = self._parts(rng)
        gamma = 1.3
        total, _, _ = tr.combined_loss(metrics, logits, labels, 0.2, gamma)
        parts = []
        for m, l in zip(metrics.data, logits.data):
            parts.append(ref.ref_batch_hard_triplet(m, labels, 0.2)
                         + gamma * ref.ref_cross_entropy(l, labels))
        assert total.item() == pytest.approx(sum(parts) / 18, abs=1e-12)


def _central_differences(loss, x0, h=1e-6):
    """Central differences of the scalar ``loss(Tensor)`` at ``x0``."""
    num = np.zeros_like(x0)
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        num.flat[i] = (loss(Tensor(xp)).item() - loss(Tensor(xm)).item()) / (2 * h)
    return num


class TestLossNodes:
    """Each loss is one node with a hand-written backward."""

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6, 3)])
    def test_triplet_gradient(self, rng, shape):
        """2-D (one slot) and S = 3 against central differences; random
        features keep every hardest pair and hinge away from a tie."""
        labels = np.array([0, 0, 1, 1, 2, 2])
        x0 = rng.normal(size=shape)
        x = Tensor(x0.copy(), requires_grad=True)
        tr.triplet_loss(x, labels, 1.0).backward()
        num = _central_differences(lambda t: tr.triplet_loss(t, labels, 1.0), x0)
        assert np.abs(num).max() > 0.0
        np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
    def test_cross_entropy_gradient(self, rng, shape):
        labels = np.array([4, 0, 2, 2])
        x0 = rng.normal(size=shape)
        x = Tensor(x0.copy(), requires_grad=True)
        tr.cross_entropy_loss(x, labels).backward()
        num = _central_differences(lambda t: tr.cross_entropy_loss(t, labels), x0)
        np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)

    def test_all_anchors_skipped_gives_no_gradient(self, rng):
        """Every label distinct: the triplet loss is 0 with its warning,
        and only the cross-entropy reaches a gradient."""
        metric = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        labels = np.array([0, 1, 2])
        with pytest.warns(UserWarning, match="no anchor"):
            total, tri, ce = tr.combined_loss(metric, logits, labels, 0.2, 1.0)
        assert tri.item() == 0.0 and total.item() == ce.item()
        total.backward()
        assert metric.grad is None and logits.grad.any()

    def test_cross_entropy_memory(self, rng):
        """On (18, 64, 2000) logits that borrow their gradient, as the
        classifier's output does, forward and backward each peak within
        1.25 logits-sized arrays above what was allocated before, and the
        gradient is ``(softmax - onehot) / (S * N)``."""
        s, n, c = 18, 64, 2000
        data = rng.normal(size=(s, n, c))
        labels = rng.integers(0, c, size=n)
        received = []
        logits = Tensor(data)
        logits.requires_grad = True
        logits._backward = received.append
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss = tr.cross_entropy_loss(logits, labels)
            forward = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward <= 1.25 * data.nbytes, forward / data.nbytes
        assert backward <= 1.25 * data.nbytes, backward / data.nbytes
        e = np.exp(data - data.max(axis=2, keepdims=True))
        expect = e / e.sum(axis=2, keepdims=True)
        expect[:, np.arange(n), labels] -= 1.0
        np.testing.assert_allclose(received[0], expect / (s * n), rtol=0,
                                   atol=1e-15)


def _set_grads(model, grads: dict):
    """Each role's gradient for the next step, through ``_accumulate`` as
    backward delivers it: ``grads`` maps a role's position in
    ``model.roles()`` to its gradient; a role it maps to None, or leaves
    out, gets none."""
    for i, role in enumerate(model.roles()):
        role.zero_grad()
        if grads.get(i) is not None:
            role._accumulate(grads[i])


def _random_grads(model, rng, skip=()) -> dict:
    """A random gradient for every role but those in ``skip``."""
    return {i: rng.normal(size=role.shape) for i, role in enumerate(model.roles())
            if not any(role is r for r in skip)}


def _one_role(value: float):
    """A tiny model and one of its roles, its head biases, set to
    ``value``; its other roles get no gradient in these tests."""
    model = init_model(tiny_net_cfg(3), seed=5)
    role = model.heads.fc_b
    role.data[...] = value
    return model, role


def _position(model, role) -> int:
    return next(i for i, r in enumerate(model.roles()) if r is role)


class TestAdam:
    def test_first_step_magnitude(self):
        model, p = _one_role(0.0)
        _set_grads(model, {_position(model, p): np.ones(p.shape)})
        tr.adam_step(model, tr.OptimizerState(), lr=0.01)
        np.testing.assert_allclose(p.data, -0.01, rtol=1e-6)

    def test_zero_gradient_no_move(self):
        model, p = _one_role(5.0)
        _set_grads(model, {_position(model, p): np.zeros(p.shape)})
        state = tr.OptimizerState()
        tr.adam_step(model, state, lr=0.1)
        assert (p.data == 5.0).all()
        assert state.step == 1

    def test_two_step_recurrence(self):
        g = 0.7
        lr = 0.05
        model, p = _one_role(1.0)
        state = tr.OptimizerState()
        for _ in range(2):
            _set_grads(model, {_position(model, p): np.full(p.shape, g)})
            tr.adam_step(model, state, lr)
        # hand-computed recurrence
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = v = 0.0
        x = 1.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            x -= lr * mh / (math.sqrt(vh) + eps)
        np.testing.assert_allclose(p.data, x, rtol=0, atol=1e-12)

    def test_in_place_update_equals_formula_bit_for_bit(self, rng):
        """Five steps on two roles (one without a gradient at step 3):
        moments and values equal the textbook formulas exactly, and the
        value and moment arrays are updated in place."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        model = init_model(tiny_net_cfg(3), seed=5)
        roles = {"a": model.heads.cls_w, "b": model.branches["joint"][0].temporal_kernel}
        at = {n: _position(model, r) for n, r in roles.items()}
        arrays = {n: r.data for n, r in roles.items()}
        x = {n: r.data.copy() for n, r in roles.items()}
        m = {n: np.zeros_like(r.data) for n, r in roles.items()}
        v = {n: np.zeros_like(r.data) for n, r in roles.items()}
        state = tr.OptimizerState()
        for t in range(1, 6):
            lr = 0.01 * t
            grads = {n: None if (n, t) == ("b", 3) else rng.normal(size=r.shape)
                     for n, r in roles.items()}
            _set_grads(model, {at[n]: g for n, g in grads.items()})
            tr.adam_step(model, state, lr)
            if t == 1:
                moments = state.m, state.v
            assert state.m is moments[0] and state.v is moments[1]
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, r in roles.items():
                g = grads[n]
                if g is not None:
                    m[n] = b1 * m[n] + (1.0 - b1) * g
                    v[n] = b2 * v[n] + (1.0 - b2) * g * g
                    x[n] = x[n] - lr * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
                    np.testing.assert_array_equal(r.grad, g)
                np.testing.assert_array_equal(r.view(state.m), m[n])
                np.testing.assert_array_equal(r.view(state.v), v[n])
                np.testing.assert_array_equal(r.data, x[n])
                assert r.data is arrays[n]
        assert state.step == 5

    def test_nonfinite_gradient_names_tensor(self):
        """The error names the parameter by its checkpoint name: the
        role's slot that holds the value."""
        model, p = _one_role(0.0)
        g = np.zeros(p.shape)
        g[2, 1] = np.nan
        _set_grads(model, {_position(model, p): g})
        with pytest.raises(NumericError, match="head/02/fc_b"):
            tr.adam_step(model, tr.OptimizerState(), 0.1)


def _disjoint(arrays: list) -> bool:
    return not any(np.may_share_memory(a, b) and np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[:i])


class TestArenaAdam:
    """Adam over a model's parameter arena steps runs of roles as flat
    arrays; the per-tensor step (``reference.adam_step``) on loose copies
    of every checkpoint-named parameter is its bit-exact oracle."""

    @staticmethod
    def skipped(model):                     # no gradient at step 3
        return model.branches["angle"][0].attn_a

    @staticmethod
    def never(model):                       # never a gradient
        return model.branches["joint"][1].learned_adj

    @staticmethod
    def _model():
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        loose = {name: Tensor(p.data.copy(), requires_grad=True)
                 for name, p in params.items()}
        return model, params, loose

    @staticmethod
    def _step(model, loose, state, oracle, lr, grads):
        """One step of the arena's Adam and of the oracle on the same
        gradients; every value and moment agrees bit for bit."""
        _set_grads(model, grads)
        params = model.named_parameters()
        for name, t in loose.items():
            g = params[name].grad
            t.grad = None if g is None else g.copy()
        tr.adam_step(model, state, lr)
        ref.adam_step(loose, oracle, lr)
        saved = tr.training_tensors(model, state)
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, loose[name].data, err_msg=name)
            for moment in ("m", "v"):
                expect = getattr(oracle, moment).get(name, np.zeros(p.shape))
                np.testing.assert_array_equal(saved[f"optim/{name}/{moment}"], expect,
                                              err_msg=name)

    @staticmethod
    def _names(model, role) -> set:
        """The checkpoint names of a role's parameters."""
        return {name for name, p in model.named_parameters().items()
                if p is role or getattr(p, "role", None) is role}

    def test_five_steps_equal_the_per_tensor_oracle(self, rng):
        model, params, loose = self._model()
        arrays = [r.data for r in model.roles()]
        state, oracle = tr.OptimizerState(), ref.AdamState()
        for t in range(1, 6):
            skip = [self.never(model)] + ([self.skipped(model)] if t == 3 else [])
            self._step(model, loose, state, oracle, 0.01 * t,
                       _random_grads(model, rng, skip))
            assert all(r.data is a for r, a in zip(model.roles(), arrays))
        assert state.step == oracle.step == 5
        never = self._names(model, self.never(model))
        assert len(never) == 3
        assert oracle.m.keys() == params.keys() - never
        assert _disjoint([p.data for p in params.values()])
        assert _disjoint([p.grad for p in params.values() if p.grad is not None])
        saved = tr.training_tensors(model, state)
        assert [k for k in saved if k.startswith("optim/")] == [
            f"optim/{name}/{moment}" for name in params for moment in ("m", "v")]
        for name in never:
            assert not saved[f"optim/{name}/m"].any()
            assert not saved[f"optim/{name}/v"].any()

    def test_nonfinite_gradient_names_its_tensor(self, rng):
        model, _params, _loose = self._model()
        grads = _random_grads(model, rng)
        grads[_position(model, self.skipped(model))][1, 0, 1] = np.inf
        _set_grads(model, grads)
        with pytest.raises(NumericError, match="branch/angle/block0/k1/attn_a"):
            tr.adam_step(model, tr.OptimizerState(), 0.1)

    def test_slot_without_gradient_is_not_stepped(self, rng):
        """With 4 channels each batch-norm shift of a block is 4 floats,
        fewer than ``ARENA_ALIGN``. A middle one without a gradient keeps
        its value and moments, its region of the gradient array is set to
        0, and the roles on both sides of it step."""
        model, _params, loose = self._model()
        block = model.branches["angle"][1]
        p, neighbours = block.bn1.beta, (block.bn1.gamma, block.bn2.gamma)
        roles = model.roles()
        i = _position(model, p)
        assert p.data.size < ARENA_ALIGN and roles[i - 1] is neighbours[0]
        assert roles[i + 1] is neighbours[1]
        state, oracle = tr.OptimizerState(), ref.AdamState()
        for t in range(1, 4):
            if t == 3:
                held = [a.copy() for a in (p.data, p.view(state.m), p.view(state.v))]
                moved = [r.data.copy() for r in neighbours]
            self._step(model, loose, state, oracle, 0.01,
                       _random_grads(model, rng, [p] if t == 3 else []))
        assert not p.view(model.arena.grad).any()
        for old, now in zip(held, (p.data, p.view(state.m), p.view(state.v))):
            np.testing.assert_array_equal(now, old)
        assert all(not np.array_equal(r.data, old) for r, old in zip(neighbours, moved))

    def test_region_padding_stays_zero(self, rng):
        """The floats between regions are 0 in the values, gradients and
        moments, and stay 0 through steps."""
        model, _params, _loose = self._model()
        arena = model.arena
        pad = np.ones(arena.size, dtype=bool)
        for r in model.roles():
            pad[r.start:r.start + r.data.size] = False
        assert pad.any()
        state = tr.OptimizerState()
        for t in range(1, 4):
            _set_grads(model, _random_grads(model, rng))
            tr.adam_step(model, state, 0.01 * t)
            for flat in (arena.data, arena.grad, state.m, state.v):
                assert flat[pad].tobytes() == bytes(8 * pad.sum())

    def test_restore_without_some_moments_then_step_equals_the_oracle(self, rng):
        """A checkpoint lacking some parameters' ``optim/`` entries
        restores them as fresh (zero) moments: the next steps equal the
        oracle's, which has no moments for them."""
        model, params, loose = self._model()
        state, oracle = tr.OptimizerState(), ref.AdamState()
        for t in range(1, 3):
            self._step(model, loose, state, oracle, 0.01 * t, _random_grads(model, rng))
        tensors = dict(tr.training_tensors(model, state))
        for name in ("branch/angle/block0/k1/attn_a", "head/05/fc_b"):
            del tensors[f"optim/{name}/m"], tensors[f"optim/{name}/v"]
            del oracle.m[name], oracle.v[name]
        resumed = init_model(tiny_net_cfg(3), seed=9)
        restored = tr.restore_training_state(resumed, tensors)
        assert restored.step == oracle.step == 2
        for t in range(3, 5):
            self._step(resumed, loose, restored, oracle, 0.01 * t,
                       _random_grads(resumed, rng))

    def test_load_and_resume_fill_the_arena_views(self, tmp_path, rng):
        """After ``restore_training_state`` every parameter and moment
        holds the checkpoint's values in its place of the arena's
        arrays, and the next step moves those same arrays."""
        model = init_model(tiny_net_cfg(3), seed=5)
        state = tr.OptimizerState()
        for _ in range(2):
            _set_grads(model, _random_grads(model, rng))
            tr.adam_step(model, state, 0.01)
        path = tmp_path / "run.gpgw"
        save_container(path, {}, tr.training_tensors(model, state))
        _, tensors = load_container(path)
        resumed = init_model(tiny_net_cfg(3), seed=9)
        restored = tr.restore_training_state(resumed, tensors)
        assert restored.step == 2
        arena = resumed.arena
        assert restored.m.shape == restored.v.shape == (arena.size,)
        held = [r.data for r in resumed.roles()]
        assert all(a.base is arena.data for a in held)
        params2 = resumed.named_parameters()
        for name, p in params2.items():
            np.testing.assert_array_equal(p.data, tensors[name])
            for moment in ("m", "v"):
                np.testing.assert_array_equal(p.view(getattr(restored, moment)),
                                              tensors[f"optim/{name}/{moment}"])
        moments = restored.m, restored.v
        _set_grads(resumed, _random_grads(resumed, rng))
        tr.adam_step(resumed, restored, 0.01)
        assert restored.m is moments[0] and restored.v is moments[1]
        assert all(r.data is a for r, a in zip(resumed.roles(), held))
        for name, p in params2.items():
            assert not np.array_equal(p.data, tensors[name]), name
            assert not np.array_equal(p.view(restored.m),
                                      tensors[f"optim/{name}/m"]), name

    def test_model_freed_without_the_cycle_collector(self, rng):
        """Roles and their arena hold no reference cycle: a trained model
        and its optimizer state are freed as soon as nothing refers to
        them, not at the next cycle collection."""
        gc.disable()
        try:
            model = init_model(tiny_net_cfg(3), seed=5)
            _set_grads(model, _random_grads(model, rng))
            state = tr.OptimizerState()
            tr.adam_step(model, state, 0.01)
            arena = model.arena
            refs = [weakref.ref(a) for a in (arena.data, arena.grad, state.m, state.v)]
            del model, state, arena
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestSchedule:
    def test_endpoints_exact(self):
        total = 101
        assert tr.one_cycle_lr(0, total, 1e-5, 1e-3, 1e-8) == 1e-5
        assert tr.one_cycle_lr(30, total, 1e-5, 1e-3, 1e-8) == 1e-3
        assert tr.one_cycle_lr(100, total, 1e-5, 1e-3, 1e-8) == 1e-8

    def test_phase2_end_returns_to_init(self):
        assert tr.one_cycle_lr(90, 101, 1e-5, 1e-3, 1e-8) == pytest.approx(
            1e-5, rel=1e-12)

    def test_continuity_at_boundaries(self):
        # continuity proper: the two phase formulas agree at the shared
        # progress point within 1e-12 relative
        lr_init, lr_max, lr_final = 1e-5, 1e-3, 1e-8
        warmup_end = tr.one_cycle_lr(30, 101, lr_init, lr_max, lr_final)
        w0 = 0.5 * (1.0 + math.cos(0.0))
        cosine_start = lr_max * w0 + lr_init * (1.0 - w0)
        assert abs(cosine_start - warmup_end) <= 1e-12 * warmup_end
        cosine_end = tr.one_cycle_lr(90, 101, lr_init, lr_max, lr_final)
        tail_start = lr_init * 1.0 + lr_final * 0.0
        assert abs(cosine_end - tail_start) <= 1e-12 * tail_start
        # and no step-to-step jump anywhere near the boundaries
        total = 100000
        for boundary in (0.3, 0.9):
            i = int(boundary * (total - 1))
            before = tr.one_cycle_lr(i, total, lr_init, lr_max, lr_final)
            after = tr.one_cycle_lr(i + 1, total, lr_init, lr_max, lr_final)
            assert abs(after - before) / before < 1e-3

    def test_monotone_warmup(self):
        vals = [tr.one_cycle_lr(i, 101, 1e-5, 1e-3, 1e-8) for i in range(31)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("fractions, start, end", [
        ((0.0, 0.9, 0.1), 1e-3, 1e-8),   # no warmup: starts at the peak
        ((0.0, 0.0, 1.0), 1e-5, 1e-8),   # the tail alone
        ((0.3, 0.7, 0.0), 1e-5, 1e-5),   # no tail: ends at the initial rate
        ((1.0, 0.0, 0.0), 1e-5, 1e-3),   # the warmup alone
    ])
    def test_zero_length_phase_skipped(self, fractions, start, end):
        vals = [tr.one_cycle_lr(i, 101, 1e-5, 1e-3, 1e-8, fractions)
                for i in range(101)]
        assert vals[0] == start and vals[-1] == end
        assert all(1e-8 <= v <= 1e-3 for v in vals)

    @pytest.mark.parametrize("fractions", [
        (0.5, 0.6, -0.1), (0.5, 0.5), (0.3, 0.6, 0.1, 0.0), (math.nan, 0.5, 0.5),
        (math.inf, 0.5, 0.5), (0.3, 0.6, 0.2),
    ])
    def test_phase_fractions_checked(self, fractions):
        with pytest.raises(ConfigError, match="train.phase_fractions must be"):
            tr.TrainConfig(phase_fractions=fractions)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            tr.one_cycle_lr(101, 101, 1e-5, 1e-3, 1e-8)
        with pytest.raises(ConfigError):
            tr.one_cycle_lr(-1, 101, 1e-5, 1e-3, 1e-8)


class TestGradientFlow:
    def test_every_parameter_reached(self, rng):
        """Backward from the combined loss touches every trainable
        tensor (BN shift included via nonzero beta paths)."""
        ts = build_train_set()
        net_cfg = tiny_net_cfg(ts.num_classes)
        model = init_model(net_cfg, seed=1)
        batch, labels = tr.sample_batch(ts, 2, 2, 4, rng)
        from gpgait.pagcn import descriptor_inputs
        res = network_forward(model, descriptor_inputs(net_cfg, **batch),
                              training=True)
        total, _, _ = tr.combined_loss(res.metrics, res.logits, labels, 0.2, 1.0)
        total.backward()
        for name, p in model.named_parameters().items():
            assert p.grad is not None, f"no gradient for {name}"
            assert np.isfinite(p.grad).all(), f"non-finite gradient for {name}"


class TestTrainLoop:
    def test_smoke_and_checkpoint_roundtrip(self, tmp_path):
        ts = build_train_set()
        model, final = tr.train_loop(
            ts, tiny_net_cfg(ts.num_classes),
            tiny_train_cfg(iterations=6, checkpoint_interval=3),
            tmp_path / "run")
        config, tensors = load_container(final)
        assert config["train"]["iterations"] == 6
        # losses were finite (loop would have aborted otherwise) and the
        # metrics log exists with parseable lines
        lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert lines and all("total" in ln for ln in lines)
        # round trip: what was written reads back as float32-exact copies
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(
                tensors[name], t.data.astype(np.float32).astype(np.float64))
        assert int(tensors["train/step"][0]) == 6

    def test_bit_identical_reruns(self, tmp_path):
        ts = build_train_set()
        paths = []
        for run in ("a", "b"):
            _, final = tr.train_loop(
                ts, tiny_net_cfg(ts.num_classes), tiny_train_cfg(iterations=5),
                tmp_path / run)
            paths.append(final)
        b1 = open(paths[0], "rb").read()
        b2 = open(paths[1], "rb").read()
        assert b1 == b2

    def test_resume_continues_counter(self, tmp_path):
        ts = build_train_set()
        cfg = tiny_train_cfg(iterations=4)
        model, final = tr.train_loop(ts, tiny_net_cfg(ts.num_classes), cfg,
                                     tmp_path / "r1")
        _, tensors = load_container(final)
        model2 = init_model(tiny_net_cfg(ts.num_classes), seed=cfg.seed)
        state = tr.restore_training_state(model2, tensors)
        assert state.step == 4
        cfg2 = tiny_train_cfg(iterations=6)
        _, final2 = tr.train_loop(ts, tiny_net_cfg(ts.num_classes), cfg2,
                                  tmp_path / "r2", model=model2, state=state)
        _, t2 = load_container(final2)
        assert int(t2["train/step"][0]) == 6

    def test_previous_graph_released_before_next_forward(self, tmp_path,
                                                         monkeypatch):
        forward = tr.network_forward
        previous = []

        def recording_forward(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in previous)
            result = forward(*args, **kwargs)
            # the array lives as long as anything holds this graph
            previous.append(weakref.ref(result.metrics.data))
            return result

        monkeypatch.setattr(tr, "network_forward", recording_forward)
        ts = build_train_set()
        tr.train_loop(ts, tiny_net_cfg(ts.num_classes),
                      tiny_train_cfg(iterations=3), tmp_path / "run")
        assert len(previous) == 3

    def test_moment_shape_mismatch_is_data_error(self, rng):
        model = init_model(tiny_net_cfg(3), seed=0)
        _set_grads(model, _random_grads(model, rng))
        state = tr.OptimizerState()
        tr.adam_step(model, state, 0.01)
        tensors = tr.training_tensors(model, state)
        name = "optim/head/00/fc_b/v"
        tensors[name] = tensors[name][:1]
        with pytest.raises(DataError, match=f"tensor {name}: checkpoint shape"):
            tr.restore_training_state(init_model(tiny_net_cfg(3), seed=1), tensors)

    def test_training_steps_the_whole_arena_as_one_span(self, tmp_path,
                                                         monkeypatch):
        """Every step of a fresh and of a resumed run gives every role a
        gradient in its region of the arena's gradient array and steps
        the whole arena as one span, slice after slice from 0 to the last
        role's end: training never takes another path."""
        seen = []
        update = tr._adam_update

        def recording(p, g, m, v, *args):
            seen.append((p.base, g.base, p.size))
            update(p, g, m, v, *args)

        monkeypatch.setattr(tr, "_adam_update", recording)

        def assert_one_span(model):
            arena, roles = model.arena, model.roles()
            for role in roles:
                assert role.data.base is arena.data and role.grad.base is arena.grad
            whole = roles[-1].start + roles[-1].data.size
            assert arena.size - ARENA_ALIGN < whole <= arena.size
            slices = -(-whole // tr.ADAM_SLICE)
            assert len(seen) == 2 * slices
            assert all(p is arena.data and g is arena.grad for p, g, _ in seen)
            assert sum(size for *_, size in seen) == 2 * whole
            seen.clear()

        ts = build_train_set()
        net_cfg = tiny_net_cfg(ts.num_classes)
        cfg = tiny_train_cfg(iterations=2, checkpoint_interval=1)
        model, _final = tr.train_loop(ts, net_cfg, cfg, tmp_path / "run")
        assert_one_span(model)
        header, tensors = load_container(tmp_path / "run" / "ckpt_000001.gpgw")
        resumed = blank_model(net_cfg)
        state = tr.restore_training_state(resumed, tensors)
        tr.train_loop(ts, net_cfg, tiny_train_cfg(iterations=3), tmp_path / "resumed",
                      model=resumed, state=state,
                      sampler_state=header["sampler_state"])
        assert_one_span(resumed)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator setting is glibc's")
    def test_steady_state_iteration_takes_no_page_faults(self, tmp_path):
        """An iteration reuses the memory the previous one freed instead
        of touching fresh pages (thousands of minor faults per toy
        iteration when glibc trims and unmaps what each block frees)."""
        ts = build_train_set(n_ids=4, frames=24)
        run_cfg = build_run_config(preset="toy", overrides={
            "iterations": 6, "log_interval": 1, "checkpoint_interval": 0})
        faults = []
        tr.train_loop(ts, run_cfg.network_config(num_classes=ts.num_classes),
                      run_cfg.train_config(), tmp_path / "run",
                      log_fn=lambda line: faults.append(
                          resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        assert len(faults) == 6
        # iterations 4-6. One of them may still grow the heap to its
        # high-water mark (about 170 faults for one more (8, 20, 17, 32)
        # array; where that lands depends on the process's earlier
        # allocations), so the quietest two are counted.
        quietest = sorted(np.diff(faults)[2:])[:2]
        assert sum(quietest) <= 100

    def test_malformed_sampler_state_is_data_error(self, tmp_path):
        ts = build_train_set()
        with pytest.raises(DataError, match="checkpoint: malformed sampler_state"):
            tr.train_loop(ts, tiny_net_cfg(ts.num_classes),
                          tiny_train_cfg(iterations=1), tmp_path / "r",
                          sampler_state={"bit_generator": "MT19937"})


def _expected_directory():
    """Checkpoint directory of a 2-branch (joint, angle) network with one
    parts5 block of 4 channels, one global block of 4, embedding 4 and 3
    classes, written out by hand: parameters, running statistics, Adam
    moments per parameter, then the step counter."""
    params, buffers = [], []
    for branch, c_in in (("joint", 2), ("angle", 1)):
        for j, cin in enumerate((c_in, 4)):
            pre = f"branch/{branch}/block{j}"
            for k in range(3):
                params += [(f"{pre}/k{k}/weight", (cin, 4)),
                           (f"{pre}/k{k}/adj", (17, 17)),
                           (f"{pre}/k{k}/attn_a", (cin, 4)),
                           (f"{pre}/k{k}/attn_b", (cin, 4))]
            params += [(f"{pre}/tkernel", (3, 4)),
                       (f"{pre}/bn1/gamma", (4,)), (f"{pre}/bn1/beta", (4,)),
                       (f"{pre}/bn2/gamma", (4,)), (f"{pre}/bn2/beta", (4,))]
            buffers += [(f"{pre}/bn1/mean", (4,)), (f"{pre}/bn1/var", (4,)),
                        (f"{pre}/bn2/mean", (4,)), (f"{pre}/bn2/var", (4,))]
    for i in range(12):
        pre = f"head/{i:02d}"
        params += [(f"{pre}/fc_w", (4, 4)), (f"{pre}/fc_b", (4,)),
                   (f"{pre}/bnn/gamma", (4,)), (f"{pre}/bnn/beta", (4,)),
                   (f"{pre}/cls_w", (4, 3))]
        buffers += [(f"{pre}/bnn/mean", (4,)), (f"{pre}/bnn/var", (4,))]
    optim = [(f"optim/{name}/{moment}", shape)
             for name, shape in params for moment in ("m", "v")]
    return params + buffers + optim + [("train/step", (1,))]


def test_checkpoint_directory_is_pinned(tmp_path):
    ts = build_train_set()
    net_cfg = NetworkConfig(num_classes=ts.num_classes, branches=("joint", "angle"),
                            parts5_channels=(4,), larger_schemes=("global",),
                            larger_channels=4, embed_dim=4)
    state = tr.OptimizerState()
    model, final = tr.train_loop(ts, net_cfg, tiny_train_cfg(iterations=1),
                                 tmp_path / "run", state=state)
    got = [(name, arr.shape) for name, arr in tr.training_tensors(model, state).items()]
    expected = _expected_directory()
    assert len(expected) == 128 + 40 + 256 + 1
    assert got == expected
    _, tensors = load_container(final)
    assert [(name, arr.shape) for name, arr in tensors.items()] == expected
