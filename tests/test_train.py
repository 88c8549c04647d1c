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
from gpgait.autodiff import ARENA_ALIGN, Arena, Tensor, _slot_gradient_region
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


def _placed(*arrays):
    """Parameters holding ``arrays``' values, each placed in an arena
    region of its own (``autodiff.Arena``), as a model's are."""
    params = [Tensor(a, requires_grad=True) for a in arrays]
    Arena([[p] for p in params])
    return params


def _set_grads(params: dict, grads: dict):
    """Each parameter's gradient for the next step, through
    ``_accumulate`` as backward delivers it; one that ``grads`` maps to
    None gets none."""
    for name, p in params.items():
        p.zero_grad()
        if grads[name] is not None:
            p._accumulate(grads[name])


class TestAdam:
    def test_first_step_magnitude(self):
        (p,) = _placed(np.array([0.0]))
        p._accumulate(np.array([1.0]))
        tr.adam_step({"w": p}, tr.OptimizerState(), lr=0.01)
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_zero_gradient_no_move(self):
        (p,) = _placed(np.array([5.0]))
        p._accumulate(np.array([0.0]))
        state = tr.OptimizerState()
        tr.adam_step({"w": p}, state, lr=0.1)
        assert p.data[0] == 5.0
        assert state.step == 1

    def test_two_step_recurrence(self):
        g = 0.7
        lr = 0.05
        (p,) = _placed(np.array([1.0]))
        state = tr.OptimizerState()
        for _ in range(2):
            _set_grads({"w": p}, {"w": np.array([g])})
            tr.adam_step({"w": p}, state, lr)
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
        assert p.data[0] == pytest.approx(x, abs=1e-12)

    def test_in_place_update_equals_formula_bit_for_bit(self, rng):
        """Five steps on two parameters (one without a gradient at step
        3): moments and parameters equal the textbook formulas exactly,
        and the parameter and moment arrays are updated in place."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        a, b = _placed(rng.normal(size=(3, 4)), rng.normal(size=5))
        params = {"a": a, "b": b}
        arrays = {n: p.data for n, p in params.items()}
        x = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p.data) for n, p in params.items()}
        v = {n: np.zeros_like(p.data) for n, p in params.items()}
        state = tr.OptimizerState()
        for t in range(1, 6):
            lr = 0.01 * t
            grads = {n: None if (n, t) == ("b", 3) else rng.normal(size=p.shape)
                     for n, p in params.items()}
            _set_grads(params, grads)
            tr.adam_step(params, state, lr)
            if t == 1:
                moments = state.m, state.v
            assert state.m is moments[0] and state.v is moments[1]
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, p in params.items():
                g = grads[n]
                if g is not None:
                    m[n] = b1 * m[n] + (1.0 - b1) * g
                    v[n] = b2 * v[n] + (1.0 - b2) * g * g
                    x[n] = x[n] - lr * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
                    np.testing.assert_array_equal(p.grad, g)
                np.testing.assert_array_equal(tr._slot(state.m, p), m[n])
                np.testing.assert_array_equal(tr._slot(state.v, p), v[n])
                np.testing.assert_array_equal(p.data, x[n])
                assert p.data is arrays[n]
        assert state.step == 5

    def test_nonfinite_gradient_names_tensor(self):
        (p,) = _placed(np.array([0.0]))
        p._accumulate(np.array([np.nan]))
        with pytest.raises(NumericError, match="spooky"):
            tr.adam_step({"spooky": p}, tr.OptimizerState(), 0.1)


def _in_arena(t: Tensor) -> bool:
    """Whether ``t`` holds its arena slot: its data is a view of the
    arena's value array."""
    return t.home is not None and t.data.base is t.home[0].arena.data


def _disjoint(arrays: list) -> bool:
    return not any(np.may_share_memory(a, b) and np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[:i])


class TestArenaAdam:
    """Adam over a model's parameter arena steps spans of slots as flat
    arrays; the per-tensor step (``reference.adam_step``) on loose copies
    of the same parameters is its bit-exact oracle."""

    SKIPPED = "branch/angle/block0/k1/attn_a"      # no gradient at step 3
    NEVER = "branch/joint/block1/k2/adj"           # never a gradient
    MIDDLE = "head/05/fc_b"                        # (4,): narrower than ARENA_ALIGN

    @staticmethod
    def _model():
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        assert all(_in_arena(p) for p in params.values())
        loose = {name: Tensor(p.data.copy(), requires_grad=True)
                 for name, p in params.items()}
        return model, params, loose

    @staticmethod
    def _step(params, loose, state, oracle, lr, grads):
        """One step of the arena's Adam and of the oracle on the same
        gradients; every value and moment agrees bit for bit."""
        _set_grads(params, grads)
        for name, t in loose.items():
            t.grad = None if grads[name] is None else grads[name].copy()
        tr.adam_step(params, state, lr)
        ref.adam_step(loose, oracle, lr)
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, loose[name].data, err_msg=name)
            for moment in ("m", "v"):
                expect = getattr(oracle, moment).get(name, np.zeros(p.shape))
                np.testing.assert_array_equal(
                    tr._slot(getattr(state, moment), p), expect, err_msg=name)

    def test_five_steps_equal_the_per_tensor_oracle(self, rng):
        model, params, loose = self._model()
        arrays = {name: p.data for name, p in params.items()}
        state, oracle = tr.OptimizerState(), ref.AdamState()
        for t in range(1, 6):
            grads = {name: None if name == self.NEVER
                     or (name, t) == (self.SKIPPED, 3) else rng.normal(size=p.shape)
                     for name, p in params.items()}
            self._step(params, loose, state, oracle, 0.01 * t, grads)
            assert all(p.data is arrays[name] for name, p in params.items())
        assert state.step == oracle.step == 5
        assert oracle.m.keys() == params.keys() - {self.NEVER}
        assert _disjoint(list(arrays.values()))
        assert _disjoint([p.grad for p in params.values() if p.grad is not None])
        saved = tr.training_tensors(model, state)
        assert [k for k in saved if k.startswith("optim/")] == [
            f"optim/{name}/{moment}" for name in params for moment in ("m", "v")]
        assert not saved[f"optim/{self.NEVER}/m"].any()
        assert not saved[f"optim/{self.NEVER}/v"].any()

    def test_nonfinite_gradient_names_its_tensor(self, rng):
        _model, params, _loose = self._model()
        grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
        grads[self.SKIPPED][0, 1] = np.inf
        _set_grads(params, grads)
        assert tr._adam_spans(params)[1]
        with pytest.raises(NumericError, match=self.SKIPPED):
            tr.adam_step(params, tr.OptimizerState(), 0.1)

    def test_gradient_outside_its_slot_names_the_tensor(self, rng):
        """A gradient assigned as an array of its own, or a tensor whose
        ``data`` was rebound out of its slot, is a ValueError naming it;
        nothing is stepped."""
        for name, leave in (("head/03/fc_w", "grad"), (self.SKIPPED, "data")):
            model, params, _loose = self._model()
            _set_grads(params, {n: rng.normal(size=p.shape) for n, p in params.items()})
            p = params[name]
            if leave == "grad":
                p.grad = p.grad.copy()
            else:
                p.data = p.data.copy()
            before = [q.data.copy() for q in params.values()]
            state = tr.OptimizerState()
            with pytest.raises(ValueError, match=name):
                tr.adam_step(params, state, 0.1)
            assert state.step == 0 and state.m is None
            for q, old in zip(params.values(), before):
                np.testing.assert_array_equal(q.data, old)

    def test_slot_without_gradient_is_not_stepped(self, rng):
        """With ``embed_dim`` 4 each fc_b slot is 4 floats, fewer than
        ``ARENA_ALIGN``. A middle one without a gradient keeps its value
        and moments (its gradient slot is 0: ``zero_grad`` cleared it),
        while the slots on both sides of it step."""
        _model, params, loose = self._model()
        p = params[self.MIDDLE]
        region, i = p.home
        assert p.data.size < ARENA_ALIGN and 0 < i < len(region.views) - 1
        neighbours = [n for n, q in params.items()
                      if q.home in ((region, i - 1), (region, i + 1))]
        assert len(neighbours) == 2
        state, oracle = tr.OptimizerState(), ref.AdamState()
        for t in range(1, 4):
            grads = {name: None if (name, t) == (self.MIDDLE, 3)
                     else rng.normal(size=q.shape) for name, q in params.items()}
            if t == 3:
                held = [a.copy() for a in (p.data, tr._slot(state.m, p),
                                            tr._slot(state.v, p))]
                moved = {n: params[n].data.copy() for n in neighbours}
            self._step(params, loose, state, oracle, 0.01, grads)
        assert not tr._slot(p.home[0].arena.grad, p).any()
        for old, now in zip(held, (p.data, tr._slot(state.m, p), tr._slot(state.v, p))):
            np.testing.assert_array_equal(now, old)
        assert all(not np.array_equal(params[n].data, moved[n]) for n in neighbours)
        _arena, spans = tr._adam_spans(params)
        assert any(stop == p.home[0].start + i * p.data.size for _s, stop, *_ in spans)

    def test_region_padding_stays_zero(self, rng):
        """The floats between regions are 0 in the values, gradients and
        moments, and stay 0 through steps."""
        _model, params, loose = self._model()
        arena = next(iter(params.values())).home[0].arena
        pad = np.ones(arena.size, dtype=bool)
        for p in params.values():
            pad[p.home[0].start:p.home[0].stop] = False
        assert pad.any()
        state = tr.OptimizerState()
        for t in range(1, 4):
            _set_grads(params, {n: rng.normal(size=p.shape) for n, p in params.items()})
            tr.adam_step(params, state, 0.01 * t)
            for flat in (arena.data, arena.grad, state.m, state.v):
                assert flat[pad].tobytes() == bytes(8 * pad.sum())

    def test_restore_without_some_moments_then_step_equals_the_oracle(self, rng):
        """A checkpoint lacking some parameters' ``optim/`` entries
        restores them as fresh (zero) moments: the next steps equal the
        oracle's, which has no moments for them."""
        model, params, loose = self._model()
        state, oracle = tr.OptimizerState(), ref.AdamState()
        for t in range(1, 3):
            self._step(params, loose, state, oracle, 0.01 * t,
                       {n: rng.normal(size=p.shape) for n, p in params.items()})
        tensors = dict(tr.training_tensors(model, state))
        for name in (self.SKIPPED, self.MIDDLE):
            del tensors[f"optim/{name}/m"], tensors[f"optim/{name}/v"]
            del oracle.m[name], oracle.v[name]
        resumed = init_model(tiny_net_cfg(3), seed=9)
        restored = tr.restore_training_state(resumed, tensors)
        assert restored.step == oracle.step == 2
        params2 = resumed.named_parameters()
        for t in range(3, 5):
            self._step(params2, loose, restored, oracle, 0.01 * t,
                       {n: rng.normal(size=p.shape) for n, p in params2.items()})

    def test_load_and_resume_fill_the_arena_views(self, tmp_path, rng):
        """After ``restore_training_state`` every parameter and moment
        slot holds the checkpoint's values, and the next step moves those
        same arrays."""
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        state = tr.OptimizerState()
        for _ in range(2):
            _set_grads(params, {n: rng.normal(size=p.shape) for n, p in params.items()})
            tr.adam_step(params, state, 0.01)
        path = tmp_path / "run.gpgw"
        save_container(path, {}, tr.training_tensors(model, state))
        _, tensors = load_container(path)
        resumed = init_model(tiny_net_cfg(3), seed=9)
        restored = tr.restore_training_state(resumed, tensors)
        assert restored.step == 2
        params2 = resumed.named_parameters()
        arena = next(iter(params2.values())).home[0].arena
        assert restored.m.shape == restored.v.shape == (arena.size,)
        held = {}
        for name, p in params2.items():
            assert _in_arena(p) and p.home[0].arena is arena, name
            np.testing.assert_array_equal(p.data, tensors[name])
            for moment in ("m", "v"):
                np.testing.assert_array_equal(tr._slot(getattr(restored, moment), p),
                                              tensors[f"optim/{name}/{moment}"])
            held[name] = p.data
        moments = restored.m, restored.v
        _set_grads(params2, {n: rng.normal(size=p.shape) for n, p in params2.items()})
        tr.adam_step(params2, restored, 0.01)
        assert restored.m is moments[0] and restored.v is moments[1]
        for name, p in params2.items():
            assert p.data is held[name], name
            assert not np.array_equal(p.data, tensors[name]), name
            assert not np.array_equal(tr._slot(restored.m, p),
                                      tensors[f"optim/{name}/m"]), name

    def test_model_freed_without_the_cycle_collector(self, rng):
        """Tensors, their regions and the arena hold no reference cycle:
        a trained model and its optimizer state are freed as soon as
        nothing refers to them, not at the next cycle collection."""
        gc.disable()
        try:
            model = init_model(tiny_net_cfg(3), seed=5)
            params = model.named_parameters()
            for tensor in params.values():
                tensor._accumulate(rng.normal(size=tensor.shape))
            state = tr.OptimizerState()
            tr.adam_step(params, state, 0.01)
            arena = tensor.home[0].arena
            refs = [weakref.ref(a) for a in (arena.data, arena.grad, state.m, state.v)]
            del model, params, tensor, state, arena
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
        params = model.named_parameters()
        _set_grads(params, {n: rng.normal(size=p.shape) for n, p in params.items()})
        state = tr.OptimizerState()
        tr.adam_step(params, state, 0.01)
        tensors = tr.training_tensors(model, state)
        name = "optim/head/00/fc_b/v"
        tensors[name] = tensors[name][:1]
        with pytest.raises(DataError, match=f"tensor {name}: checkpoint shape"):
            tr.restore_training_state(init_model(tiny_net_cfg(3), seed=1), tensors)

    def test_training_steps_the_whole_arena_as_one_span(self, tmp_path,
                                                         monkeypatch):
        """Every step of a fresh and of a resumed run finds each
        parameter's values and gradient in its arena slots and steps the
        whole arena as one span: training never takes another path."""
        seen = []
        spans_of = tr._adam_spans

        def recording(params):
            arena, spans = spans_of(params)
            seen.append((arena, [span[:2] for span in spans]))
            for name, p in params.items():
                assert _slot_gradient_region(p) is p.home[0], name
            return arena, spans

        monkeypatch.setattr(tr, "_adam_spans", recording)

        def assert_one_span(model):
            params = model.named_parameters().values()
            arena = next(iter(params)).home[0].arena
            whole = max(p.home[0].stop for p in params)
            assert arena.size - ARENA_ALIGN < whole <= arena.size
            assert seen == [(arena, [[0, whole]])] * 2
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
