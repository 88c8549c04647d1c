import gc
import math
import platform
import resource
import weakref

import numpy as np
import pytest

import reference as ref
from gpgait import train as tr
from gpgait.autodiff import Tensor
from gpgait.checkpoint import load_container, save_container
from gpgait.config import build_run_config
from gpgait.errors import ConfigError, DataError, NumericError
from gpgait.hot import HotConfig, apply_hot
from gpgait.pagcn import NetworkConfig, init_model, network_forward
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


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        state = tr.OptimizerState()
        tr.adam_step({"w": p}, state, lr=0.01)
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_zero_gradient_no_move(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        p.grad = np.array([0.0])
        state = tr.OptimizerState()
        tr.adam_step({"w": p}, state, lr=0.1)
        assert p.data[0] == 5.0
        assert state.step == 1

    def test_two_step_recurrence(self):
        g = 0.7
        lr = 0.05
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = tr.OptimizerState()
        for _ in range(2):
            p.grad = np.array([g])
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
        params = {"a": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=5), requires_grad=True)}
        arrays = {n: p.data for n, p in params.items()}
        x = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p.data) for n, p in params.items()}
        v = {n: np.zeros_like(p.data) for n, p in params.items()}
        state = tr.OptimizerState()
        for t in range(1, 6):
            lr = 0.01 * t
            for n, p in params.items():
                p.grad = None if (n, t) == ("b", 3) else rng.normal(size=p.shape)
            grads = {n: None if p.grad is None else p.grad.copy()
                     for n, p in params.items()}
            tr.adam_step(params, state, lr)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, p in params.items():
                g = grads[n]
                if g is not None:
                    m[n] = b1 * m[n] + (1.0 - b1) * g
                    v[n] = b2 * v[n] + (1.0 - b2) * g * g
                    x[n] = x[n] - lr * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
                    np.testing.assert_array_equal(p.grad, g)
                    np.testing.assert_array_equal(state.m[n], m[n])
                    np.testing.assert_array_equal(state.v[n], v[n])
                np.testing.assert_array_equal(p.data, x[n])
                assert p.data is arrays[n]
        assert state.step == 5

    def test_nonfinite_gradient_names_tensor(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([np.nan])
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
    """Adam over a model's parameter arena steps runs of whole regions
    as flat arrays; the per-tensor step (``reference.adam_step``) on
    loose copies of the same parameters is its bit-exact oracle."""

    SKIPPED = "branch/angle/block0/k1/attn_a"      # no gradient at step 3
    NEVER = "branch/joint/block1/k2/adj"           # never a gradient
    ASSIGNED = "head/03/fc_w"                      # p.grad assigned directly

    def test_five_steps_equal_the_per_tensor_oracle(self, rng):
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        assert all(_in_arena(p) for p in params.values())
        loose = {name: Tensor(p.data.copy(), requires_grad=True)
                 for name, p in params.items()}
        arrays = {name: p.data for name, p in params.items()}
        state, oracle = tr.OptimizerState(), tr.OptimizerState()
        for t in range(1, 6):
            lr = 0.01 * t
            for name, p in params.items():
                p.zero_grad()
                loose[name].grad = None
                if name == self.NEVER or (name, t) == (self.SKIPPED, 3):
                    continue
                g = rng.normal(size=p.shape)
                loose[name].grad = g.copy()
                if name == self.ASSIGNED:
                    p.grad = g
                else:
                    p._accumulate(g)
            runs, alone = tr._adam_runs(params, tr.OptimizerState())
            assert runs
            assert self.ASSIGNED in {name for name, _p in alone}
            tr.adam_step(params, state, lr)
            ref.adam_step(loose, oracle, lr)
            for name, p in params.items():
                assert p.data is arrays[name]
                np.testing.assert_array_equal(p.data, loose[name].data, err_msg=name)
            assert state.m.keys() == oracle.m.keys() == params.keys() - {self.NEVER}
            for name in oracle.m:
                np.testing.assert_array_equal(state.m[name], oracle.m[name], err_msg=name)
                np.testing.assert_array_equal(state.v[name], oracle.v[name], err_msg=name)
        assert state.step == oracle.step == 5
        assert _disjoint(list(arrays.values()))
        assert _disjoint([p.grad for p in params.values() if p.grad is not None])
        assert _disjoint(list(state.m.values()) + list(state.v.values()))
        saved = tr.training_tensors(model, state)
        assert not {f"optim/{self.NEVER}/m", f"optim/{self.NEVER}/v"} & saved.keys()
        assert f"optim/{self.SKIPPED}/m" in saved

    def test_nonfinite_gradient_names_its_tensor(self, rng):
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        for name, p in params.items():
            g = rng.normal(size=p.shape)
            if name == self.SKIPPED:
                g[0, 1] = np.inf
            p._accumulate(g)
        assert tr._adam_runs(params, tr.OptimizerState())[0]
        with pytest.raises(NumericError, match=self.SKIPPED):
            tr.adam_step(params, tr.OptimizerState(), 0.1)

    def test_load_and_resume_fill_the_arena_views(self, tmp_path, rng):
        """After ``load_model_tensors`` / ``restore_training_state`` every
        parameter and moment is an arena view holding the checkpoint's
        values, and the next step moves those same arrays."""
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        state = tr.OptimizerState()
        for _ in range(2):
            for p in params.values():
                p.zero_grad()
                p._accumulate(rng.normal(size=p.shape))
            tr.adam_step(params, state, 0.01)
        saved = tr.training_tensors(model, state)
        path = tmp_path / "run.gpgw"
        save_container(path, {}, saved)
        _, tensors = load_container(path)
        resumed = init_model(tiny_net_cfg(3), seed=9)
        restored = tr.restore_training_state(resumed, tensors)
        assert restored.step == 2
        params2 = resumed.named_parameters()
        arena = next(iter(params2.values())).home[0].arena
        m_flat, v_flat = restored.moments[arena]
        held = {}
        for name, p in params2.items():
            assert _in_arena(p) and p.home[0].arena is arena, name
            assert restored.m[name].base is m_flat and restored.v[name].base is v_flat
            np.testing.assert_array_equal(p.data, tensors[name])
            for moment in ("m", "v"):
                np.testing.assert_array_equal(getattr(restored, moment)[name],
                                              tensors[f"optim/{name}/{moment}"])
            held[name] = (p.data, restored.m[name], restored.v[name])
        for p in params2.values():
            p._accumulate(rng.normal(size=p.shape))
        tr.adam_step(params2, restored, 0.01)
        for name, p in params2.items():
            now = (p.data, restored.m[name], restored.v[name])
            assert all(a is b for a, b in zip(now, held[name])), name
            assert not np.array_equal(p.data, tensors[name]), name
            assert not np.array_equal(restored.m[name], tensors[f"optim/{name}/m"])


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
            refs = [weakref.ref(a) for a in (arena.data, arena.grad,
                                             *state.moments[arena])]
            del model, params, tensor, state, arena
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestAdamPlan:
    """``adam_step`` keeps its run plan on the optimizer state and
    rebuilds it only when a parameter's name, tensor, values or gradient
    is another object than when it was made; every step's values equal
    the per-tensor oracle (``reference.adam_step``) bit for bit."""

    NAME = "branch/joint/block0/k1/weight"

    def _steps(self, rng, monkeypatch, before_step):
        """Four steps of a toy model and of loose copies of its
        parameters, ``before_step(t, params)`` run after each step's
        gradients are placed; returns the number of plans built."""
        built = []
        plan_runs = tr._adam_runs
        monkeypatch.setattr(tr, "_adam_runs",
                            lambda *a: built.append(1) or plan_runs(*a))
        model = init_model(tiny_net_cfg(3), seed=5)
        params = model.named_parameters()
        loose = {name: Tensor(p.data.copy(), requires_grad=True)
                 for name, p in params.items()}
        state, oracle = tr.OptimizerState(), tr.OptimizerState()
        for t in range(1, 5):
            for name, p in params.items():
                p.zero_grad()
                g = rng.normal(size=p.shape)
                p._accumulate(g)
                loose[name].grad = g.copy()
            before_step(t, params, loose)
            tr.adam_step(params, state, 0.01 * t)
            ref.adam_step(loose, oracle, 0.01 * t)
            for name, p in params.items():
                np.testing.assert_array_equal(p.data, loose[name].data, err_msg=name)
            assert state.m.keys() == oracle.m.keys()
            for name in oracle.m:
                np.testing.assert_array_equal(state.m[name], oracle.m[name], err_msg=name)
                np.testing.assert_array_equal(state.v[name], oracle.v[name], err_msg=name)
        return len(built)

    def test_plan_made_once_while_nothing_changes(self, rng, monkeypatch):
        assert self._steps(rng, monkeypatch, lambda t, params, loose: None) == 1

    def test_rebound_data_rebuilds_the_plan(self, rng, monkeypatch):
        """Step 3 rebinds one tensor's ``data`` before its gradient is
        placed, so the tensor leaves its arena slot and steps alone. Its
        gradient is then an array of its own, a new one every step, so
        steps 3 and 4 each build a plan."""
        def rebind(t, params, loose):
            if t == 3:
                p = params[self.NAME]
                p.data = p.data.copy()
                p.zero_grad()
                p._accumulate(loose[self.NAME].grad)
                assert not _in_arena(p)
        assert self._steps(rng, monkeypatch, rebind) == 3

    def test_missing_gradient_rebuilds_the_plan(self, rng, monkeypatch):
        """One parameter has no gradient at step 2 and has one again at
        step 3: each change builds a plan."""
        def drop(t, params, loose):
            if t == 2:
                params[self.NAME].zero_grad()
                loose[self.NAME].grad = None
        assert self._steps(rng, monkeypatch, drop) == 3


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

    def test_moment_shape_mismatch_is_data_error(self):
        model = init_model(tiny_net_cfg(3), seed=0)
        state = tr.OptimizerState()
        for name, p in model.named_parameters().items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        tensors = tr.training_tensors(model, state)
        name = "optim/head/00/fc_b/v"
        tensors[name] = tensors[name][:1]
        with pytest.raises(DataError, match=f"tensor {name}: checkpoint shape"):
            tr.restore_training_state(init_model(tiny_net_cfg(3), seed=1), tensors)

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
