"""Acceptance suite: each test exercises one numbered criterion at its
stated tolerance and prints one PASS/FAIL line.

The heavy end-to-end runs (toy training on the synthetic dataset, the
cross-domain ablation pair) are shared through session fixtures; both
training commands run in subprocesses pinned to one BLAS thread so the
wall-clock budgets mean what they claim.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import reference as ref
from gpgait import hod, hot
from gpgait.autodiff import Tensor
from gpgait.eval import GalleryProbeSplit, SplitEntry, rank1_casiab
from gpgait.graph import PARTS5, build_adjacency_subsets, mask_set
from gpgait.pagcn import (
    NetworkConfig,
    branch_forward,
    detached_view,
    init_model,
    network_forward,
    pagcn_block,
    pagcn_spatial,
    part_pool,
    per_part_head,
    temporal_pool,
)
from gpgait.train import (
    combined_loss,
    cross_entropy_loss,
    one_cycle_lr,
    triplet_loss,
)

from conftest import sequence_from_coords, walker_frame
from test_pagcn import make_block

MASKS = mask_set()
ADJ = build_adjacency_subsets()


@contextmanager
def criterion(num, desc):
    import conftest
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {num:02d} FAIL  {desc}"
        conftest.ACCEPTANCE_LINES.append(line)
        print("\n" + line, flush=True)
        raise
    line = f"ACCEPTANCE {num:02d} PASS  {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print("\n" + line, flush=True)


def _single_thread_env():
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _run_cli(args, timeout=900):
    proc = subprocess.run([sys.executable, "-m", "gpgait.cli"] + args,
                          capture_output=True, text=True, timeout=timeout,
                          env=_single_thread_env())
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc


def _rank1_from_results(path) -> float:
    for line in open(path, encoding="utf-8"):
        if line.startswith("summary\tmean\t"):
            return float(line.rsplit("\t", 1)[1])
    raise AssertionError(f"no summary in {path}")


DOMAIN_B_CAMERAS = [
    "scale=0.5,tx=-120,ty=60", "scale=0.8,tx=220,ty=-90",
    "scale=1.5,tx=-40,ty=180", "scale=2.2,tx=90,ty=40",
    "scale=3.0,tx=300,ty=-200", "scale=3.6,tx=-260,ty=-150",
    "scale=4.2,tx=10,ty=250", "scale=5.0,tx=170,ty=120",
]


@pytest.fixture(scope="session")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def domain_a(acceptance_dir):
    out = acceptance_dir / "domain_a"
    _run_cli(["synth", "--out", str(out), "--identities", "20",
              "--sequences", "6", "--frames", "40", "--seed", "42",
              "--camera", "scale=1"])
    return out / "manifest.tsv"


@pytest.fixture(scope="session")
def domain_b(acceptance_dir):
    """Same walkers as domain A under varied similarity cameras."""
    out = acceptance_dir / "domain_b"
    args = ["synth", "--out", str(out), "--identities", "20",
            "--sequences", "6", "--frames", "40", "--seed", "42"]
    for cam in DOMAIN_B_CAMERAS:
        args += ["--camera", cam]
    _run_cli(args)
    return out / "manifest.tsv"


@pytest.fixture(scope="session")
def hot_run(acceptance_dir, domain_a):
    out = acceptance_dir / "train_hot"
    start = time.perf_counter()
    _run_cli(["train", "--preset", "toy", "--manifest", str(domain_a),
              "--out", str(out), "--seed", "7"])
    elapsed = time.perf_counter() - start
    return out / "final.gpgw", elapsed


@pytest.fixture(scope="session")
def nohot_run(acceptance_dir, domain_a):
    out = acceptance_dir / "train_nohot"
    start = time.perf_counter()
    _run_cli(["train", "--preset", "toy", "--manifest", str(domain_a),
              "--out", str(out), "--seed", "7", "--no-hot"])
    elapsed = time.perf_counter() - start
    return out / "final.gpgw", elapsed


def _eval_rank1(checkpoint, manifest, out_path):
    start = time.perf_counter()
    _run_cli(["eval", "--checkpoint", str(checkpoint), "--manifest",
              str(manifest), "--out", str(out_path)])
    return _rank1_from_results(out_path), time.perf_counter() - start


def test_01_hot_similarity_invariance(rng):
    with criterion(1, "HOT similarity invariance (200 frames, 1e-9 rel, <1s)"):
        cfg = hot.HotConfig()
        frames = np.stack([walker_frame(rng.uniform(0, 2 * math.pi))
                           + rng.normal(0, 3.0, size=(17, 2))
                           for _ in range(200)])
        start = time.perf_counter()
        moved = []
        for coords in frames:
            s = rng.uniform(0.1, 10.0)
            t = rng.uniform(-1000.0, 1000.0, size=2)
            moved.append(coords * s + t)
        base, kept = hot.unify_frames(frames, cfg)
        moved, moved_kept = hot.unify_frames(np.stack(moved), cfg)
        assert kept == moved_kept == list(range(200))
        np.testing.assert_allclose(moved, base, rtol=1e-9,
                                   atol=1e-9 * cfg.h_unif)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_hot_slant_correction(rng):
    with criterion(2, "HOT slant correction (rho up to 0.6, 1e-6 abs, <1s)"):
        cfg = hot.HotConfig(phi=0.1)
        never = hot.HotConfig(phi=math.pi)  # no slant reaches pi

        def unify(coords, config=cfg):
            frames, kept = hot.unify_frames(coords[None], config)
            assert kept == [0]
            return frames[0]

        start = time.perf_counter()
        for _ in range(20):
            coords = walker_frame(rng.uniform(0, 2 * math.pi))
            base = unify(coords)
            neck = (coords[5] + coords[6]) / 2.0
            for rho in (0.15, -0.15, 0.3, -0.3, 0.6, -0.6):
                c, s = math.cos(rho), math.sin(rho)
                rel = coords - neck
                rot = np.stack([c * rel[:, 0] - s * rel[:, 1],
                                s * rel[:, 0] + c * rel[:, 1]], axis=1) + neck
                recovered = unify(rot)
                np.testing.assert_allclose(recovered, base, atol=1e-6)
            for rho in (0.05, -0.09):
                c, s = math.cos(rho), math.sin(rho)
                rel = coords - neck
                rot = np.stack([c * rel[:, 0] - s * rel[:, 1],
                                s * rel[:, 0] + c * rel[:, 1]], axis=1) + neck
                # below phi: the same output as a threshold no slant
                # reaches, bit for bit
                np.testing.assert_array_equal(unify(rot), unify(rot, never))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_03_height_and_origin(rng):
    with criterion(3, "height 225 (1e-9 rel) and exact neck origin"):
        cfg = hot.HotConfig(h_unif=225.0)
        for _ in range(50):
            frames = [walker_frame(rng.uniform(0, 6))
                      + rng.normal(0, 2.0, size=(17, 2)) for _ in range(4)]
            scale = rng.uniform(0.2, 8.0)
            shift = rng.uniform(-400, 400, size=2)
            seq = sequence_from_coords([f * scale + shift for f in frames])
            out = hot.apply_hot(seq, cfg)
            for f in out.frames:
                extent = f[:, 1].max() - f[:, 1].min()
                assert abs(extent - 225.0) <= 1e-9 * 225.0
                neck = (f[5] + f[6]) / 2.0
                assert neck[0] == 0.0 and neck[1] == 0.0


def test_04_hod_oracles(rng):
    with criterion(4, "inner angles: law-of-cosines == dot product (1e-9); "
                      "3/4/5 triangle gives pi/2 exactly"):
        for _ in range(1000):
            coords = walker_frame(rng.uniform(0, 2 * math.pi)) \
                + rng.normal(0, 3.0, size=(17, 2))
            angles, warns = hod.compute_angles(coords)
            assert not warns
            for j, (l, m, r) in hod.INNER_TRIANGLES.items():
                va = coords[l] - coords[m]
                vb = coords[r] - coords[m]
                cosang = np.dot(va, vb) / (np.linalg.norm(va)
                                           * np.linalg.norm(vb))
                expect = math.acos(min(1.0, max(-1.0, cosang)))
                assert abs(angles[j] - expect) <= 1e-9
        coords = walker_frame()
        coords[12] = (0.0, 3.0)
        coords[14] = (0.0, 0.0)
        coords[16] = (4.0, 0.0)
        angles, _ = hod.compute_angles(coords)
        assert angles[14] == math.pi / 2


def test_05_mask_algebra(rng):
    with criterion(5, "parts5 mask == per-part computation (1e-6, 50 draws); "
                      "cross-part influence exactly 0 through 3 blocks"):
        for _ in range(50):
            block = make_block(rng, 3, 4)
            f = rng.normal(size=(2, 3, 17, 3))
            full = pagcn_spatial(Tensor(f), block, ADJ, MASKS["parts5"]).data
            for g in PARTS5.values():
                ix = np.asarray(g)
                fg = f[:, :, ix, :]
                pieces = np.zeros((2, 3, len(ix), 4))
                for k, sub in enumerate(block.subsets):
                    att = ref.ref_attention(fg, sub.attn_a.data,
                                            sub.attn_b.data)
                    for b in range(2):
                        h = (ADJ[k][np.ix_(ix, ix)]
                             + sub.learned_adj.data[np.ix_(ix, ix)] + att[b])
                        for t in range(3):
                            pieces[b, t] += (fg[b, t].T @ h).T @ sub.weight.data
                np.testing.assert_allclose(full[:, :, ix, :], pieces,
                                           atol=1e-6)
        blocks = [make_block(rng, 4, 4) for _ in range(3)]
        f = rng.normal(size=(1, 5, 17, 4))
        poked = f.copy()
        poked[:, :, 16, :] += 11.0

        def run(x):
            t = Tensor(x)
            for b in blocks:
                t = pagcn_block(t, b, ADJ, MASKS, training=False)
            return t.data

        base, out = run(f), run(poked)
        others = [j for j in range(17) if j not in PARTS5["right_leg"]]
        np.testing.assert_array_equal(out[:, :, others, :],
                                      base[:, :, others, :])


def test_06_gradient_checks():
    with criterion(6, "full-network gradient check vs central differences "
                      "(<=1e-4 rel, 64-bit, <2 min)"):
        start = time.perf_counter()
        cfg = NetworkConfig(num_classes=2, parts5_channels=(4,),
                            larger_schemes=("global",), larger_channels=4,
                            embed_dim=4)
        model = init_model(cfg, seed=8)
        rng = np.random.default_rng(17)
        labels = np.array([0, 0, 1, 1])
        inputs = {
            "joint": rng.normal(size=(4, 3, 17, 2)),
            "angle": rng.normal(size=(4, 3, 17, 1)),
            "bone": rng.normal(size=(4, 3, 17, 2)),
        }
        margin, gamma = 0.2, 1.0

        params = model.named_parameters()
        res = network_forward(model, inputs, training=True,
                              update_stats=False)
        loss, _, _ = combined_loss(res.metrics, res.logits, labels, margin,
                                   gamma)
        for p in params.values():
            p.zero_grad()
        loss.backward()

        # value path for the finite differences: parts of untouched
        # branches are constants that cancel in the central difference,
        # so only the perturbed branch is recomputed
        view = detached_view(model)

        def branch_part_sums(bname):
            offset = list(cfg.branches).index(bname) * 6
            x = Tensor(inputs[bname])
            f_m = branch_forward(x, view.branches[bname], view.adjacency,
                                 view.masks, training=True,
                                 update_stats=False)
            pooled = temporal_pool(part_pool(f_m))
            sums = []
            for p in range(6):
                metric, logits = per_part_head(pooled[:, p, :],
                                               view.heads[offset + p],
                                               training=True,
                                               update_stats=False)
                sums.append(triplet_loss(metric, labels, margin).item()
                            + gamma * cross_entropy_loss(logits,
                                                         labels).item())
            return sums

        cached = {b: branch_part_sums(b) for b in cfg.branches}
        staged_total = sum(sum(v) for v in cached.values()) / 18.0
        assert abs(staged_total - loss.item()) < 1e-12

        def staged_loss(bname):
            total = sum(sum(v) for b, v in cached.items() if b != bname)
            return (total + sum(branch_part_sums(bname))) / 18.0

        h = 1e-6
        worst = 0.0
        for name, p in params.items():
            if name.startswith("branch/"):
                bname = name.split("/")[1]
            else:
                bname = cfg.branches[int(name.split("/")[1]) // 6]
            flat = p.data.reshape(-1)
            grad = p.grad.reshape(-1)
            tensor_worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = staged_loss(bname)
                flat[i] = orig - h
                lm = staged_loss(bname)
                flat[i] = orig
                fd = (lp - lm) / (2.0 * h)
                err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-4)
                tensor_worst = max(tensor_worst, err)
            assert tensor_worst <= 1e-4, (
                f"{name}: max relative error {tensor_worst:.3e}")
            worst = max(worst, tensor_worst)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(f"\n  gradient check: worst rel err {worst:.2e}, "
              f"{elapsed:.0f}s", flush=True)


def test_07_loss_oracles(rng):
    with criterion(7, "triplet == brute force (100 batches); CE oracle "
                      "(1e-9); schedule endpoints exact"):
        for _ in range(100):
            n = int(rng.integers(4, 17))
            emb = rng.normal(size=(n, 6))
            labels = rng.integers(0, max(2, n // 3), size=n)
            if len(np.unique(labels)) < 2:
                labels[0] += 1
            mine = triplet_loss(Tensor(emb), labels, 0.3).item()
            expect = ref.ref_batch_hard_triplet(emb, labels, 0.3)
            assert mine == pytest.approx(expect, rel=1e-9, abs=1e-12)
        for _ in range(50):
            logits = rng.normal(size=(6, 5))
            labels = rng.integers(0, 5, size=6)
            mine = cross_entropy_loss(Tensor(logits), labels).item()
            assert abs(mine - ref.ref_cross_entropy(logits, labels)) <= 1e-9
        total = 101
        assert one_cycle_lr(0, total, 1e-5, 1e-3, 1e-8) == 1e-5
        assert one_cycle_lr(30, total, 1e-5, 1e-3, 1e-8) == 1e-3
        assert one_cycle_lr(total - 1, total, 1e-5, 1e-3, 1e-8) == 1e-8


def test_08_synthetic_end_to_end(domain_a, hot_run, acceptance_dir):
    with criterion(8, "toy training on 20x6 synthetic set: rank-1 >= 80% "
                      "in <= 10 min single-threaded"):
        checkpoint, train_time = hot_run
        assert train_time <= 600.0, f"training took {train_time:.0f}s"
        rank1, _ = _eval_rank1(checkpoint, domain_a,
                               acceptance_dir / "results_same.tsv")
        print(f"\n  train {train_time:.0f}s, same-domain rank-1 {rank1:.3f}",
              flush=True)
        assert rank1 >= 0.80, f"rank-1 {rank1:.3f}"


def test_09_synthetic_cross_domain(domain_a, domain_b, hot_run, nohot_run,
                                   acceptance_dir):
    with criterion(9, "cross-domain == same-domain within 2pp with "
                      "normalization; ablation strictly lower (<= 15 min)"):
        hot_ckpt, hot_time = hot_run
        nohot_ckpt, nohot_time = nohot_run
        same, t1 = _eval_rank1(hot_ckpt, domain_a,
                               acceptance_dir / "results_a.tsv")
        cross, t2 = _eval_rank1(hot_ckpt, domain_b,
                                acceptance_dir / "results_b.tsv")
        # the checkpoint's header turns normalization off
        nohot_cross, t3 = _eval_rank1(
            nohot_ckpt, domain_b, acceptance_dir / "results_b_nohot.tsv")
        total = hot_time + nohot_time + t1 + t2 + t3
        print(f"\n  same {same:.3f}, cross {cross:.3f}, "
              f"no-hot cross {nohot_cross:.3f}, total {total:.0f}s",
              flush=True)
        assert abs(cross - same) <= 0.02 + 1e-12
        assert nohot_cross < cross
        assert total <= 900.0, f"took {total:.0f}s"


def test_10_protocol_correctness():
    with criterion(10, "cross-view protocol matches hand-enumerated cells; "
                       "identical-view cells excluded"):
        gallery, probe = [], []
        idx = 0
        for label in ("A", "B"):
            for view in ("000", "090"):
                gallery.append(SplitEntry(index=idx, label=label, view=view,
                                          condition="NM", seq_index=1))
                idx += 1
        for label in ("A", "B"):
            for view in ("000", "090"):
                probe.append(SplitEntry(index=idx, label=label, view=view,
                                        condition="NM", seq_index=5))
                idx += 1
        split = GalleryProbeSplit(gallery=gallery, probe=probe,
                                  protocol="casiab")
        emb = np.zeros((8, 1, 2))
        coords = {
            ("A", "000"): (0.0, 0.0), ("A", "090"): (0.3, 0.0),
            ("B", "000"): (10.0, 10.0), ("B", "090"): (10.3, 10.0),
        }
        rows = [("A", "000"), ("A", "090"), ("B", "000"), ("B", "090")] * 2
        for i, key in enumerate(rows):
            emb[i, 0] = coords[key]
        emb[6, 0] = (0.31, 0.0)  # probe B@000 intrudes into A's cluster
        result = rank1_casiab(split, emb)
        # hand enumeration: cell (000 -> 090): probe A000 -> nearest A090
        # hit; probe B000 -> nearest A090 miss => 1/2. cell (090 -> 000):
        # A090 -> A000 hit; B090 -> B000 hit => 1. average 0.75
        by_cell = {(pv, gv): acc for _c, pv, gv, acc in result.cells}
        assert by_cell[("000", "090")] == 0.5
        assert by_cell[("090", "000")] == 1.0
        assert result.accuracies["NM"] == 0.75
        assert all(pv != gv for _c, pv, gv, _a in result.cells)
        assert len(result.cells) == 2


def test_11_determinism(domain_a, hot_run, acceptance_dir):
    with criterion(11, "fixed-seed training twice -> bit-identical "
                       "checkpoints; eval twice -> bit-identical results"):
        checkpoints = []
        for tag in ("d1", "d2"):
            out = acceptance_dir / f"det_{tag}"
            _run_cli(["train", "--preset", "toy", "--manifest",
                      str(domain_a), "--out", str(out), "--seed", "13",
                      "--iterations", "30"])
            checkpoints.append((out / "final.gpgw").read_bytes())
        assert checkpoints[0] == checkpoints[1]

        hot_ckpt, _ = hot_run
        results = []
        for tag in ("e1", "e2"):
            out = acceptance_dir / f"det_{tag}.tsv"
            _run_cli(["eval", "--checkpoint", str(hot_ckpt), "--manifest",
                      str(domain_a), "--out", str(out)])
            results.append(out.read_bytes())
        assert results[0] == results[1]
