import numpy as np
import pytest

from gpgait import hod, pose_io, synth
from gpgait.errors import ConfigError, DataError
from gpgait.hot import HotConfig, apply_hot


class TestGenerateSequence:
    def test_identity_camera_upright(self):
        ident = synth.make_identities(2, seed=0)[0]
        seq = synth.generate_sequence(ident, synth.CameraSpec(), 12, seed=4)
        assert seq.num_frames == 12
        # spine exactly vertical in every frame
        for coords in seq.frames[..., :2]:
            neck_x = (coords[5, 0] + coords[6, 0]) / 2.0
            hip_x = (coords[11, 0] + coords[12, 0]) / 2.0
            assert neck_x == pytest.approx(hip_x, abs=1e-12)

    def test_same_seed_bit_identical(self):
        ident = synth.make_identities(2, seed=0)[0]
        cam = synth.CameraSpec(jitter_sigma=1.0)
        a = synth.generate_sequence(ident, cam, 10, seed=7)
        b = synth.generate_sequence(ident, cam, 10, seed=7)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_camera_invariance_chain(self):
        """Similarity-only cameras (no jitter) produce identical unified
        sequences from the same walker sample."""
        ident = synth.make_identities(2, seed=1)[0]
        cam_a = synth.CameraSpec()
        cam_b = synth.CameraSpec(scale=3.0, tx=140.0, ty=-60.0)
        a = synth.generate_sequence(ident, cam_a, 14, seed=9)
        b = synth.generate_sequence(ident, cam_b, 14, seed=9)
        ua = apply_hot(a, HotConfig())
        ub = apply_hot(b, HotConfig())
        np.testing.assert_allclose(ua.frames, ub.frames, atol=1e-9 * 225)

    def test_slanted_camera_recovered(self):
        ident = synth.make_identities(2, seed=1)[0]
        a = synth.generate_sequence(ident, synth.CameraSpec(), 6, seed=9)
        b = synth.generate_sequence(ident, synth.CameraSpec(slant=0.3), 6, seed=9)
        ua = apply_hot(a, HotConfig())
        ub = apply_hot(b, HotConfig())
        np.testing.assert_allclose(ua.frames, ub.frames, atol=1e-6)


class TestCameraSpec:
    @pytest.mark.parametrize("field", ["scale", "tx", "ty", "slant", "jitter_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ConfigError, match="must be finite"):
            synth.CameraSpec(**{field: value})

    def test_negative_jitter_refused(self):
        with pytest.raises(ConfigError, match="jitter must be nonnegative"):
            synth.CameraSpec(jitter_sigma=-1.0)


class TestIdentities:
    def test_spacing_enforced(self):
        ids = synth.make_identities(10, seed=3)
        keys = sorted(ids[0].limb_ratios)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a = np.array([ids[i].limb_ratios[k] for k in keys])
                b = np.array([ids[j].limb_ratios[k] for k in keys])
                assert np.max(np.abs(a - b) / b) >= 0.05

    def test_identity_separability_in_angles(self):
        """Distinct identities differ measurably in inner angles
        somewhere in the cycle (jitter-free)."""
        ids = synth.make_identities(4, seed=2)
        cam = synth.CameraSpec()
        angle_tracks = []
        for ident in ids:
            seq = synth.generate_sequence(ident, cam, 40, seed=1)
            u = apply_hot(seq, HotConfig())
            d = hod.build_descriptors(u)
            angle_tracks.append(d["angle"][..., 0])
        inner = sorted(hod.INNER_TRIANGLES)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                # compare distribution of inner angles over the cycle
                ai = np.sort(angle_tracks[i][:, inner], axis=0)
                aj = np.sort(angle_tracks[j][:, inner], axis=0)
                assert np.abs(ai - aj).max() >= 1e-3

    def test_needs_two(self):
        with pytest.raises(ConfigError):
            synth.make_identities(1, seed=0)


class TestGenerateDataset:
    def test_counts_and_roles(self, tmp_path):
        mpath = synth.generate_dataset(tmp_path / "d", 4, 3,
                                       synth.CameraSpec(), 8, seed=5)
        manifest = pose_io.load_manifest(mpath)
        assert len(manifest.entries) == 12
        roles = [r for _p, r in manifest.entries]
        assert roles.count("probe") == 4
        assert roles.count("gallery") == 8
        seqs = pose_io.load_sequences_with_roles(manifest)
        assert len(seqs) == 12
        assert [r for _s, r in seqs] == roles
        probe_ids = [s.seq_id for s, r in seqs if r == "probe"]
        assert all(sid.split("-")[2] == "00" for sid in probe_ids)

    def test_regeneration_identical_files(self, tmp_path):
        p1 = synth.generate_dataset(tmp_path / "a", 3, 2, synth.CameraSpec(
            jitter_sigma=0.3), 6, seed=5)
        p2 = synth.generate_dataset(tmp_path / "b", 3, 2, synth.CameraSpec(
            jitter_sigma=0.3), 6, seed=5)
        m1 = pose_io.load_manifest(p1)
        for (f1, _), (f2, _) in zip(m1.entries,
                                    pose_io.load_manifest(p2).entries):
            b1 = (tmp_path / "a" / f1).read_bytes()
            b2 = (tmp_path / "b" / f2).read_bytes()
            assert b1 == b2

    def test_needs_two_identities(self, tmp_path):
        with pytest.raises(DataError):
            synth.generate_dataset(tmp_path / "x", 1, 2, synth.CameraSpec(),
                                   6, seed=0)

    def test_needs_one_sequence_per_identity(self, tmp_path):
        with pytest.raises(DataError, match="at least 1 sequence"):
            synth.generate_dataset(tmp_path / "x", 2, 0, synth.CameraSpec(),
                                   6, seed=0)
        assert not (tmp_path / "x").exists()

    def test_cross_camera_same_walkers(self, tmp_path):
        """The per-sequence walker sample is camera-independent: two
        datasets with different similarity cameras unify identically."""
        pa = synth.generate_dataset(tmp_path / "da", 2, 2, synth.CameraSpec(),
                                    6, seed=8)
        pb = synth.generate_dataset(
            tmp_path / "db", 2, 2,
            synth.CameraSpec(scale=2.5, tx=30.0, ty=-10.0), 6, seed=8)
        sa = pose_io.load_sequences_with_roles(pose_io.load_manifest(pa))
        sb = pose_io.load_sequences_with_roles(pose_io.load_manifest(pb))
        for (a, _ra), (b, _rb) in zip(sa, sb):
            ua = apply_hot(a, HotConfig())
            ub = apply_hot(b, HotConfig())
            np.testing.assert_allclose(ua.frames, ub.frames, atol=1e-9 * 225)
