import math

import numpy as np
import pytest

import reference as ref
from gpgait import hod
from gpgait.hot import HotConfig, apply_hot
from gpgait.train import flip_frames

from conftest import random_frame, sequence_from_coords, walker_frame


class TestBones:
    def test_subtraction(self):
        coords = walker_frame()
        coords[9] = (3.0, 4.0)
        coords[7] = (1.0, 1.0)
        bones = hod.compute_bones(coords)
        np.testing.assert_array_equal(bones[9], (2.0, 3.0))

    def test_root_zero(self):
        bones = hod.compute_bones(walker_frame())
        np.testing.assert_array_equal(bones[0], (0.0, 0.0))

    def test_translation_invariant(self):
        # dyadic coordinates so the translation is exact in binary fp
        coords = np.round(walker_frame() * 4.0) / 4.0
        np.testing.assert_array_equal(
            hod.compute_bones(coords), hod.compute_bones(coords + 37.5))

    def test_scale_equivariant(self, rng):
        coords = random_frame(rng)
        np.testing.assert_allclose(
            hod.compute_bones(coords * 3.0), hod.compute_bones(coords) * 3.0,
            rtol=1e-12)


class TestAngles:
    def _triangle_frame(self, left, mid, right, j=14):
        coords = walker_frame()
        tri = hod.INNER_TRIANGLES[j]
        coords[tri[0]] = left
        coords[tri[1]] = mid
        coords[tri[2]] = right
        return coords

    def test_345_right_angle(self):
        # sides 3 (14-12), 4 (14-16), opposite 5 (12-16)
        coords = self._triangle_frame(left=(0.0, 3.0), mid=(0.0, 0.0),
                                      right=(4.0, 0.0), j=14)
        angles, warns = hod.compute_angles(coords)
        assert not warns
        assert angles[14] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_collinear_pi(self):
        coords = self._triangle_frame(left=(-1.0, 0.0), mid=(0.0, 0.0),
                                      right=(1.0, 0.0), j=13)
        angles, _ = hod.compute_angles(coords)
        assert angles[13] == pytest.approx(math.pi)

    def test_peripheral_quarter(self):
        coords = walker_frame()
        coords[9] = (1.0, 1.0)   # wrist, parent elbow 7
        coords[7] = (0.0, 0.0)
        angles, _ = hod.compute_angles(coords)
        assert angles[9] == pytest.approx(math.pi / 4)

    def test_zero_side_warns(self):
        coords = walker_frame()
        tri = hod.INNER_TRIANGLES[7]
        coords[tri[0]] = coords[tri[1]]
        angles, warns = hod.compute_angles(coords)
        assert angles[7] == 0.0
        assert any("7" in w for w in warns)

    def test_law_of_cosines_oracle(self, rng):
        """Side-length formula equals normalized-dot-product angles."""
        for _ in range(1000):
            coords = random_frame(rng)
            angles, warns = hod.compute_angles(coords)
            assert not warns
            for j, (l, m, r) in hod.INNER_TRIANGLES.items():
                va = coords[l] - coords[m]
                vb = coords[r] - coords[m]
                cosang = np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb))
                expect = math.acos(min(1.0, max(-1.0, cosang)))
                assert angles[j] == pytest.approx(expect, abs=1e-9)

    def test_inner_invariance_similarity(self, rng):
        coords = random_frame(rng)
        base, _ = hod.compute_angles(coords)
        c, s = math.cos(0.7), math.sin(0.7)
        rot = coords @ np.array([[c, s], [-s, c]])
        moved, _ = hod.compute_angles(rot * 2.5 + np.array([40.0, -7.0]))
        inner = sorted(hod.INNER_TRIANGLES)
        np.testing.assert_allclose(moved[inner], base[inner], atol=1e-9)

    def test_angle_ranges(self, rng):
        for _ in range(200):
            angles, _ = hod.compute_angles(random_frame(rng))
            for j in hod.INNER_TRIANGLES:
                assert 0.0 <= angles[j] <= math.pi
            for j in hod.PERIPHERAL_JOINTS:
                assert -math.pi / 2 < angles[j] <= math.pi / 2


class TestBuildDescriptors:
    def _useq(self, frames):
        return apply_hot(sequence_from_coords(frames), HotConfig())

    def test_shapes(self):
        useq = self._useq([walker_frame(p) for p in (0.0, 0.4, 0.8)])
        d = hod.build_descriptors(useq)
        assert list(d) == ["joint", "bone", "angle"]
        assert d["joint"].shape == (3, 17, 2)
        assert d["bone"].shape == (3, 17, 2)
        assert d["angle"].shape == (3, 17, 1)

    def test_joint_passthrough(self):
        useq = self._useq([walker_frame(0.3)])
        d = hod.build_descriptors(useq)
        np.testing.assert_array_equal(d["joint"], useq.frames)

    def test_mirror_property(self, rng):
        frames = np.stack([random_frame(rng) for _ in range(3)])
        d = hod.describe(frames)
        flipped = flip_frames(frames)
        dm = hod.describe(flipped)
        # bones of the mirrored skeleton = mirrored-and-swapped bones
        np.testing.assert_allclose(dm["bone"], flip_frames(d["bone"]), atol=1e-12)
        # inner angles invariant under mirroring (up to the l/r swap)
        swapped = d["angle"].copy()
        for a, b in ((5, 6), (7, 8), (11, 12), (13, 14)):
            swapped[:, [a, b]] = swapped[:, [b, a]]
        inner = sorted(hod.INNER_TRIANGLES)
        np.testing.assert_allclose(dm["angle"][:, inner], swapped[:, inner],
                                   atol=1e-12)

    def test_identical_frames_identical_rows(self):
        f = walker_frame(1.1)
        d = hod.describe(np.stack([f, f]))
        np.testing.assert_array_equal(d["bone"][0], d["bone"][1])
        np.testing.assert_array_equal(d["angle"][0], d["angle"][1])


def test_roles_cover_all_joints():
    inner = set(hod.INNER_TRIANGLES)
    assert inner.isdisjoint(hod.PERIPHERAL_JOINTS)
    assert inner | set(hod.PERIPHERAL_JOINTS) == set(range(17))
    for j, tri in hod.INNER_TRIANGLES.items():
        assert tri[1] == j
        assert all(0 <= t < 17 for t in tri)
    assert all(0 <= hod.PARENT[j] < 17 for j in hod.PERIPHERAL_JOINTS)


def test_angles_match_scalar_oracle(rng):
    frames = [random_frame(rng) for _ in range(1000)]
    # zero-length sides: an inner joint on its neighbor, a peripheral
    # joint on its parent, and every joint at one point
    touching = walker_frame()
    touching[7] = touching[5]
    touching[9] = touching[7]
    frames += [touching, np.zeros((17, 2))]
    stack = np.stack(frames)
    angles, warns = hod.compute_angles(stack)
    for t, coords in enumerate(frames):
        expect, zero_sides = ref.ref_angles(coords)
        np.testing.assert_allclose(angles[t], expect, rtol=0, atol=1e-9)
        assert [w for w in warns if w.startswith(f"frame {t}:")] == [
            f"frame {t}: joint {j}: zero-length adjacent side"
            for j in zero_sides]
    assert len(warns) == 2 + 8
    # a batch of frames gives each frame's own angles, bit for bit
    for t in (0, 1000, 1001):
        np.testing.assert_array_equal(hod.compute_angles(stack[t])[0],
                                      angles[t])
