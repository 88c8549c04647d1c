import math

import numpy as np
import pytest

import reference as ref
from gpgait import hot
from gpgait.errors import EmptySequenceError

from conftest import sequence_from_coords, walker_frame

UPRIGHT = hot.HotConfig(phi=math.pi)  # no slant reaches pi: never rotates


def rotate_about(coords, center, angle):
    c, s = math.cos(angle), math.sin(angle)
    rel = coords - center
    out = np.empty_like(rel)
    out[:, 0] = c * rel[:, 0] - s * rel[:, 1]
    out[:, 1] = s * rel[:, 0] + c * rel[:, 1]
    return out + center


def unify(coords, cfg=hot.HotConfig()):
    """One (17, 2) frame through HOT; None when it is dropped."""
    frames, kept = hot.unify_frames(np.asarray(coords)[None], cfg)
    return frames[0] if kept else None


def neck_of(coords):
    return (coords[5] + coords[6]) / 2.0


def shoulders_hips(neck, hip, half=10.0):
    """Walker frame whose shoulder and hip midpoints are neck and hip."""
    coords = walker_frame()
    coords[5], coords[6] = (neck[0] + half, neck[1]), (neck[0] - half, neck[1])
    coords[11], coords[12] = (hip[0] + half, hip[1]), (hip[0] - half, hip[1])
    return coords


def scale_of(coords):
    return 225.0 / (coords[:, 1].max() - coords[:, 1].min())


class TestVirtualJoints:
    def test_neck_midpoint(self):
        coords = walker_frame()
        coords[5] = (10.0, 20.0)
        coords[6] = (20.0, 20.0)
        expect = (coords - (15.0, 20.0)) * scale_of(coords)
        np.testing.assert_allclose(unify(coords, UPRIGHT), expect,
                                   atol=1e-12 * 225)

    def test_hip_midpoint(self):
        # the spine from (15, 20) to the hip midpoint (15, 60) is
        # vertical, so even phi = 0 rotates nothing
        coords = walker_frame()
        coords[5] = (10.0, 20.0)
        coords[6] = (20.0, 20.0)
        coords[11] = (12.0, 60.0)
        coords[12] = (18.0, 60.0)
        np.testing.assert_array_equal(unify(coords, hot.HotConfig(phi=0.0)),
                                      unify(coords, UPRIGHT))

    def test_coincident_shoulders(self):
        coords = walker_frame()
        coords[5] = coords[6] = (7.0, 7.0)
        out = unify(coords)
        np.testing.assert_array_equal(out[5], (0.0, 0.0))
        np.testing.assert_array_equal(out[6], (0.0, 0.0))


class TestRotationAngle:
    def test_vertical_spine(self):
        coords = shoulders_hips((15.0, 20.0), (15.0, 60.0))
        np.testing.assert_array_equal(unify(coords, hot.HotConfig(phi=0.0)),
                                      unify(coords, UPRIGHT))

    def _check_undone(self, neck, hip, theta):
        coords = shoulders_hips(neck, hip)
        upright = rotate_about(coords, np.array(neck), theta)
        expect = (upright - neck) * scale_of(upright)
        out = unify(coords, hot.HotConfig(phi=0.0))
        np.testing.assert_allclose(out, expect, atol=1e-9 * 225)
        assert abs(neck_of(out)[0] - (out[11, 0] + out[12, 0]) / 2.0) <= 1e-9

    def test_unit_slope(self):
        self._check_undone((0.0, 0.0), (10.0, 10.0), math.pi / 4)

    def test_unit_antislope(self):
        self._check_undone((1.0, 0.0), (0.0, 1.0), -math.pi / 4)

    def test_horizontal_spine_degenerate(self):
        coords = shoulders_hips((0.0, 5.0), (3.0, 5.0))
        _frames, kept = hot.unify_frames(np.stack([walker_frame(), coords]),
                                         hot.HotConfig())
        assert kept == [0]

    def test_coincident_degenerate(self):
        # neck on the hip: the frame is kept and not rotated
        coords = shoulders_hips((15.0, 40.0), (15.0, 40.0))
        out = unify(coords, hot.HotConfig(phi=0.0))
        assert out is not None
        np.testing.assert_array_equal(out, unify(coords, UPRIGHT))


class TestAffine:
    def test_below_threshold_passthrough(self):
        coords = walker_frame()
        slanted = rotate_about(coords, neck_of(coords), 0.05)
        np.testing.assert_array_equal(unify(slanted, hot.HotConfig(phi=0.1)),
                                      unify(slanted, UPRIGHT))

    def test_quarter_turn_about_origin(self):
        coords = walker_frame(0.6)
        base = unify(coords)
        for angle in (1.5, -1.5):
            turned = rotate_about(coords, neck_of(coords), angle)
            np.testing.assert_allclose(unify(turned), base, atol=1e-9 * 225)

    def test_neck_fixed_point(self):
        coords = walker_frame() + np.array([3.0, 4.0])
        for theta in (0.2, 0.5, -1.0):
            out = unify(rotate_about(coords, np.array([3.0, 4.0]), theta))
            np.testing.assert_array_equal(neck_of(out), (0.0, 0.0))

    def test_spine_vertical_after_transform(self, rng):
        for _ in range(20):
            coords = walker_frame(rng.uniform(0, 6))
            slanted = rotate_about(coords, neck_of(coords),
                                   rng.uniform(-1.2, 1.2))
            out = unify(slanted, hot.HotConfig(phi=0.0))
            hip = (out[11] + out[12]) / 2.0
            spine = math.hypot(*(neck_of(out) - hip))
            assert abs(neck_of(out)[0] - hip[0]) <= 1e-9 * spine


class TestRescaleAlign:
    def test_rescale_arithmetic(self):
        coords = np.zeros((17, 2))
        coords[:, 1] = np.linspace(50, 100, 17)
        coords[0] = (10.0, 50.0)
        neck_y = (coords[5, 1] + coords[6, 1]) / 2.0
        out = unify(coords, UPRIGHT)
        np.testing.assert_allclose(out[0], (45.0, 4.5 * (50.0 - neck_y)),
                                   atol=1e-12 * 225)

    def test_extent_change(self):
        out = unify(walker_frame())
        extent = out[:, 1].max() - out[:, 1].min()
        assert abs(extent - 225.0) <= 1e-9 * 225.0

    def test_already_at_target(self):
        coords = walker_frame()
        scaled = coords * scale_of(coords)
        np.testing.assert_allclose(unify(scaled, UPRIGHT),
                                   scaled - neck_of(scaled), rtol=1e-12,
                                   atol=1e-12 * 225)

    def test_zero_extent(self):
        coords = np.zeros((17, 2))
        coords[:, 1] = 7.0
        _frames, kept = hot.unify_frames(np.stack([walker_frame(), coords]),
                                         hot.HotConfig())
        assert kept == [0]

    def test_align_neck_to_origin(self):
        coords = np.tile([45.0, 225.0], (17, 1))
        coords[0, 1] = 0.0
        out = unify(coords, UPRIGHT)
        np.testing.assert_array_equal(out[1:], np.zeros((16, 2)))

    def test_align_subtraction(self):
        # the translation is the average of the two per-shoulder
        # differences, taken after the rescale
        coords = walker_frame(0.3) + np.array([13.0, 14.0])
        scaled = coords * scale_of(coords)
        expect = 0.5 * (scaled - scaled[5]) + 0.5 * (scaled - scaled[6])
        np.testing.assert_array_equal(unify(coords, UPRIGHT), expect)

    def test_align_translation_cancels(self):
        coords = walker_frame()
        np.testing.assert_allclose(unify(coords), unify(coords + 100.0),
                                   atol=1e-10)


class TestApplyHot:
    def test_similarity_invariance(self, rng):
        cfg = hot.HotConfig()
        frames = [walker_frame(p) for p in np.linspace(0, 5, 4)]
        base = hot.apply_hot(sequence_from_coords(frames), cfg)
        for _ in range(10):
            s = rng.uniform(0.1, 10.0)
            t = rng.uniform(-500, 500, size=2)
            moved = hot.apply_hot(
                sequence_from_coords([f * s + t for f in frames]), cfg)
            np.testing.assert_allclose(moved.frames, base.frames,
                                       rtol=1e-9, atol=1e-9 * 225)

    def test_slant_recovery(self):
        coords = walker_frame(1.3)
        rotated = rotate_about(coords, neck_of(coords), 0.3)
        np.testing.assert_allclose(unify(rotated), unify(coords), atol=1e-6)

    def test_threshold_continuity(self):
        # below phi the affine stage must change nothing: compare the
        # pipeline against one that never rotates
        coords = walker_frame(0.8)
        slanted = rotate_about(coords, neck_of(coords), 0.05)
        np.testing.assert_array_equal(unify(slanted, hot.HotConfig(phi=0.1)),
                                      unify(slanted, UPRIGHT))

    def test_middle_frame_degenerate(self):
        good = walker_frame(0.4)
        flat = np.zeros((17, 2))
        flat[:, 0] = np.arange(17.0)
        seq = sequence_from_coords([good, flat, walker_frame(0.9)])
        out = hot.apply_hot(seq, hot.HotConfig())
        assert out.num_frames == 2
        assert out.kept_frame_indices == [0, 2]

    def test_all_degenerate(self):
        flat = np.zeros((17, 2))
        with pytest.raises(EmptySequenceError):
            hot.apply_hot(sequence_from_coords([flat, flat]), hot.HotConfig())

    def test_output_invariants(self, rng):
        cfg = hot.HotConfig()
        frames = [walker_frame(p) + rng.normal(0, 2, size=(17, 2))
                  for p in np.linspace(0, 6, 8)]
        out = hot.apply_hot(sequence_from_coords(frames), cfg)
        for f in out.frames:
            neck = (f[5] + f[6]) / 2.0
            np.testing.assert_array_equal(neck, (0.0, 0.0))
            extent = f[:, 1].max() - f[:, 1].min()
            assert abs(extent - cfg.h_unif) <= 1e-9 * cfg.h_unif


def degenerate_frames():
    """One frame per degenerate-frame rule, each next to a good one."""
    good = walker_frame(0.2)
    nan = good.copy()
    nan[3, 0] = np.nan
    inf = good.copy()
    inf[16, 1] = np.inf
    horizontal = shoulders_hips((0.0, 5.0), (30.0, 5.0))
    flat = good.copy()
    flat[:, 1] = 7.0
    coincident = shoulders_hips((15.0, 40.0), (15.0, 40.0))
    slight = rotate_about(good, neck_of(good), 0.07)
    return [good, nan, inf, horizontal, flat, coincident, slight]


def random_frames(rng, n):
    """Walker poses under random noise, slant, scale and translation."""
    frames = []
    for _ in range(n):
        coords = walker_frame(rng.uniform(0, 2 * math.pi))
        coords = coords + rng.normal(0.0, 3.0, size=coords.shape)
        coords = rotate_about(coords, neck_of(coords), rng.uniform(-1.4, 1.4))
        frames.append(coords * rng.uniform(0.1, 10.0)
                      + rng.uniform(-1000.0, 1000.0, size=2))
    return frames


@pytest.mark.parametrize("phi", [0.0, 0.1])
def test_matches_scalar_oracle(rng, phi):
    cfg = hot.HotConfig(phi=phi)
    frames = random_frames(rng, 1000) + degenerate_frames()
    out, kept = hot.unify_frames(np.stack(frames), cfg)
    expect, expect_kept = ref.ref_hot(frames, cfg.h_unif, cfg.phi,
                                      cfg.epsilon_extent)
    assert kept == expect_kept
    # good, coincident and slight slant kept; the other four dropped
    assert kept[-4:] == [999, 1000, 1005, 1006]
    np.testing.assert_allclose(out, np.stack(expect), rtol=0,
                               atol=1e-9 * cfg.h_unif)
