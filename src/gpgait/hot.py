"""Unified pose normalization: de-slant, body rescale, neck-origin alignment.

Coordinates follow the image convention (x rightward, y downward). HOT
works on a whole (T, 17, 2) stack at once, each frame independently: a
virtual neck/hip pair defines the spine, a rotation about the neck
removes slants beyond the threshold, the skeleton is rescaled to a fixed
vertical extent, and finally all joints are expressed relative to the
(recomputed) neck so the unified origin sits exactly at the neck.
Degenerate frames are dropped and the indices of the kept ones returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptySequenceError
from .pose_io import PoseSequence

# COCO indices used for the virtual joints.
L_SHOULDER, R_SHOULDER = 5, 6
L_HIP, R_HIP = 11, 12

DEFAULT_HEIGHT = 225.0
DEFAULT_SLANT_THRESHOLD = 0.1  # radians


@dataclass(frozen=True)
class HotConfig:
    h_unif: float = DEFAULT_HEIGHT
    phi: float = DEFAULT_SLANT_THRESHOLD
    epsilon_extent: float = None  # defaults to 1e-6 * h_unif

    def __post_init__(self):
        if self.h_unif <= 0:
            raise DataError(f"h_unif must be positive, got {self.h_unif}")
        if self.phi < 0:
            raise DataError(f"phi must be nonnegative, got {self.phi}")
        if self.epsilon_extent is None:
            object.__setattr__(self, "epsilon_extent", 1e-6 * self.h_unif)
        if self.epsilon_extent <= 0:
            raise DataError("epsilon_extent must be positive")


@dataclass
class UnifiedPoseSequence:
    seq_id: str
    subject: str
    condition: str
    view: str
    frames: np.ndarray  # (T, 17, 2) aligned coordinates
    kept_frame_indices: list

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])


def unify_frames(coords: np.ndarray, cfg: HotConfig):
    """HOT over a (T, 17, 2) stack: (unified frames, kept frame indices).

    Per frame, neck = shoulder midpoint and hip = hip midpoint. The
    slant arctan(dx / dy), with (dx, dy) = neck - hip folded into
    (-pi/2, pi/2], is undone by a rotation about the neck when its size
    is at least phi; a zero slant (vertical spine, or neck coinciding
    with hip) leaves the frame unrotated. The frame is then scaled to a
    vertical extent of h_unif and translated by the average of the two
    per-shoulder differences: float subtraction is antisymmetric, so
    the recomputed shoulder midpoint is exactly (0, 0), which a rounded
    midpoint subtraction cannot guarantee.

    Dropped: frames with a non-finite coordinate, a horizontal spine
    (dy == 0 != dx), or a vertical extent below epsilon_extent.
    """
    coords = np.asarray(coords, dtype=np.float64)
    kept = np.flatnonzero(np.isfinite(coords).all(axis=(1, 2)))
    coords = coords[kept]
    neck = (coords[:, L_SHOULDER] + coords[:, R_SHOULDER]) / 2.0
    hip = (coords[:, L_HIP] + coords[:, R_HIP]) / 2.0
    dx = neck[:, 0] - hip[:, 0]
    dy = neck[:, 1] - hip[:, 1]
    upright = ~((dy == 0.0) & (dx != 0.0))
    kept, coords, neck = kept[upright], coords[upright], neck[upright]
    dx, dy = dx[upright], dy[upright]

    theta = np.arctan2(dx, dy)
    theta = np.where(theta > np.pi / 2, theta - np.pi,
                     np.where(theta <= -np.pi / 2, theta + np.pi, theta))
    rotate = (np.abs(theta) >= cfg.phi) & (theta != 0.0)
    c = np.cos(theta)[:, None]
    s = np.sin(theta)[:, None]
    rel = coords - neck[:, None, :]
    rotated = np.stack([c * rel[..., 0] - s * rel[..., 1],
                        s * rel[..., 0] + c * rel[..., 1]], axis=-1)
    coords = np.where(rotate[:, None, None], rotated + neck[:, None, :], coords)

    extent = coords[..., 1].max(axis=1) - coords[..., 1].min(axis=1)
    tall = extent >= cfg.epsilon_extent
    kept, coords = kept[tall], coords[tall]
    coords = coords * (cfg.h_unif / extent[tall])[:, None, None]
    unified = (0.5 * (coords - coords[:, L_SHOULDER, None])
               + 0.5 * (coords - coords[:, R_SHOULDER, None]))
    return unified, kept.tolist()


def apply_hot(seq: PoseSequence, cfg: HotConfig = None) -> UnifiedPoseSequence:
    """Normalize a whole sequence, dropping degenerate frames."""
    if cfg is None:
        cfg = HotConfig()
    frames, kept = unify_frames(seq.frames[..., :2], cfg)
    if not kept:
        raise EmptySequenceError(
            f"sequence {seq.seq_id}: every frame degenerate")
    return UnifiedPoseSequence(
        seq_id=seq.seq_id,
        subject=seq.subject,
        condition=seq.condition,
        view=seq.view,
        frames=frames,
        kept_frame_indices=kept,
    )


def passthrough(seq: PoseSequence) -> UnifiedPoseSequence:
    """Copy raw coordinates without normalization (ablation path)."""
    return UnifiedPoseSequence(
        seq_id=seq.seq_id,
        subject=seq.subject,
        condition=seq.condition,
        view=seq.view,
        frames=seq.coords(),
        kept_frame_indices=list(range(seq.num_frames)),
    )
