"""Geometric descriptors computed from unified poses: bone vectors and
inner/peripheral joint angles, over stacks of shape (..., 17, 2).

The bone tree is rooted at the nose; every other joint has exactly one
parent, and a joint's bone vector points from its parent to itself. The
root's bone is the zero vector.

Angle roles: torso-adjacent joints (shoulders, elbows, hips, knees) get
an inner angle, the triangle angle at the joint between two named
neighbor joints, computed from side lengths. Extremity and head joints
get a peripheral angle, the slant of the bone to their parent against
the vertical, in (-pi/2, pi/2].
"""

from __future__ import annotations

import numpy as np

from .hot import UnifiedPoseSequence

# parent[i] is the tree parent of joint i; the nose (0) is the root.
PARENT = (0, 0, 0, 1, 2, 0, 0, 5, 6, 7, 8, 5, 6, 11, 12, 13, 14)

# Inner joints with their triangle (left neighbor, self, right neighbor).
INNER_TRIANGLES = {
    5: (7, 5, 11),
    6: (8, 6, 12),
    7: (5, 7, 9),
    8: (6, 8, 10),
    11: (5, 11, 13),
    12: (6, 12, 14),
    13: (11, 13, 15),
    14: (12, 14, 16),
}

PERIPHERAL_JOINTS = (0, 1, 2, 3, 4, 9, 10, 15, 16)

_INNER = np.array(sorted(INNER_TRIANGLES))
_LEFT, _MID, _RIGHT = np.array([INNER_TRIANGLES[j] for j in _INNER]).T
_PERIPHERAL = np.array(PERIPHERAL_JOINTS)
_ADJACENT = np.array([PARENT[j] for j in PERIPHERAL_JOINTS])


def compute_bones(coords: np.ndarray) -> np.ndarray:
    """Per-joint vector from its tree parent; root bone is zero."""
    bones = coords - coords[..., PARENT, :]
    bones[..., 0, :] = 0.0
    return bones


def _length(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def compute_angles(coords: np.ndarray):
    """(..., 17) angles plus a list of zero-length-side warnings.

    Inner angles use the law of cosines with the argument clamped to
    [-1, 1]; a zero-length adjacent side yields angle 0 with a warning
    instead of an error. A peripheral bone of length zero has angle 0.
    """
    left = coords[..., _LEFT, :]
    mid = coords[..., _MID, :]
    right = coords[..., _RIGHT, :]
    s_l = _length(mid - left)
    s_r = _length(mid - right)
    s_opp = _length(left - right)
    degenerate = (s_l == 0.0) | (s_r == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (s_l * s_l + s_r * s_r - s_opp * s_opp) / (2.0 * s_l * s_r)
    inner = np.where(degenerate, 0.0, np.arccos(np.clip(arg, -1.0, 1.0)))

    bone = coords[..., _PERIPHERAL, :] - coords[..., _ADJACENT, :]
    dx, dy = bone[..., 0], bone[..., 1]
    theta = np.arctan2(dx, dy)
    theta = np.where(theta > np.pi / 2, theta - np.pi,
                     np.where(theta <= -np.pi / 2, theta + np.pi, theta))
    peripheral = np.where((dx == 0.0) & (dy == 0.0), 0.0, theta)

    angles = np.empty(coords.shape[:-1], dtype=np.float64)
    angles[..., _INNER] = inner
    angles[..., _PERIPHERAL] = peripheral
    warnings = [_zero_side_warning(pos) for pos in np.argwhere(degenerate)]
    return angles, warnings


def _zero_side_warning(pos) -> str:
    message = f"joint {_INNER[pos[-1]]}: zero-length adjacent side"
    if len(pos) == 1:
        return message
    return f"frame {','.join(map(str, pos[:-1]))}: {message}"


def describe(frames: np.ndarray) -> dict:
    """Descriptors of a (..., 17, 2) stack of unified frames, keyed by
    branch name: ``joint`` and ``bone`` (..., 17, 2), ``angle`` (..., 17, 1)."""
    frames = np.asarray(frames, dtype=np.float64)
    angles, _warnings = compute_angles(frames)
    return {"joint": frames.copy(), "bone": compute_bones(frames),
            "angle": angles[..., None]}


def build_descriptors(useq: UnifiedPoseSequence) -> dict:
    """Joint/bone/angle tensors for every frame of a unified sequence."""
    return describe(useq.frames)
