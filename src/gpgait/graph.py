"""Skeleton graph construction: adjacency subsets and partition masks.

Adjacency is split into three spatial-configuration subsets following
the usual skeleton-GCN convention: self-loops, neighbors closer to the
skeleton barycenter ("centripetal") and neighbors farther from it
("centrifugal"). Distances are measured on a fixed canonical upright
pose; equal-distance neighbors go to the centripetal subset. Each
subset is column-normalized so nonzero columns sum to one.

Partition masks are 17x17 binary matrices that are 1 exactly when two
joints share a body-part group. The configured schemes range from five
small parts up to the all-ones global mask.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .hod import PARENT

V = 17

# Undirected skeleton edges: the bone-tree edges (child, parent).
EDGES = tuple((child, parent) for child, parent in enumerate(PARENT) if child != parent)

# Canonical upright pose used only to rank joints by barycenter
# distance (x rightward, y downward, neck at origin, arbitrary units).
CANONICAL_POSE = np.array([
    (0.0, -20.0),    # 0 nose
    (4.0, -24.0),    # 1 left eye
    (-4.0, -24.0),   # 2 right eye
    (8.0, -21.0),    # 3 left ear
    (-8.0, -21.0),   # 4 right ear
    (18.0, 0.0),     # 5 left shoulder
    (-18.0, 0.0),    # 6 right shoulder
    (22.0, 26.0),    # 7 left elbow
    (-22.0, 26.0),   # 8 right elbow
    (24.0, 50.0),    # 9 left wrist
    (-24.0, 50.0),   # 10 right wrist
    (12.0, 50.0),    # 11 left hip
    (-12.0, 50.0),   # 12 right hip
    (13.0, 92.0),    # 13 left knee
    (-13.0, 92.0),   # 14 right knee
    (14.0, 134.0),   # 15 left ankle
    (-14.0, 134.0),  # 16 right ankle
], dtype=np.float64)

PARTS5 = {
    "head": (0, 1, 2, 3, 4),
    "left_arm": (5, 7, 9),
    "right_arm": (6, 8, 10),
    "left_leg": (11, 13, 15),
    "right_leg": (12, 14, 16),
}

PARTITION_SCHEMES = {
    "parts5": tuple(PARTS5.values()),
    "upper_lower": (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
        (11, 12, 13, 14, 15, 16),
    ),
    "three_groups": (
        (0, 1, 2, 3, 4),
        (5, 6, 7, 8, 9, 10),
        (11, 12, 13, 14, 15, 16),
    ),
    "left_right": (
        (0, 1, 2, 3, 4),
        (5, 7, 9, 11, 13, 15),
        (6, 8, 10, 12, 14, 16),
    ),
    "global": (tuple(range(V)),),
}


def mask_set(overrides=(), partitioned=True) -> dict:
    """Scheme name -> 17x17 partition mask, 1 iff two joints share a
    group: every built-in scheme, then each ``(name, groups)`` pair of
    ``overrides`` replacing or adding one. Every scheme's groups must
    hold joint indices 0-16 only, be disjoint and cover all joints
    (``ConfigError``). Not ``partitioned``: every mask is all ones."""
    masks = {}
    for name, groups in (*PARTITION_SCHEMES.items(), *overrides):
        seen = set()
        for g in groups:
            outside = sorted(j for j in g if not 0 <= j < V)
            if outside:
                raise ConfigError(f"scheme {name!r}: joint indices {outside} "
                                  f"outside 0-{V - 1}")
            overlap = seen.intersection(g)
            if overlap:
                raise ConfigError(
                    f"scheme {name!r}: joints {sorted(overlap)} in multiple groups")
            seen.update(g)
        if seen != set(range(V)):
            missing = sorted(set(range(V)) - seen)
            raise ConfigError(f"scheme {name!r}: joints {missing} uncovered")
        mask = np.zeros((V, V)) if partitioned else np.ones((V, V))
        for g in groups:
            ix = np.asarray(g)
            mask[np.ix_(ix, ix)] = 1.0
        masks[name] = mask
    return masks


def _column_normalize(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    colsum = out.sum(axis=0)
    nz = colsum > 0
    out[:, nz] = out[:, nz] / colsum[nz]
    return out


def build_adjacency_subsets() -> np.ndarray:
    """(3, 17, 17) stack over the ``EDGES`` skeleton: self-loops,
    centripetal, centrifugal; each column-normalized. Before
    normalization the subsets sum to identity + symmetric adjacency."""
    barycenter = CANONICAL_POSE.mean(axis=0)
    dist = np.linalg.norm(CANONICAL_POSE - barycenter, axis=1)

    identity = np.eye(V)
    centripetal = np.zeros((V, V))
    centrifugal = np.zeros((V, V))
    for a, b in EDGES:
        for u, v in ((a, b), (b, a)):
            # entry (v, u): contribution of neighbor v to node u
            if dist[v] <= dist[u]:
                centripetal[v, u] = 1.0
            else:
                centrifugal[v, u] = 1.0

    return np.stack([
        _column_normalize(identity),
        _column_normalize(centripetal),
        _column_normalize(centrifugal),
    ])

