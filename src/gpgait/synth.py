"""Deterministic synthetic walker for desk-scale experiments.

Each identity is an upright 17-keypoint template with its own limb
proportions plus sinusoidal leg/arm oscillation parameters. The spine
(shoulder midpoint to hip midpoint) stays exactly vertical in template
space, so a camera slant is exactly recoverable by the normalization
stage. A camera applies rotation about the template neck, uniform
scale, translation and optional per-keypoint jitter, in that order.

Sequences of the same identity differ by a per-sequence random starting
phase (and jitter when enabled); everything is reproducible from seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .pose_io import (
    DatasetManifest,
    PoseSequence,
    save_manifest,
    save_sequences,
)

# template proportions in arbitrary units (x rightward, y downward,
# neck at the origin)
BASE = {
    "head_rise": 22.0,       # neck -> nose vertical offset
    "eye_dx": 4.0, "eye_rise": 26.0,
    "ear_dx": 8.0, "ear_rise": 23.0,
    "shoulder_half": 17.0,
    "hip_half": 11.0,
    "torso": 48.0,           # neck -> hip-line vertical drop
    "upper_arm": 28.0,
    "forearm": 26.0,
    "thigh": 42.0,
    "shin": 40.0,
}


@dataclass(frozen=True)
class GaitIdentitySpec:
    identity: str
    limb_ratios: dict        # multiplicative tweaks of BASE entries
    stride_period: int       # frames per gait cycle
    stride_amplitude: float  # leg swing angle amplitude (radians)
    arm_amplitude: float     # arm swing angle amplitude (radians)
    knee_flex: float = 0.35  # knee follow-through fraction
    phase: float = 0.0

    def __post_init__(self):
        if self.stride_period < 4:
            raise ConfigError("stride period must be at least 4 frames")
        for key, r in self.limb_ratios.items():
            if r <= 0:
                raise ConfigError(f"ratio {key} must be positive")

    def dims(self) -> dict:
        d = dict(BASE)
        for key, r in self.limb_ratios.items():
            d[key] = d[key] * r
        return d


@dataclass(frozen=True)
class CameraSpec:
    scale: float = 1.0
    tx: float = 0.0
    ty: float = 0.0
    slant: float = 0.0        # rotation about the template neck, radians
    jitter_sigma: float = 0.0

    def __post_init__(self):
        for key, value in (("scale", self.scale), ("tx", self.tx), ("ty", self.ty),
                           ("slant", self.slant), ("jitter", self.jitter_sigma)):
            if not math.isfinite(value):
                raise ConfigError(f"camera {key} must be finite, got {value!r}")
        if self.scale <= 0:
            raise ConfigError("camera scale must be positive")
        if self.jitter_sigma < 0:
            raise ConfigError("camera jitter must be nonnegative")


def template_frame(identity: GaitIdentitySpec, phase: float) -> np.ndarray:
    """(17, 2) template-space pose at one phase of the gait cycle."""
    d = identity.dims()
    leg = identity.stride_amplitude * math.sin(phase)
    arm = identity.arm_amplitude * math.sin(phase)

    pose = np.zeros((17, 2))
    pose[0] = (0.0, -d["head_rise"])
    pose[1] = (d["eye_dx"], -d["eye_rise"])
    pose[2] = (-d["eye_dx"], -d["eye_rise"])
    pose[3] = (d["ear_dx"], -d["ear_rise"])
    pose[4] = (-d["ear_dx"], -d["ear_rise"])
    pose[5] = (d["shoulder_half"], 0.0)
    pose[6] = (-d["shoulder_half"], 0.0)
    hip_y = d["torso"]
    pose[11] = (d["hip_half"], hip_y)
    pose[12] = (-d["hip_half"], hip_y)

    def limb(base_xy, length, angle):
        return (base_xy[0] + length * math.sin(angle),
                base_xy[1] + length * math.cos(angle))

    # arms swing opposite the same-side leg
    pose[7] = limb(pose[5], d["upper_arm"], -arm)
    pose[8] = limb(pose[6], d["upper_arm"], arm)
    pose[9] = limb(pose[7], d["forearm"], -arm * 1.3)
    pose[10] = limb(pose[8], d["forearm"], arm * 1.3)

    # legs in antiphase; knees trail the hip swing
    pose[13] = limb(pose[11], d["thigh"], leg)
    pose[14] = limb(pose[12], d["thigh"], -leg)
    pose[15] = limb(pose[13], d["shin"], leg * identity.knee_flex)
    pose[16] = limb(pose[14], d["shin"], -leg * identity.knee_flex)
    return pose


def generate_sequence(identity: GaitIdentitySpec, camera: CameraSpec,
                      num_frames: int, seed: int,
                      seq_id: str = None, condition: str = "NM",
                      view: str = "000") -> PoseSequence:
    """Sample the walker at num_frames instants and apply the camera."""
    if num_frames < 1:
        raise DataError(f"need at least 1 frame, got {num_frames}")
    rng = np.random.default_rng(seed)
    start = identity.phase + rng.uniform(0.0, 2.0 * math.pi)
    pose = np.stack([
        template_frame(identity, start + 2.0 * math.pi * t / identity.stride_period)
        for t in range(num_frames)])
    c, s = math.cos(camera.slant), math.sin(camera.slant)
    rotated = np.stack([c * pose[..., 0] - s * pose[..., 1],
                        s * pose[..., 0] + c * pose[..., 1]], axis=-1)
    placed = rotated * camera.scale + np.array([camera.tx, camera.ty])
    if camera.jitter_sigma > 0.0:
        placed = placed + rng.normal(0.0, camera.jitter_sigma,
                                     size=placed.shape)
    frames = np.concatenate([placed, np.ones(placed.shape[:-1] + (1,))], axis=-1)
    return PoseSequence(
        seq_id=seq_id or f"{identity.identity}-{condition}-00-{view}",
        subject=identity.identity,
        condition=condition,
        view=view,
        frames=frames,
    )


def make_identities(n: int, seed: int, min_spacing: float = 0.05) -> list:
    """n identities with pairwise-distinct limb proportions.

    Ratios are drawn on a grid with at least min_spacing relative
    separation in at least one ratio, so descriptors are measurably
    different between identities.
    """
    if n < 2:
        raise ConfigError("need at least 2 identities")
    rng = np.random.default_rng(seed)
    varied = ("upper_arm", "forearm", "thigh", "shin", "torso", "shoulder_half")
    identities = []
    taken = []
    attempts = 0
    while len(identities) < n:
        attempts += 1
        if attempts > 200 * n:
            raise ConfigError("could not place identities with required spacing")
        ratios = {key: float(rng.uniform(0.75, 1.25)) for key in varied}
        vec = np.array([ratios[k] for k in varied])
        ok = all(np.max(np.abs(vec - prev) / prev) >= min_spacing for prev in taken)
        if not ok:
            continue
        taken.append(vec)
        identities.append(GaitIdentitySpec(
            identity=f"id{len(identities):03d}",
            limb_ratios=ratios,
            stride_period=int(rng.integers(14, 26)),
            stride_amplitude=float(rng.uniform(0.3, 0.55)),
            arm_amplitude=float(rng.uniform(0.25, 0.5)),
            knee_flex=float(rng.uniform(0.25, 0.45)),
        ))
    return identities


def generate_dataset(out_dir, n_identities: int, sequences_per_identity: int,
                     cameras, num_frames: int, seed: int,
                     protocol: str = "simple") -> str:
    """Write sequence files plus a manifest; returns the manifest path.

    Roles under the simple protocol: the first sequence of each
    identity is a probe, the rest are gallery. Desk-scale training runs
    use the gallery entries as the training set (the probes stay held
    out).
    """
    if n_identities < 2:
        raise DataError("need at least 2 identities")
    if sequences_per_identity < 1:
        raise DataError("need at least 1 sequence per identity")
    if isinstance(cameras, CameraSpec):
        cameras = [cameras]
    os.makedirs(out_dir, exist_ok=True)
    identities = make_identities(n_identities, seed)
    entries = []
    for i, ident in enumerate(identities):
        for j in range(sequences_per_identity):
            camera = cameras[(i * sequences_per_identity + j) % len(cameras)]
            seq_seed = seed * 1_000_003 + i * 1_009 + j
            view = f"{(j * 30) % 180:03d}"
            seq_id = f"{ident.identity}-NM-{j:02d}-{view}"
            seq = generate_sequence(ident, camera, num_frames, seq_seed,
                                    seq_id=seq_id, view=view)
            fname = f"{seq_id}.jsonl"
            save_sequences(os.path.join(out_dir, fname), [seq])
            role = "probe" if j == 0 else "gallery"
            entries.append((fname, role))
    manifest = DatasetManifest(entries=entries, protocol=protocol,
                               base_dir=out_dir)
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    save_manifest(manifest_path, manifest)
    return manifest_path
