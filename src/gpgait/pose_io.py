"""Pose sequence data model, on-disk formats and keypoint-format conversion.

In memory a sequence is one (T, 17, 3) float64 array of x, y,
confidence per COCO17 keypoint (``PoseSequence.frames``); every stage
downstream works on whole stacks of frames at once.

On-disk sequence format: newline-delimited JSON, one sequence per line.
Fields: seq_id, subject, condition, view, frames. ``frames`` is a nested
array of shape (T, 17, 3): x, y, confidence. Frames of 18 keypoints (an
explicit neck, every frame) are converted to COCO17 on load
(``convert_alphapose18_to_coco17``). Numbers are plain decimal text, so
files are diffable and language-neutral.

Manifest format: one entry per line, ``path<TAB>role`` with role one of
train/gallery/probe. Paths are resolved relative to the manifest file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, RecordError

NUM_KEYPOINTS = 17
# 18-keypoint estimator output (explicit neck), converted on load
KEYPOINTS_WITH_NECK = 18

CONDITIONS = ("NM", "BG", "CL", "WILD")
ROLES = ("train", "gallery", "probe")
PROTOCOLS = ("casiab", "oumvlp", "gait3d", "grew", "simple")

# COCO2017 keypoint order, fixed everywhere in this package.
COCO17_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)

# 18-keypoint estimator layout (explicit neck at index 1):
# 0 nose, 1 neck, 2 r_shoulder, 3 r_elbow, 4 r_wrist, 5 l_shoulder,
# 6 l_elbow, 7 l_wrist, 8 r_hip, 9 r_knee, 10 r_ankle, 11 l_hip,
# 12 l_knee, 13 l_ankle, 14 r_eye, 15 l_eye, 16 r_ear, 17 l_ear.
# Entry i of the table below is the source index whose triple lands at
# COCO17 position i; the neck (source index 1) is dropped.
ALPHAPOSE18_TO_COCO17 = (0, 15, 14, 17, 16, 5, 2, 6, 3, 7, 4, 11, 8, 12, 9, 13, 10)


@dataclass
class PoseSequence:
    """One raw sequence: ``frames`` is a (T, 17, 3) float64 array of
    x, y, confidence per COCO17 keypoint, T >= 1."""

    seq_id: str
    subject: str
    condition: str
    view: str
    frames: np.ndarray

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise DataError(f"unknown condition {self.condition!r}")
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.size == 0:
            raise DataError(f"sequence {self.seq_id} has no frames")
        if self.frames.ndim != 3 or self.frames.shape[1:] != (NUM_KEYPOINTS, 3):
            raise DataError(
                f"sequence {self.seq_id}: frames have shape "
                f"{self.frames.shape}, expected (T, {NUM_KEYPOINTS}, 3)")

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])


@dataclass
class DatasetManifest:
    entries: list  # list[tuple[str path, str role]]
    protocol: str = "simple"
    base_dir: str = "."

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise DataError(f"unknown protocol {self.protocol!r}")
        for path, role in self.entries:
            if role not in ROLES:
                raise DataError(f"unknown role {role!r} for {path}")


@dataclass
class ValidationIssue:
    frame_index: int
    kind: str
    detail: str = ""


@dataclass
class ValidationReport:
    seq_id: str
    issues: list = field(default_factory=list)


def sequence_to_record(seq: PoseSequence) -> dict:
    return {
        "seq_id": seq.seq_id,
        "subject": seq.subject,
        "condition": seq.condition,
        "view": seq.view,
        "frames": seq.frames.tolist(),
    }


def _malformed_frames(frames):
    """Why a record's ``frames`` field is not T frames of 17 numeric
    triples (or of 18, every frame, as an 18-keypoint estimator writes
    them), or None when it is. Walks the nested lists, so it only runs
    once the array conversion has failed or looks suspect."""
    if not isinstance(frames, list):
        return f"frames is {type(frames).__name__}, expected a list of frames"
    expected = NUM_KEYPOINTS
    if frames and isinstance(frames[0], list):
        if len(frames[0]) == KEYPOINTS_WITH_NECK:
            expected = KEYPOINTS_WITH_NECK
    for frame in frames:
        if not isinstance(frame, list):
            return f"frame is {type(frame).__name__}, expected a list of keypoints"
        if len(frame) != expected:
            return f"frame has {len(frame)} keypoints, expected {expected}"
        for kp in frame:
            if not isinstance(kp, list):
                return f"keypoint is {type(kp).__name__}, expected [x, y, confidence]"
            if len(kp) != 3:
                return f"keypoint has {len(kp)} fields, expected 3"
            for value in kp:
                try:
                    float(value)
                except (TypeError, ValueError, OverflowError):
                    return f"keypoint value {value!r} is not a number"
    return None


def sequence_from_record(rec: dict, path="<memory>", line_no=0) -> PoseSequence:
    if not isinstance(rec, dict):
        raise RecordError(path, line_no,
                          f"record is {type(rec).__name__}, expected an object")
    try:
        raw = rec["frames"]
        meta = {key: str(rec[key])
                for key in ("seq_id", "subject", "condition", "view")}
    except KeyError as e:
        raise RecordError(path, line_no, f"missing field {e.args[0]!r}") from e
    try:
        frames = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        frames = np.empty((0,))
    # numpy reads null as NaN, so a NaN also triggers the walk, which
    # tells a JSON NaN (a non-finite keypoint HOT drops) from a null
    if (frames.shape[1:] not in ((NUM_KEYPOINTS, 3), (KEYPOINTS_WITH_NECK, 3))
            or np.isnan(frames).any()):
        problem = _malformed_frames(raw)
        if problem is not None:
            raise RecordError(path, line_no, problem)
    if frames.shape[1:] == (KEYPOINTS_WITH_NECK, 3):
        frames = convert_alphapose18_to_coco17(frames)
    return PoseSequence(frames=frames, **meta)


def save_sequences(path, sequences):
    """Write sequences as one JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(json.dumps(sequence_to_record(seq)) + "\n")


def load_sequence_file(path) -> list:
    if not os.path.exists(path):
        raise DataError(f"missing sequence file: {path}")
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise RecordError(path, line_no, f"invalid JSON: {e.msg}") from e
            out.append(sequence_from_record(rec, path, line_no))
    return out


def load_manifest(path) -> DatasetManifest:
    if not os.path.exists(path):
        raise DataError(f"missing manifest file: {path}")
    entries = []
    protocol = "simple"
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith("protocol\t"):
                protocol = line.split("\t", 1)[1].strip()
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise RecordError(path, line_no, "expected 'path<TAB>role'")
            entries.append((parts[0], parts[1]))
    return DatasetManifest(entries=entries, protocol=protocol,
                           base_dir=os.path.dirname(os.path.abspath(path)))


def save_manifest(path, manifest: DatasetManifest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"protocol\t{manifest.protocol}\n")
        for entry_path, role in manifest.entries:
            fh.write(f"{entry_path}\t{role}\n")


def load_sequences_with_roles(manifest: DatasetManifest):
    """Load every sequence referenced by the manifest, in manifest order.

    Returns a list of (PoseSequence, role) pairs.
    """
    out = []
    for entry_path, role in manifest.entries:
        path = entry_path
        if not os.path.isabs(path):
            path = os.path.join(manifest.base_dir, path)
        for seq in load_sequence_file(path):
            out.append((seq, role))
    return out


def convert_alphapose18_to_coco17(frames18) -> np.ndarray:
    """Reorder (..., 18, 3) keypoints (explicit neck) into COCO2017 order.

    The neck triple is dropped; the other 17 triples are copied unchanged.
    """
    frames18 = np.asarray(frames18, dtype=np.float64)
    if frames18.ndim < 2 or frames18.shape[-2] != KEYPOINTS_WITH_NECK:
        count = frames18.shape[-2] if frames18.ndim >= 2 else frames18.size
        raise DataError(f"expected 18 keypoints, got {count}")
    return frames18[..., ALPHAPOSE18_TO_COCO17, :]


def validate_sequence(seq: PoseSequence) -> ValidationReport:
    """Report-only checks per frame: non-finite coordinates, a raw
    vertical extent below 1e-6, confidences outside [0, 1] (or
    non-finite)."""
    report = ValidationReport(seq_id=seq.seq_id)
    coords = seq.frames[..., :2]
    finite = np.isfinite(coords).all(axis=(1, 2))
    y = np.where(finite[:, None], coords[..., 1], 0.0)
    extent = y.max(axis=1) - y.min(axis=1)
    conf = seq.frames[..., 2]
    bad_conf = (~((conf >= 0.0) & (conf <= 1.0))).sum(axis=1)  # NaN fails both
    for i in np.flatnonzero(~finite | (extent < 1e-6) | (bad_conf > 0)):
        if not finite[i]:
            report.issues.append(ValidationIssue(int(i), "non_finite"))
        elif extent[i] < 1e-6:
            report.issues.append(ValidationIssue(
                int(i), "degenerate_extent", f"extent {extent[i]:g} < 1e-06"))
        if bad_conf[i]:
            report.issues.append(ValidationIssue(
                int(i), "confidence_range",
                f"{bad_conf[i]} of {NUM_KEYPOINTS} confidences not in [0, 1]"))
    return report
