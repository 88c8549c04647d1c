import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgait import pose_io
from gpgait.errors import DataError, RecordError

from conftest import sequence_from_coords, walker_frame


def _write_seq_file(tmp_path, name, sequences):
    path = tmp_path / name
    pose_io.save_sequences(path, sequences)
    return path


def _manifest(tmp_path, entries, protocol="simple"):
    path = tmp_path / "manifest.tsv"
    pose_io.save_manifest(path, pose_io.DatasetManifest(entries, protocol))
    return path


class TestLoadSequences:
    def test_identity_load_two_files(self, tmp_path):
        s1 = sequence_from_coords([walker_frame(0.1)], seq_id="a")
        s2 = sequence_from_coords([walker_frame(0.2)], seq_id="b")
        _write_seq_file(tmp_path, "a.jsonl", [s1])
        _write_seq_file(tmp_path, "b.jsonl", [s2])
        mpath = _manifest(tmp_path, [("a.jsonl", "train"), ("b.jsonl", "probe")])
        seqs = pose_io.load_sequences_with_roles(pose_io.load_manifest(mpath))
        assert [(s.seq_id, r) for s, r in seqs] == [("a", "train"), ("b", "probe")]

    def test_wrong_keypoint_count_names_line(self, tmp_path):
        s1 = sequence_from_coords([walker_frame(0.1)], seq_id="a")
        path = _write_seq_file(tmp_path, "a.jsonl", [s1])
        rec = json.loads(path.read_text())
        rec["frames"][0] = rec["frames"][0][:16]
        path.write_text(json.dumps(rec) + "\n")
        mpath = _manifest(tmp_path, [("a.jsonl", "train")])
        with pytest.raises(RecordError) as exc:
            pose_io.load_sequences_with_roles(pose_io.load_manifest(mpath))
        assert exc.value.line_no == 1
        assert "16" in str(exc.value)

    @pytest.mark.parametrize("frames, message", [
        ([[[0.0, 0.0, 1.0]] * 16 + [["abc", 0.0, 1.0]]],
         "keypoint value 'abc' is not a number"),
        (5, "frames is int, expected a list of frames"),
        ([[[0.0, 0.0, 1.0]] * 16 + [[None, 0.0, 1.0]]],
         "keypoint value None is not a number"),
        ([[[0.0, 0.0, 1.0]] * 16 + [[0.0, 1.0]]],
         "keypoint has 2 fields, expected 3"),
    ])
    def test_malformed_record_names_line(self, tmp_path, frames, message):
        s1 = sequence_from_coords([walker_frame(0.1)], seq_id="a")
        path = _write_seq_file(tmp_path, "a.jsonl", [s1, s1])
        good, _ = path.read_text().splitlines()
        rec = json.loads(good)
        rec["frames"] = frames
        path.write_text(good + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(RecordError) as exc:
            pose_io.load_sequence_file(path)
        assert exc.value.line_no == 2
        assert str(exc.value) == f"{path}:2: {message}"

    def test_empty_manifest(self, tmp_path):
        mpath = _manifest(tmp_path, [])
        assert pose_io.load_sequences_with_roles(pose_io.load_manifest(mpath)) == []

    def test_missing_file(self, tmp_path):
        mpath = _manifest(tmp_path, [("nope.jsonl", "train")])
        with pytest.raises(DataError, match="missing"):
            pose_io.load_sequences_with_roles(pose_io.load_manifest(mpath))

    def test_roundtrip_bytes_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        seqs = [sequence_from_coords(
            [walker_frame(p) + rng.normal(size=(17, 2)) for p in (0.0, 1.0, 2.0)],
            seq_id=f"s{i}") for i in range(3)]
        p1 = _write_seq_file(tmp_path, "x.jsonl", seqs)
        loaded = pose_io.load_sequence_file(p1)
        p2 = tmp_path / "y.jsonl"
        pose_io.save_sequences(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()


class TestConvert18:
    def _frame18(self, marker_fn):
        return [(marker_fn(i), -marker_fn(i), 1.0) for i in range(18)]

    def test_constant_frame(self):
        out = pose_io.convert_alphapose18_to_coco17([(0.0, 0.0, 1.0)] * 18)
        assert out.shape == (17, 3)
        assert (out[:, :2] == 0.0).all()

    def test_mapping_table(self):
        # marker value i identifies source joint i; check each COCO slot
        # holds the documented source joint
        frame = self._frame18(float)
        out = pose_io.convert_alphapose18_to_coco17(frame)
        expected_sources = [0, 15, 14, 17, 16, 5, 2, 6, 3, 7, 4, 11, 8, 12, 9, 13, 10]
        assert out[:, 0].astype(int).tolist() == expected_sources
        # a stack of frames converts frame by frame
        both = pose_io.convert_alphapose18_to_coco17([frame, frame])
        np.testing.assert_array_equal(both, np.stack([out, out]))

    def test_wrong_length(self):
        with pytest.raises(DataError, match="18"):
            pose_io.convert_alphapose18_to_coco17([(0.0, 0.0, 1.0)] * 17)

    @given(st.lists(st.tuples(
        st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0, 1)),
        min_size=18, max_size=18))
    @settings(max_examples=50, deadline=None)
    def test_permutation_plus_drop(self, triples):
        out = pose_io.convert_alphapose18_to_coco17(triples)
        got = sorted(tuple(k) for k in out.tolist())
        # neck is source index 1
        expect = sorted(t for i, t in enumerate(triples) if i != 1)
        assert got == expect


class TestLoad18:
    """Records of 18-keypoint frames are converted on load."""

    def _record(self, frames):
        return {"seq_id": "a", "subject": "s", "condition": "NM", "view": "000",
                "frames": frames}

    def test_file_loads_as_converted_by_hand(self, tmp_path):
        rng = np.random.default_rng(3)
        frames18 = rng.uniform(0, 100, size=(4, 18, 3))
        frames18[..., 2] = rng.uniform(0, 1, size=(4, 18))
        frames18[2, 7, 0] = np.nan          # a non-finite keypoint is kept
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(self._record(frames18.tolist())) + "\n")
        (seq,) = pose_io.load_sequence_file(path)
        np.testing.assert_array_equal(
            seq.frames, pose_io.convert_alphapose18_to_coco17(frames18))
        assert seq.frames.shape == (4, 17, 3)

    @pytest.mark.parametrize("counts, message", [
        ((16,), "frame has 16 keypoints, expected 17"),
        ((19,), "frame has 19 keypoints, expected 17"),
        ((18, 17), "frame has 17 keypoints, expected 18"),
        ((17, 18), "frame has 18 keypoints, expected 17"),
    ])
    def test_other_counts_refused(self, tmp_path, counts, message):
        frames = [[[1.0, 2.0, 1.0]] * n for n in counts]
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(self._record(frames)) + "\n")
        with pytest.raises(RecordError, match=message):
            pose_io.load_sequence_file(path)

    def test_null_neck_refused(self, tmp_path):
        frames = [[[1.0, 2.0, 1.0]] * 18]
        frames[0][1] = [None, 2.0, 1.0]     # the neck, dropped on conversion
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(self._record(frames)) + "\n")
        with pytest.raises(RecordError, match="keypoint value None is not a number"):
            pose_io.load_sequence_file(path)


class TestValidate:
    def test_clean_sequence(self):
        seq = sequence_from_coords([walker_frame(p / 10) for p in range(60)])
        assert pose_io.validate_sequence(seq).issues == []

    def test_no_frame_refused(self):
        # no sequence reaches validation without a frame to check
        with pytest.raises(DataError, match="sequence s has no frames"):
            pose_io.PoseSequence("s", "subj", "NM", "000", np.zeros((0, 17, 3)))

    def test_degenerate_extent(self):
        flat = np.zeros((17, 2))
        flat[:, 0] = np.arange(17)
        flat[:, 1] = 7.0
        seq = sequence_from_coords([walker_frame(0.3), flat])
        report = pose_io.validate_sequence(seq)
        flagged = [i for i in report.issues if i.kind == "degenerate_extent"]
        assert len(flagged) == 1 and flagged[0].frame_index == 1

    def test_confidence_out_of_range(self):
        seq = sequence_from_coords([walker_frame(p / 10) for p in range(5)])
        seq.frames[1, 3, 2] = 1.5
        seq.frames[1, 8, 2] = -0.1
        seq.frames[3, 0, 2] = np.nan
        seq.frames[4, 16, 2] = np.inf
        seq.frames[2, :, 2] = [0.0, 1.0] * 8 + [0.5]  # the bounds are valid
        report = pose_io.validate_sequence(seq)
        flagged = [(i.frame_index, i.detail) for i in report.issues
                   if i.kind == "confidence_range"]
        assert flagged == [(1, "2 of 17 confidences not in [0, 1]"),
                           (3, "1 of 17 confidences not in [0, 1]"),
                           (4, "1 of 17 confidences not in [0, 1]")]
        assert [i.kind for i in report.issues] == ["confidence_range"] * 3


def test_frame_requires_17():
    with pytest.raises(DataError, match="17"):
        pose_io.PoseSequence("s", "subj", "NM", "000", np.zeros((1, 16, 3)))
