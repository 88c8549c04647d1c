import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpgait import cli
from gpgait import eval as eval_mod
from gpgait import hot, pose_io
from gpgait import train as tr
from gpgait.checkpoint import load_container, save_container
from gpgait.cli import build_parser, main
from gpgait.config import (KEY_MAP, PRESETS, RunConfig, build_run_config,
                           parse_config_file, read_header)
from gpgait.errors import ConfigError, DataError

from conftest import sequence_from_coords, walker_frame


def write_dataset(root, records):
    """One sequence file holding the given JSON records, plus a manifest
    that names it as the gallery; returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "seqs.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    manifest = root / "manifest.tsv"
    pose_io.save_manifest(manifest, pose_io.DatasetManifest(
        [("seqs.jsonl", "gallery"), ("seqs.jsonl", "probe")]))
    return manifest


def walker_record(seq_id, frames=3):
    seq = sequence_from_coords([walker_frame(p) for p in range(frames)],
                               seq_id=seq_id)
    return pose_io.sequence_to_record(seq)


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rc = main(["synth", "--out", str(root), "--identities", "3",
               "--sequences", "3", "--frames", "10", "--seed", "21",
               "--camera", "scale=1,jitter=0.4"])
    assert rc == 0
    return root / "manifest.tsv"


@pytest.fixture(scope="module")
def toy_checkpoint(toy_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    cfgfile = out / "tiny.cfg"
    cfgfile.write_text(
        "network.parts5_channels = [4]\n"
        "network.larger_schemes = [\"global\"]\n"
        "network.larger_channels = 4\n"
        "network.embed_dim = 4\n"
        "train.sequence_length = 6\n"
        "train.subjects_per_batch = 2\n"
        "train.samples_per_subject = 2\n"
        "train.iterations = 4\n"
        "train.checkpoint_interval = 0\n")
    rc = main(["train", "--manifest", str(toy_data), "--out", str(out),
               "--config", str(cfgfile), "--seed", "7"])
    assert rc == 0
    return out / "final.gpgw", cfgfile


class TestSynthCommand:
    def test_creates_manifest(self, toy_data):
        assert toy_data.exists()

    def test_bad_camera_key(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--camera", "zoom=2"])
        assert rc == 2

    @pytest.mark.parametrize("camera, message", [
        ("scale=abc", "camera scale must be a number, got 'abc'"),
        ("slant=nan", "camera slant must be finite"),
        ("tx=inf", "camera tx must be finite"),
        ("jitter=-1", "camera jitter must be nonnegative"),
    ])
    def test_bad_camera_value_is_config_error(self, tmp_path, capsys, camera,
                                              message):
        rc = main(["synth", "--out", str(tmp_path / "s"), "--camera", camera])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_other_commands_do_not_load_synth(self):
        """``import gpgait.cli`` leaves the data generator unloaded, so a
        ``train`` or ``eval`` process never imports it."""
        import gpgait
        src = str(Path(gpgait.__file__).resolve().parents[1])
        code = ("import sys, gpgait.cli; "
                "print('gpgait.synth' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"

    def test_zero_sequences_is_data_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "s"), "--sequences", "0"])
        assert rc == 3
        assert "at least 1 sequence per identity" in capsys.readouterr().err
        assert not (tmp_path / "s" / "manifest.tsv").exists()


class TestPreprocess:
    def test_outputs(self, toy_data, tmp_path):
        rc = main(["preprocess", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "pp")])
        assert rc == 0
        assert (tmp_path / "pp" / "report.txt").exists()
        assert not (tmp_path / "pp" / "unified.jsonl").exists()
        assert not (tmp_path / "pp" / "descriptors.gpgw").exists()

    def test_missing_input(self, tmp_path):
        rc = main(["preprocess", "--manifest", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "pp")])
        assert rc == 3

    @pytest.mark.parametrize("field, value, message", [
        ("coordinate", "abc", "keypoint value 'abc' is not a number"),
        ("frames", 5, "frames is int, expected a list of frames"),
    ])
    def test_malformed_record_exits_3(self, tmp_path, capsys, field, value,
                                      message):
        bad = walker_record("bad")
        if field == "frames":
            bad["frames"] = value
        else:
            bad["frames"][1][4][0] = value
        manifest = write_dataset(tmp_path / "d", [walker_record("ok"), bad])
        rc = main(["preprocess", "--manifest", str(manifest),
                   "--out", str(tmp_path / "pp")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"seqs.jsonl:2: {message}" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_keypoint_drops_frame(self, tmp_path, value):
        rec = walker_record("s", frames=4)
        rec["frames"][2][9][1] = value
        manifest = write_dataset(tmp_path / "d", [rec])
        rc = main(["preprocess", "--manifest", str(manifest),
                   "--out", str(tmp_path / "pp")])
        assert rc == 0
        report = (tmp_path / "pp" / "report.txt").read_text()
        assert "s\tdropped_frames\t[2]\n" in report
        assert "s\tframe 2\tnon_finite" in report

    def test_confidence_out_of_range_reported(self, tmp_path):
        rec = walker_record("s", frames=4)
        rec["frames"][1][5][2] = 2.0
        manifest = write_dataset(tmp_path / "d", [rec])
        rc = main(["preprocess", "--manifest", str(manifest),
                   "--out", str(tmp_path / "pp")])
        assert rc == 0
        report = (tmp_path / "pp" / "report.txt").read_text()
        assert ("s\tframe 1\tconfidence_range\t1 of 17 confidences not in "
                "[0, 1]\n") in report
        assert "dropped_frames" not in report  # report-only: frame is kept

    def test_all_degenerate_sequence_exits_3(self, tmp_path):
        flat = np.zeros((3, 17, 2))
        degenerate = pose_io.sequence_to_record(
            sequence_from_coords(flat, seq_id="flat"))
        manifest = write_dataset(tmp_path / "d",
                                 [walker_record("ok"), degenerate])
        rc = main(["preprocess", "--manifest", str(manifest),
                   "--out", str(tmp_path / "pp")])
        assert rc == 3
        # the validation lines that explain the failure are written first
        report = (tmp_path / "pp" / "report.txt").read_text()
        assert "flat\tframe 0\tdegenerate_extent" in report

    def test_report_lists_every_dropped_frame(self, tmp_path, capsys):
        """HOT drops more than validation flags: frames whose extent is
        tiny but above validation's raw 1e-6 (HOT's floor is 1e-6 x
        h_unif after de-slanting) and horizontal-spine frames. Each
        sequence's dropped frames are listed, those of the sequence HOT
        leaves with no frame too, before that sequence fails the run."""
        w = walker_frame(0.3)
        thin = w.copy()
        thin[:, 1] = (w[:, 1] - w[:, 1].min()) * 1e-4 / np.ptp(w[:, 1])
        level = w.copy()                      # hips at shoulder height
        level[11:13, 1] = w[5:7, 1]
        level[11:13, 0] += 30.0
        records = [pose_io.sequence_to_record(sequence_from_coords(f, seq_id=i))
                   for i, f in (("mixed", [w, thin, thin, level, w]),
                                ("thin", [thin, level, thin]))]
        manifest = write_dataset(tmp_path / "d", records)
        rc = main(["preprocess", "--manifest", str(manifest),
                   "--out", str(tmp_path / "pp")])
        assert rc == 3
        assert "sequence thin: every frame degenerate" in capsys.readouterr().err
        report = (tmp_path / "pp" / "report.txt").read_text()
        assert report == ("mixed\tdropped_frames\t[1, 2, 3]\n"
                          "thin\tdropped_frames\t[0, 1, 2]\n") * 2

    def test_deterministic_rerun(self, toy_data, tmp_path):
        for d in ("p1", "p2"):
            assert main(["preprocess", "--manifest", str(toy_data),
                         "--out", str(tmp_path / d)]) == 0
        b1 = (tmp_path / "p1" / "report.txt").read_bytes()
        b2 = (tmp_path / "p2" / "report.txt").read_bytes()
        assert b1 == b2
        for fname in ("unified.jsonl", "descriptors.gpgw"):
            assert not (tmp_path / "p1" / fname).exists(), fname


# each settings flag of train, with a value; none may come with --resume
RESUME_REFUSED = [["--config", "c.cfg"], ["--preset", "toy"], ["--seed", "0"],
                  ["--iterations", "6"], ["--no-hot"], ["--descriptors", "joint"],
                  ["--single-branch"], ["--no-partition"]]


class TestTrain:
    def test_checkpoint_header(self, toy_checkpoint):
        final, _ = toy_checkpoint
        config, tensors = load_container(final)
        assert config["network"]["embed_dim"] == 4
        assert "train/step" in tensors

    def test_resume_continues(self, toy_data, toy_checkpoint, tmp_path):
        _, tiny = toy_checkpoint
        cfgfile = tmp_path / "six.cfg"
        cfgfile.write_text(tiny.read_text().replace(
            "train.iterations = 4", "train.iterations = 6").replace(
            "train.checkpoint_interval = 0", "train.checkpoint_interval = 4"))
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(toy_data), "--out", str(run),
                     "--config", str(cfgfile), "--seed", "7"]) == 0
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "resume"),
                   "--resume", str(run / "ckpt_000004.gpgw")])
        assert rc == 0
        _, tensors = load_container(tmp_path / "resume" / "final.gpgw")
        assert int(tensors["train/step"][0]) == 6

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_resume_missing_moment_exits_3(self, toy_data, toy_checkpoint,
                                           tmp_path, capsys, moment):
        final, cfgfile = toy_checkpoint
        config, tensors = load_container(final)
        name = f"optim/branch/joint/block0/k0/weight/{moment}"
        del tensors[name]
        broken = tmp_path / "broken.gpgw"
        save_container(broken, config, tensors)
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "resume"), "--resume", str(broken)])
        assert rc == 3
        assert f"checkpoint missing tensor {name}" in capsys.readouterr().err

    def test_unknown_config_key(self, toy_data, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.warp_speed = 9\n")
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "x"), "--config", str(bad)])
        assert rc == 2

    def test_run_threads_key_rejected(self, toy_data, tmp_path, capsys):
        # there is no thread setting: the key is unknown
        bad = tmp_path / "threads.cfg"
        bad.write_text("run.threads = 4\n")
        with pytest.raises(ConfigError, match="'run.threads'"):
            parse_config_file(bad)
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "x"), "--config", str(bad)])
        assert rc == 2
        assert "'run.threads'" in capsys.readouterr().err

    def test_resume_replays_batch_stream(self, toy_data, toy_checkpoint,
                                         tmp_path, monkeypatch):
        """Train 6 with a checkpoint at 4, then resume that checkpoint to
        6 with only --manifest and --out: the resumed run takes every
        setting (network, train settings, seed, normalization) from the
        checkpoint, and iterations 4-5 draw the same batches and learning
        rates."""
        _, tiny = toy_checkpoint
        cfgfile = tmp_path / "resume.cfg"
        cfgfile.write_text(tiny.read_text().replace(
            "train.iterations = 4", "train.iterations = 6").replace(
            "train.checkpoint_interval = 0", "train.checkpoint_interval = 4")
            + "train.log_interval = 1\nhot.phi = 0.05\n")
        runs, draws = [], []
        loop, sample = cli.train_loop, tr.sample_batch

        def recording_loop(train_set, net_cfg, train_cfg, out_dir, **kwargs):
            runs.append((net_cfg, train_cfg, kwargs["run_config"]))
            # checked before training, so that a resumed run with other
            # settings fails at once
            assert (net_cfg, train_cfg) == runs[0][:2]
            return loop(train_set, net_cfg, train_cfg, out_dir, **kwargs)

        def recording_sample(*args, **kwargs):
            batch, labels = sample(*args, **kwargs)
            draws.append((batch, labels))
            return batch, labels

        monkeypatch.setattr(cli, "train_loop", recording_loop)
        monkeypatch.setattr(tr, "sample_batch", recording_sample)
        full = tmp_path / "full"
        assert main(["train", "--manifest", str(toy_data), "--out", str(full),
                     "--config", str(cfgfile), "--seed", "7"]) == 0
        assert len(draws) == 6
        uninterrupted = draws[4:]
        draws.clear()
        resumed = tmp_path / "resumed"
        assert main(["train", "--manifest", str(toy_data), "--out", str(resumed),
                     "--resume", str(full / "ckpt_000004.gpgw")]) == 0
        (_, _, header), (_, resumed_cfg, resumed_header) = runs
        assert resumed_cfg.seed == 7 and resumed_header == header
        assert header["phi"] == 0.05
        assert len(draws) == 2
        for (batch_a, labels_a), (batch_b, labels_b) in zip(uninterrupted, draws):
            np.testing.assert_array_equal(labels_a, labels_b)
            assert sorted(batch_a) == sorted(batch_b)
            for key in batch_a:
                np.testing.assert_array_equal(batch_a[key], batch_b[key])

        def lr_lines(run):
            lines = (run / "metrics.log").read_text().splitlines()
            return [ln.split("\t")[:4] for ln in lines[-2:]]

        assert lr_lines(full) == lr_lines(resumed)
        assert lr_lines(resumed)[0][:2] == ["iter", "4"]

    @pytest.mark.parametrize("flag", RESUME_REFUSED)
    def test_settings_flag_with_resume_exits_2(self, toy_data, toy_checkpoint,
                                               tmp_path, capsys, flag):
        final, _ = toy_checkpoint
        out = tmp_path / "r"
        rc = main(["train", "--manifest", str(toy_data), "--out", str(out),
                   "--resume", str(final)] + flag)
        assert rc == 2
        assert f"{flag[0]} cannot be given with --resume" in capsys.readouterr().err
        assert not out.exists()

    def test_every_settings_flag_refused_with_resume(self):
        assert (command_flags()["train"] - {"--manifest", "--out", "--resume", "--verbose"}
                == {flag[0] for flag in RESUME_REFUSED})

    def test_iterations_zero_is_config_error(self, toy_data, toy_checkpoint,
                                             tmp_path, capsys):
        """--iterations 0 is a value, not an unset flag; like
        train.iterations = 0 in a config file it is refused with exit 2."""
        _, tiny = toy_checkpoint
        rc = main(["train", "--manifest", str(toy_data), "--out", str(tmp_path / "a"),
                   "--config", str(tiny), "--iterations", "0"])
        assert rc == 2
        assert "train.iterations must be at least 1, got 0" in capsys.readouterr().err
        zero = tmp_path / "zero.cfg"
        zero.write_text(tiny.read_text().replace(
            "train.iterations = 4", "train.iterations = 0"))
        rc = main(["train", "--manifest", str(toy_data), "--out", str(tmp_path / "b"),
                   "--config", str(zero)])
        assert rc == 2
        assert "train.iterations" in capsys.readouterr().err
        assert not (tmp_path / "a" / "final.gpgw").exists()

    @pytest.mark.parametrize("line, message", [
        ("train.log_interval = 0", "train.log_interval must be at least 1"),
        ("train.sequence_length = 0", "train.sequence_length must be at least 1"),
        ("train.noise_sigma = -2", "train.noise_sigma must be nonnegative"),
        ("train.lr_init = 0", "train.lr_init must be positive and finite"),
        ("train.lr_max = -1", "train.lr_max must be positive and finite"),
        ("train.lr_final = NaN", "train.lr_final must be positive and finite"),
        ("train.lr_max = Infinity", "train.lr_max must be positive and finite"),
        ("train.margin = -1", "train.margin must be nonnegative and finite"),
        ("train.margin = NaN", "train.margin must be nonnegative and finite"),
        ("train.ce_weight = -0.5", "train.ce_weight must be nonnegative and finite"),
        ("train.phase_fractions = [0.5, 0.6, -0.1]", "train.phase_fractions must be"),
        ("train.phase_fractions = [0.5, 0.5]", "train.phase_fractions must be"),
        ("train.phase_fractions = [NaN, 0.5, 0.5]", "train.phase_fractions must be"),
        ("network.embed_dim = 0", "embed_dim must be at least 1"),
        ("network.larger_channels = 0", "channel counts"),
        ("network.branches = []", "need at least one branch"),
        ("network.larger_schemes = [\"nope\"]", "unknown partition scheme 'nope'"),
    ])
    def test_out_of_range_setting_is_config_error(self, toy_data, toy_checkpoint,
                                                  tmp_path, capsys, line, message):
        """A value the run cannot use ends in exit 2, not a traceback."""
        _, tiny = toy_checkpoint
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(tiny.read_text() + line + "\n")
        rc = main(["train", "--manifest", str(toy_data), "--out", str(tmp_path / "o"),
                   "--config", str(cfgfile)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_zero_length_warmup_trains(self, toy_data, toy_checkpoint, tmp_path):
        """A schedule without warmup starts at the peak rate instead of
        dividing by the warmup's zero length."""
        _, tiny = toy_checkpoint
        cfgfile = tmp_path / "nowarmup.cfg"
        cfgfile.write_text(tiny.read_text() + "train.phase_fractions = [0, 0.9, 0.1]\n")
        rc = main(["train", "--manifest", str(toy_data), "--out", str(tmp_path / "o"),
                   "--config", str(cfgfile)])
        assert rc == 0
        log = (tmp_path / "o" / "metrics.log").read_text().splitlines()
        assert log[0].split("\t")[3] == f"{1e-3:.9e}"

    def test_malformed_sampler_state_names_checkpoint(self, toy_checkpoint,
                                                      tmp_path, capsys):
        """A resumed run refuses a checkpoint whose sampler state does not
        fit, naming the file, before it reads the manifest."""
        final, _ = toy_checkpoint
        broken = tmp_path / "broken.gpgw"
        broken.write_bytes(_with_header(final.read_bytes(), lambda h: _edited(
            h, sampler_state={"bit_generator": "MT19937"})))
        rc = main(["train", "--manifest", str(tmp_path / "absent.tsv"),
                   "--out", str(tmp_path / "o"), "--resume", str(broken)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{broken}: malformed sampler_state" in err
        assert "absent.tsv" not in err

    def test_resume_normalizes_as_checkpoint(self, toy_data, toy_checkpoint,
                                             tmp_path):
        """A --no-hot run resumed without --no-hot keeps training on raw
        poses and records that, as eval reads it from the header."""
        _, tiny = toy_checkpoint
        cfgfile = tmp_path / "mid.cfg"
        cfgfile.write_text(tiny.read_text().replace(
            "train.checkpoint_interval = 0", "train.checkpoint_interval = 2"))
        run = tmp_path / "nohot"
        assert main(["train", "--manifest", str(toy_data), "--out", str(run),
                     "--config", str(cfgfile), "--seed", "7", "--no-hot"]) == 0
        resumed = tmp_path / "resumed"
        assert main(["train", "--manifest", str(toy_data), "--out", str(resumed),
                     "--resume", str(run / "ckpt_000002.gpgw")]) == 0
        config, _ = load_container(resumed / "final.gpgw")
        assert config["use_hot"] is False

    def test_bit_identical_reruns(self, toy_data, toy_checkpoint, tmp_path):
        _, cfgfile = toy_checkpoint
        outs = []
        for d in ("t1", "t2"):
            rc = main(["train", "--manifest", str(toy_data),
                       "--out", str(tmp_path / d), "--config", str(cfgfile),
                       "--seed", "11"])
            assert rc == 0
            outs.append((tmp_path / d / "final.gpgw").read_bytes())
        assert outs[0] == outs[1]


class TestEval:
    def test_results_file(self, toy_data, toy_checkpoint, tmp_path):
        final, _ = toy_checkpoint
        out = tmp_path / "results.tsv"
        rc = main(["eval", "--checkpoint", str(final),
                   "--manifest", str(toy_data), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "summary\tall\t" in text

    def test_identical_reruns(self, toy_data, toy_checkpoint, tmp_path):
        final, _ = toy_checkpoint
        outs = []
        for name in ("r1.tsv", "r2.tsv"):
            rc = main(["eval", "--checkpoint", str(final),
                       "--manifest", str(toy_data),
                       "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_all_degenerate_sequence_exits_3(self, toy_checkpoint, tmp_path,
                                            capsys):
        final, _ = toy_checkpoint
        degenerate = pose_io.sequence_to_record(
            sequence_from_coords(np.zeros((3, 17, 2)), seq_id="flat"))
        manifest = write_dataset(tmp_path / "d",
                                 [walker_record("ok"), degenerate])
        rc = main(["eval", "--checkpoint", str(final), "--manifest",
                   str(manifest), "--out", str(tmp_path / "r.tsv")])
        assert rc == 3
        assert "every frame degenerate" in capsys.readouterr().err

    def test_casiab_single_view_exits_3(self, toy_checkpoint, tmp_path, capsys):
        """No cross-view cell to score: a data error, not a nan summary."""
        final, _ = toy_checkpoint
        root = tmp_path / "d"
        root.mkdir()
        (root / "seqs.jsonl").write_text("".join(
            json.dumps(walker_record(f"{s}-NM-{i:02d}-000")) + "\n"
            for s in ("a", "b") for i in (1, 5)))
        pose_io.save_manifest(root / "manifest.tsv", pose_io.DatasetManifest(
            [("seqs.jsonl", "gallery")], "casiab"))
        out = tmp_path / "r.tsv"
        rc = main(["eval", "--checkpoint", str(final), "--manifest",
                   str(root / "manifest.tsv"), "--out", str(out)])
        assert rc == 3
        assert "no cross-view cell to score" in capsys.readouterr().err
        assert not out.exists()

    def test_sequence_in_probe_and_gallery_exits_3(self, toy_checkpoint,
                                                   tmp_path, capsys):
        """A sequence listed as gallery and as probe would match itself at
        distance 0, and rank-1 would read 1.0."""
        final, _ = toy_checkpoint
        # lists the one sequence file as gallery and as probe
        manifest = write_dataset(tmp_path / "d", [walker_record("a"),
                                                  walker_record("b")])
        out = tmp_path / "r.tsv"
        rc = main(["eval", "--checkpoint", str(final), "--manifest",
                   str(manifest), "--out", str(out)])
        assert rc == 3
        assert ("sequence 'a' listed twice in the manifest (as gallery and as "
                "probe)") in capsys.readouterr().err
        assert not out.exists()

    def test_metric_flag_reaches_scoring(self, toy_data, toy_checkpoint,
                                         tmp_path, monkeypatch):
        # manifest rows per identity i: probe, gallery, gallery. Each
        # probe points along d_i; its own gallery lies far out on d_i,
        # and the previous identity's second gallery entry lies close
        # by, slightly turned: Euclidean picks the impostor, cosine the
        # true match
        final, _ = toy_checkpoint
        dirs = [np.array([math.cos(a), math.sin(a)])
                for a in (0.0, 2.0, 4.0)]
        turn = np.array([[math.cos(0.1), -math.sin(0.1)],
                         [math.sin(0.1), math.cos(0.1)]])
        emb = []
        for i, d in enumerate(dirs):
            emb += [d, 5.0 * d, 0.5 * turn @ dirs[(i + 1) % 3]]
        emb = np.stack(emb)[:, None, :]
        monkeypatch.setattr(eval_mod, "embed_dataset", lambda *_a: emb)
        rank1 = {}
        for metric in ("euclidean", "cosine"):
            out = tmp_path / f"{metric}.tsv"
            assert main(["eval", "--checkpoint", str(final), "--manifest",
                         str(toy_data), "--out", str(out),
                         "--metric", metric]) == 0
            rank1[metric] = out.read_text()
        assert "summary\tall\t0.000000" in rank1["euclidean"]
        assert "summary\tall\t1.000000" in rank1["cosine"]

    def test_missing_checkpoint(self, toy_data, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.gpgw"),
                   "--manifest", str(toy_data),
                   "--out", str(tmp_path / "r.tsv")])
        assert rc == 3

    def test_casiab_protocol_warning_lines(self, toy_checkpoint, tmp_path):
        # six sequences per identity so the NM#5 probe exists; the
        # synthetic set has one view per sequence index, so several
        # probe-view cells are missing and must surface as warnings
        final, _ = toy_checkpoint
        assert main(["synth", "--out", str(tmp_path / "c6"),
                     "--identities", "2", "--sequences", "6",
                     "--frames", "8", "--seed", "31"]) == 0
        out = tmp_path / "rc.tsv"
        rc = main(["eval", "--checkpoint", str(final),
                   "--manifest", str(tmp_path / "c6" / "manifest.tsv"),
                   "--out", str(out), "--protocol", "casiab"])
        assert rc == 0
        text = out.read_text()
        assert "warning\t" in text
        assert "cell\tNM" in text

    def test_oumvlp_and_grew_protocols(self, toy_data, toy_checkpoint,
                                       tmp_path):
        final, _ = toy_checkpoint
        for protocol in ("oumvlp", "grew"):
            out = tmp_path / f"r_{protocol}.tsv"
            rc = main(["eval", "--checkpoint", str(final),
                       "--manifest", str(toy_data), "--out", str(out),
                       "--protocol", protocol])
            assert rc == 0
            assert "summary\tall\t" in out.read_text()


def _split_container(data: bytes):
    """(length line end, header end) offsets of a container's bytes."""
    line_end = data.index(b"\n", 6) + 1
    return line_end, line_end + int(data[6:line_end])


def _with_header(data: bytes, edit) -> bytes:
    """The container with its header JSON replaced by ``edit(header)``."""
    line_end, header_end = _split_container(data)
    header = json.dumps(edit(json.loads(data[line_end:header_end]))).encode()
    return data[:6] + b"%d\n" % len(header) + header + data[header_end:]


def _truncated_header(data: bytes) -> bytes:
    line_end, header_end = _split_container(data)
    return data[:(line_end + header_end) // 2]


def _overrunning_header_length(data: bytes) -> bytes:
    line_end, header_end = _split_container(data)
    return data[:6] + b"%d\n" % (header_end - line_end + 7) + data[line_end:]


def _negative_shape(header: dict) -> dict:
    entry = header["tensors"][0]
    assert len(entry["shape"]) == 2
    entry["shape"] = [-d for d in entry["shape"]]     # same element count
    return header


def _fractional_shape(header: dict) -> dict:
    entry = header["tensors"][0]
    entry["shape"] = [d + 0.5 for d in entry["shape"]]
    return header


def _edited(header: dict, section: str = None, **changes) -> dict:
    """The header with ``changes`` made to its config echo, or to the
    named section of it."""
    config = dict(header["config"])
    if section:
        config[section] = {**config[section], **changes}
    else:
        config.update(changes)
    return {**header, "config": config}


# each fault -> the container bytes with it
CONTAINER_FAULTS = {
    "truncated_header": _truncated_header,
    "header_length_overruns": _overrunning_header_length,
    "header_without_tensors": lambda d: _with_header(
        d, lambda h: {"config": h["config"]}),
    "config_not_object": lambda d: _with_header(d, lambda h: {**h, "config": []}),
    "header_without_network": lambda d: _with_header(
        d, lambda h: {**h, "config": {k: v for k, v in h["config"].items()
                                      if k != "network"}}),
    "network_value_misfit": lambda d: _with_header(d, lambda h: _edited(
        h, "network", attention="maybe")),
    "h_unif_not_number": lambda d: _with_header(d, lambda h: _edited(h, h_unif="abc")),
    "phi_null": lambda d: _with_header(d, lambda h: _edited(h, phi=None)),
    "train_value_misfit": lambda d: _with_header(d, lambda h: _edited(
        h, "train", iterations="many")),
    "lr_max_negative": lambda d: _with_header(d, lambda h: _edited(
        h, "train", lr_max=-1)),
    "phase_fractions_negative": lambda d: _with_header(d, lambda h: _edited(
        h, "train", phase_fractions=[0.5, 0.6, -0.1])),
    "phase_fractions_two": lambda d: _with_header(d, lambda h: _edited(
        h, "train", phase_fractions=[0.5, 0.5])),
    "fractional_joint_index": lambda d: _with_header(d, lambda h: _edited(
        h, "network", partition_overrides=[
            ["upper_lower", [list(range(12)) + [12.5], [13, 14, 15, 16]]]])),
    "negative_shape": lambda d: _with_header(d, _negative_shape),
    "fractional_shape": lambda d: _with_header(d, _fractional_shape),
    "trailing_bytes": lambda d: d + b"\0\0\0\0",
}


class TestCheckpointFaults:
    """A malformed checkpoint ends in a data error naming the file
    (exit 3), for eval, inspect and resumed training alike."""

    @pytest.mark.parametrize("command", ["eval", "train", "inspect"])
    @pytest.mark.parametrize("fault", sorted(CONTAINER_FAULTS))
    def test_malformed_container_exits_3(self, toy_data, toy_checkpoint,
                                         tmp_path, capsys, fault, command):
        final, _ = toy_checkpoint
        broken = tmp_path / "broken.gpgw"
        broken.write_bytes(CONTAINER_FAULTS[fault](final.read_bytes()))
        if command in ("eval", "inspect"):
            argv = [command, "--checkpoint", str(broken), "--manifest",
                    str(toy_data), "--out", str(tmp_path / "r.tsv")]
        else:
            argv = ["train", "--manifest", str(toy_data), "--out",
                    str(tmp_path / "resume"), "--resume", str(broken)]
        assert main(argv) == 3
        assert f"{broken}: " in capsys.readouterr().err


class TestInspect:
    def test_heatmap_rows(self, toy_data, toy_checkpoint, tmp_path):
        final, _ = toy_checkpoint
        out = tmp_path / "h.tsv"
        rc = main(["inspect", "--checkpoint", str(final),
                   "--manifest", str(toy_data), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 17

    def test_compare_unmasked(self, toy_data, toy_checkpoint, tmp_path):
        final, _ = toy_checkpoint
        out = tmp_path / "h.tsv"
        rc = main(["inspect", "--checkpoint", str(final),
                   "--manifest", str(toy_data), "--out", str(out),
                   "--compare-unmasked"])
        assert rc == 0
        assert out.exists() and (tmp_path / "h.tsv.unmasked").exists()

    def test_compare_unmasked_custom_scheme(self, toy_data, tmp_path):
        """A scheme added by ``graph.partition.<name>`` gets an all-ones
        mask too."""
        cfgfile = tmp_path / "halves.cfg"
        cfgfile.write_text(
            "graph.partition.halves = [[0,1,2,3,4,5,6,7,8,9,10], "
            "[11,12,13,14,15,16]]\n"
            "network.parts5_channels = [4]\n"
            "network.larger_schemes = [\"halves\"]\n"
            "network.larger_channels = 4\n"
            "network.embed_dim = 4\n"
            "train.sequence_length = 6\n"
            "train.subjects_per_batch = 2\n"
            "train.samples_per_subject = 2\n"
            "train.iterations = 2\n"
            "train.checkpoint_interval = 0\n")
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(toy_data), "--out", str(run),
                     "--config", str(cfgfile), "--seed", "7"]) == 0
        out = tmp_path / "h.tsv"
        rc = main(["inspect", "--checkpoint", str(run / "final.gpgw"),
                   "--manifest", str(toy_data), "--out", str(out),
                   "--compare-unmasked"])
        assert rc == 0
        unmasked = (tmp_path / "h.tsv.unmasked").read_text()
        assert len(unmasked.strip().split("\n")) == 17
        assert unmasked != out.read_text()

    def test_rerun_identical(self, toy_data, toy_checkpoint, tmp_path):
        final, _ = toy_checkpoint
        outs = []
        for name in ("h1.tsv", "h2.tsv"):
            assert main(["inspect", "--checkpoint", str(final),
                         "--manifest", str(toy_data),
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


# {config key: default}, and each preset's changes to it, as the hand-written
# key table had them (less run.preset, which --preset alone sets)
PINNED_DEFAULTS = {
    "run.seed": 0, "hot.use_hot": True, "hot.h_unif": 225.0, "hot.phi": 0.1,
    "eval.metric": "euclidean", "eval.protocol": None,
    "network.branches": ("joint", "angle", "bone"),
    "network.parts5_channels": (64, 64, 128),
    "network.larger_schemes": ("upper_lower", "three_groups", "left_right",
                               "global"),
    "network.larger_channels": 128, "network.embed_dim": 128,
    "network.temporal_kernel": 3, "network.attention": True,
    "network.use_masks": True,
    "train.subjects_per_batch": 4, "train.samples_per_subject": 32,
    "train.sequence_length": 60, "train.margin": 0.2, "train.ce_weight": 1.0,
    "train.iterations": 40000, "train.lr_init": 1e-05, "train.lr_max": 0.001,
    "train.lr_final": 1e-08, "train.phase_fractions": (0.3, 0.6, 0.1),
    "train.flip_probability": 0.01, "train.noise_probability": 0.3,
    "train.noise_sigma": 2.0, "train.log_interval": 50,
    "train.checkpoint_interval": 1000,
}
PINNED_PRESETS = {
    "casiab": {},
    "gait3d": {"train.iterations": 60000, "train.samples_per_subject": 4,
               "train.subjects_per_batch": 32},
    "oumvlp": {"network.parts5_channels": (64, 128, 128, 128),
               "train.iterations": 150000, "train.samples_per_subject": 16,
               "train.sequence_length": 30, "train.subjects_per_batch": 32},
    "grew": {"network.parts5_channels": (64, 128, 128, 128),
             "train.iterations": 150000, "train.samples_per_subject": 8,
             "train.subjects_per_batch": 32},
    "toy": {"network.embed_dim": 32, "network.larger_channels": 32,
            "network.larger_schemes": ("global",),
            "network.parts5_channels": (16, 32),
            "train.checkpoint_interval": 150, "train.iterations": 300,
            "train.log_interval": 25, "train.noise_sigma": 1.0,
            "train.samples_per_subject": 2, "train.sequence_length": 20},
}


class TestConfig:
    def test_presets_carry_published_defaults(self):
        cfg = build_run_config(preset="casiab")
        assert cfg.h_unif == 225.0
        assert cfg.phi == 0.1
        assert cfg.parts5_channels == (64, 64, 128)
        assert cfg.iterations == 40000
        assert (cfg.subjects_per_batch, cfg.samples_per_subject) == (4, 32)
        assert (cfg.lr_init, cfg.lr_max, cfg.lr_final) == (1e-5, 1e-3, 1e-8)
        assert cfg.flip_probability == 0.01
        assert cfg.noise_probability == 0.3
        cfg = build_run_config(preset="oumvlp")
        assert cfg.parts5_channels == (64, 128, 128, 128)
        assert cfg.sequence_length == 30
        assert (cfg.subjects_per_batch, cfg.samples_per_subject) == (32, 16)
        cfg = build_run_config(preset="gait3d")
        assert cfg.iterations == 60000
        assert (cfg.subjects_per_batch, cfg.samples_per_subject) == (32, 4)
        cfg = build_run_config(preset="grew")
        assert cfg.iterations == 150000
        assert (cfg.subjects_per_batch, cfg.samples_per_subject) == (32, 8)

    def test_explicit_key_overrides_preset(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("hot.h_unif = 100.0\ntrain.iterations = 12\n")
        cfg = build_run_config(preset="casiab", config_file=f)
        assert cfg.h_unif == 100.0
        assert cfg.iterations == 12

    def test_unknown_key_named(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("network.num_heads = 4\n")
        with pytest.raises(ConfigError, match="network.num_heads"):
            parse_config_file(f)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            build_run_config(preset="imaginary")

    def test_normalization_key_rejected(self, tmp_path, capsys):
        # HOT (or none, with --no-hot) is the only normalization
        f = tmp_path / "c.cfg"
        f.write_text("run.normalization = hot\n")
        rc = main(["preprocess", "--manifest", str(tmp_path / "m.tsv"),
                   "--out", str(tmp_path / "pp"), "--config", str(f)])
        assert rc == 2
        assert "unknown config key 'run.normalization'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, key", [
        ("eval", "eval.protocol = casia", "eval.protocol"),
        ("eval", "eval.metric = manhattan", "eval.metric"),
        ("train", "hot.h_unif = -1", "hot.h_unif"),
        ("train", "hot.phi = -0.1", "hot.phi"),
        ("train", "hot.h_unif = NaN", "hot.h_unif"),
    ])
    def test_eval_and_hot_values_checked_when_built(self, toy_data,
                                                    toy_checkpoint, tmp_path,
                                                    capsys, command, line, key):
        final, _ = toy_checkpoint
        f = tmp_path / "c.cfg"
        f.write_text(line + "\n")
        with pytest.raises(ConfigError, match=key):
            build_run_config(config_file=f)
        out = tmp_path / "out"
        argv = (["eval", "--checkpoint", str(final)] if command == "eval"
                else ["train"])
        rc = main(argv + ["--manifest", str(toy_data), "--out", str(out),
                          "--config", str(f)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("network.attention = maybe", "network.attention"),
        ("hot.use_hot = 2", "hot.use_hot"),
        ("hot.use_hot = 1.0", "hot.use_hot"),
        ("train.iterations = 3.7", "train.iterations"),
        ("train.iterations = true", "train.iterations"),
        ("train.iterations = 12x", "train.iterations"),
        ("train.margin = false", "train.margin"),
        ("network.parts5_channels = [4, 2.5]", "network.parts5_channels"),
        ("network.parts5_channels = 4", "network.parts5_channels"),
        ("graph.partition.global = [[0, 1.5]]", "graph.partition.global"),
    ])
    def test_value_that_does_not_fit_is_named(self, tmp_path, line, key):
        f = tmp_path / "c.cfg"
        f.write_text("# strict values\n" + line + "\n")
        with pytest.raises(ConfigError, match=rf"c\.cfg:2: .*{re.escape(key)}"):
            build_run_config(config_file=f)

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("false", False), ("1", True), ("0", False),
        ("yes", True), ("No", False), ("on", True), ("off", False),
    ])
    def test_bool_spellings(self, tmp_path, text, value):
        f = tmp_path / "c.cfg"
        f.write_text(f"network.attention = {text}\nhot.use_hot = {text}\n")
        cfg = build_run_config(config_file=f)
        assert cfg.attention is value and cfg.use_hot is value

    def test_integral_and_list_spellings(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("train.iterations = 1e3\nnetwork.parts5_channels = 4, 8\n"
                     "network.branches = joint,bone\ntrain.margin = 1\n")
        cfg = build_run_config(config_file=f, overrides={"seed": "5"})
        assert cfg.iterations == 1000 and type(cfg.iterations) is int
        assert cfg.parts5_channels == (4, 8)
        assert cfg.branches == ("joint", "bone")
        assert cfg.margin == 1.0 and type(cfg.margin) is float
        assert cfg.seed == 5
        with pytest.raises(ConfigError, match="run.seed"):
            build_run_config(overrides={"seed": 1.5})

    def test_run_preset_key_rejected(self, toy_data, tmp_path, capsys):
        # a config file cannot choose the preset: --preset does
        f = tmp_path / "c.cfg"
        f.write_text("run.preset = toy\n")
        with pytest.raises(ConfigError, match="'run.preset'.*--preset"):
            parse_config_file(f)
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "x"), "--config", str(f)])
        assert rc == 2
        assert "--preset" in capsys.readouterr().err

    def test_key_table_and_presets_pinned(self):
        """Every key with its default, and every preset resolved, as the
        hand-written key table had them."""
        want = dict(PINNED_DEFAULTS)
        assert {key: getattr(RunConfig(), name)
                for key, name in KEY_MAP.items()} == want
        for preset, changes in PINNED_PRESETS.items():
            cfg = build_run_config(preset=preset)
            assert cfg.preset == preset
            assert {key: getattr(cfg, name)
                    for key, name in KEY_MAP.items()} == {**want, **changes}

    def test_partition_override_from_config(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("graph.partition.upper_lower = "
                     "[[0,1,2,3,4,5,6,7,8,9,10,11,12], [13,14,15,16]]\n")
        cfg = build_run_config(config_file=f)
        assert cfg.partition_overrides == (
            ("upper_lower", ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
                             (13, 14, 15, 16))),)
        from gpgait.pagcn import init_model
        net = cfg.network_config(num_classes=2)
        model = init_model(net, seed=0)
        assert model.masks["upper_lower"][12, 0] == 1.0  # custom grouping
        assert model.masks["upper_lower"][13, 0] == 0.0
        # survives the checkpoint config echo
        echoed = json.loads(json.dumps({"network": net.to_dict()}))
        _run_cfg, again = read_header(echoed, "c.gpgw")
        assert again.partition_overrides == net.partition_overrides

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_header_reads_back(self, preset, tmp_path):
        """The header train_loop writes reads back to the settings it was
        written from."""
        run_cfg = build_run_config(preset=preset, overrides={"seed": 3})
        net_cfg = run_cfg.network_config(num_classes=5)
        train_cfg = run_cfg.train_config()
        # from the last iteration on, the loop only writes final.gpgw
        _model, final = tr.train_loop(
            tr.TrainSet.build([]), net_cfg, train_cfg, tmp_path,
            run_config=run_cfg.echo(),
            state=tr.OptimizerState(step=train_cfg.iterations))
        got, got_net = read_header(load_container(final)[0], final)
        assert got == run_cfg
        assert got_net == net_cfg
        assert got.train_config() == train_cfg

    def test_header_entries_converted_or_defaulted(self):
        """Each header entry is converted as a config value is; one the
        header lacks (here every train entry) keeps its default."""
        run_cfg, net = read_header({"network": {"num_classes": "3"},
                                    "use_hot": "no", "h_unif": "100"}, "c.gpgw")
        assert run_cfg == build_run_config(overrides={"use_hot": False,
                                                      "h_unif": 100.0})
        assert net == RunConfig().network_config(num_classes=3)

    @pytest.mark.parametrize("entries", [
        {"h_unif": "abc"}, {"phi": None}, {"use_hot": "maybe"},
        {"h_unif": -1}, {"metric": "manhattan"}, {"train": {"lr_max": -1}},
        {"train": {"iterations": 2.5}}, {"train": [4]}, {"network": {"embed_dim": 4}},
        {"network": {"num_classes": 3, "embed_dim": "x"}},
        {"network": {"num_classes": 0}}, {"network": None},
    ])
    def test_header_misfit_is_data_error(self, entries):
        with pytest.raises(DataError, match=r"^c\.gpgw: malformed header: "):
            read_header({"network": {"num_classes": 3}, **entries}, "c.gpgw")

    def test_partition_override_must_cover(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("graph.partition.upper_lower = [[0,1,2]]\n")
        cfg = build_run_config(config_file=f)
        from gpgait.pagcn import init_model
        with pytest.raises(ConfigError, match="uncovered"):
            init_model(cfg.network_config(num_classes=2), seed=0)


class TestAblationFlags:
    def test_no_hot_and_descriptors(self, toy_data, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "network.parts5_channels = [4]\n"
            "network.larger_schemes = [\"global\"]\n"
            "network.larger_channels = 4\n"
            "network.embed_dim = 4\n"
            "train.sequence_length = 6\n"
            "train.subjects_per_batch = 2\n"
            "train.samples_per_subject = 2\n"
            "train.iterations = 2\n"
            "train.checkpoint_interval = 0\n")
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "nh"), "--config", str(cfg),
                   "--no-hot", "--descriptors", "joint,bone"])
        assert rc == 0
        config, _ = load_container(tmp_path / "nh" / "final.gpgw")
        assert config["use_hot"] is False
        assert config["network"]["branches"] == ["joint", "bone"]

    def test_single_branch(self, toy_data, tmp_path):
        cfg = tmp_path / "c2.cfg"
        cfg.write_text(
            "network.parts5_channels = [4]\n"
            "network.larger_schemes = [\"global\"]\n"
            "network.larger_channels = 4\n"
            "network.embed_dim = 4\n"
            "train.sequence_length = 6\n"
            "train.subjects_per_batch = 2\n"
            "train.samples_per_subject = 2\n"
            "train.iterations = 2\n"
            "train.checkpoint_interval = 0\n")
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "sb"), "--config", str(cfg),
                   "--single-branch"])
        assert rc == 0
        config, _ = load_container(tmp_path / "sb" / "final.gpgw")
        assert config["network"]["branches"] == ["fused"]

    def test_repeated_descriptor_is_config_error(self, toy_data, tmp_path, capsys):
        rc = main(["train", "--manifest", str(toy_data), "--out", str(tmp_path / "o"),
                   "--preset", "toy", "--iterations", "1",
                   "--descriptors", "joint,joint"])
        assert rc == 2
        assert "branch 'joint' listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_branch_with_descriptors_is_config_error(self, toy_data, tmp_path,
                                                            capsys):
        """--single-branch would silently drop the --descriptors list."""
        rc = main(["train", "--manifest", str(toy_data), "--out", str(tmp_path / "o"),
                   "--preset", "toy", "--iterations", "1",
                   "--descriptors", "joint,bone", "--single-branch"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--single-branch" in err and "--descriptors" in err
        assert not (tmp_path / "o").exists()

    def test_no_partition(self, toy_data, tmp_path):
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(
            "network.parts5_channels = [4]\n"
            "network.larger_schemes = [\"global\"]\n"
            "network.larger_channels = 4\n"
            "network.embed_dim = 4\n"
            "train.sequence_length = 6\n"
            "train.subjects_per_batch = 2\n"
            "train.samples_per_subject = 2\n"
            "train.iterations = 2\n"
            "train.checkpoint_interval = 0\n")
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "np"), "--config", str(cfg),
                   "--no-partition"])
        assert rc == 0
        config, _ = load_container(tmp_path / "np" / "final.gpgw")
        assert config["network"]["use_masks"] is False


@pytest.fixture(scope="module")
def ablation_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    assert main(["synth", "--out", str(root / "data"), "--identities", "6",
                 "--sequences", "4", "--frames", "20", "--seed", "3"]) == 0
    (root / "attention.cfg").write_text("network.attention = false\n")
    (root / "no_larger.cfg").write_text("network.larger_schemes = []\n")
    (root / "halves.cfg").write_text(
        "graph.partition.global = [[0,1,2,3,4,5,6,7,8,9,10],[11,12,13,14,15,16]]\n")
    return root


def _ablation_tensors(root, name, flags):
    out = root / name
    if not out.exists():
        assert main(["train", "--preset", "toy", "--iterations", "2",
                     "--manifest", str(root / "data" / "manifest.tsv"),
                     "--out", str(out), *flags]) == 0
    return load_container(out / "final.gpgw")[1]


class TestAblationSwitches:
    """Every ablation switch changes what a 2-iteration toy training
    produces: the checkpoint's tensor names or values differ from the
    plain run's."""

    @pytest.mark.parametrize("name, flags", [
        ("no_hot", ["--no-hot"]),
        ("descriptors", ["--descriptors", "joint,bone"]),
        ("single_branch", ["--single-branch"]),
        ("no_partition", ["--no-partition"]),
        ("no_attention", ["--config", "attention.cfg"]),
        ("no_larger_schemes", ["--config", "no_larger.cfg"]),
        ("partition_override", ["--config", "halves.cfg"]),
    ])
    def test_switch_changes_checkpoint(self, ablation_data, name, flags):
        flags = [str(ablation_data / f) if f.endswith(".cfg") else f for f in flags]
        plain = _ablation_tensors(ablation_data, "plain", [])
        switched = _ablation_tensors(ablation_data, name, flags)
        assert list(switched) != list(plain) or any(
            not np.array_equal(switched[k], plain[k]) for k in plain)


# the arguments each command requires, so that a parse fails only on the
# flag under test
REQUIRED = {
    "preprocess": ["--manifest", "m", "--out", "o"],
    "train": ["--manifest", "m", "--out", "o"],
    "eval": ["--checkpoint", "c", "--manifest", "m", "--out", "o"],
    "inspect": ["--checkpoint", "c", "--manifest", "m", "--out", "o"],
    "synth": ["--out", "o"],
}
README = Path(__file__).resolve().parents[1] / "README.md"


def command_flags():
    """{command: set of its --flags}, from the parser."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


class TestParser:
    @pytest.mark.parametrize("command, flag", [
        ("eval", ["--no-hot"]), ("eval", ["--seed", "3"]),
        ("eval", ["--preset", "toy"]), ("inspect", ["--config", "f"]),
        ("inspect", ["--seed", "3"]), ("preprocess", ["--single-branch"]),
        ("preprocess", ["--seed", "3"]), ("synth", ["--preset", "toy"]),
        ("train", ["--threads", "1"]), ("train", ["--normalization", "hot"]),
    ])
    def test_unread_flag_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command] + REQUIRED[command] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--no-hot"]])
    def test_unify_takes_a_thread_count(self, toy_data, flags):
        # the benchmark's set-up calls _unify(sequences, run_cfg, 1)
        args = build_parser().parse_args(["train"] + REQUIRED["train"] + flags)
        run_cfg = cli._run_config_from_args(args)
        _manifest, with_roles = cli._load_with_roles(toy_data)
        seqs = [s for s, _r in with_roles]
        got = cli._unify(seqs, run_cfg, 1)
        want = hot.unify_sequences(seqs, run_cfg.hot_config())
        assert len(got) == len(want) == len(seqs)
        for g, w in zip(got, want):
            assert g.frames.tobytes() == w.frames.tobytes()
            assert g.kept_frame_indices == w.kept_frame_indices

    def test_readme_lists_each_commands_flags(self):
        text = README.read_text()
        section = text.split("\n## Commands and flags\n", 1)[1].split("\n## ", 1)[0]
        entries = re.split(r"^### `gpgait (\w+)`$", section, flags=re.M)[1:]
        documented = {cmd: set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", body))
                      for cmd, body in zip(entries[0::2], entries[1::2])}
        assert documented == command_flags()

    def test_readme_key_table_matches_declarations(self):
        rows = re.findall(r"^\| `([a-z_]+\.[a-z_0-9]+)` \| `([^`]*)` \| ([a-z ]+) \|",
                          README.read_text(), flags=re.M)
        documented = {key: (json.loads(default), kind) for key, default, kind in rows}
        assert len(rows) == len(documented)

        def declared(value):
            if isinstance(value, tuple):
                return list(value), f"list of {type(value[0]).__name__}"
            return value, "str" if value is None else type(value).__name__

        assert documented == {key: declared(getattr(RunConfig(), name))
                              for key, name in KEY_MAP.items()}

    def test_readme_command_lines_parse(self):
        text = README.read_text().replace("\\\n", " ")
        lines = [ln.split("#", 1)[0] for ln in text.splitlines()
                 if ln.startswith("gpgait ")]
        assert lines
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])
