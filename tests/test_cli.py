import argparse
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gpgait import cli
from gpgait import eval as eval_mod
from gpgait import pose_io
from gpgait import train as tr
from gpgait.checkpoint import load_container, save_container
from gpgait.cli import build_parser, main
from gpgait.config import build_run_config, parse_config_file
from gpgait.errors import ConfigError

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

    def test_deterministic_rerun(self, toy_data, tmp_path):
        for d in ("p1", "p2"):
            assert main(["preprocess", "--manifest", str(toy_data),
                         "--out", str(tmp_path / d)]) == 0
        b1 = (tmp_path / "p1" / "report.txt").read_bytes()
        b2 = (tmp_path / "p2" / "report.txt").read_bytes()
        assert b1 == b2
        for fname in ("unified.jsonl", "descriptors.gpgw"):
            assert not (tmp_path / "p1" / fname).exists(), fname


class TestTrain:
    def test_checkpoint_header(self, toy_checkpoint):
        final, _ = toy_checkpoint
        config, tensors = load_container(final)
        assert config["network"]["embed_dim"] == 4
        assert "train/step" in tensors

    def test_resume_continues(self, toy_data, toy_checkpoint, tmp_path):
        final, cfgfile = toy_checkpoint
        rc = main(["train", "--manifest", str(toy_data),
                   "--out", str(tmp_path / "resume"),
                   "--config", str(cfgfile), "--seed", "7",
                   "--resume", str(final), "--iterations", "6"])
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
                   "--out", str(tmp_path / "resume"),
                   "--config", str(cfgfile), "--seed", "7",
                   "--resume", str(broken), "--iterations", "6"])
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
        6: iterations 4-5 draw the same batches and learning rates."""
        _, tiny = toy_checkpoint
        cfgfile = tmp_path / "resume.cfg"
        cfgfile.write_text(tiny.read_text().replace(
            "train.iterations = 4", "train.iterations = 6").replace(
            "train.checkpoint_interval = 0", "train.checkpoint_interval = 4")
            + "train.log_interval = 1\n")
        draws = []
        sample = tr.sample_batch

        def recording_sample(*args, **kwargs):
            batch, labels = sample(*args, **kwargs)
            draws.append((batch, labels))
            return batch, labels

        monkeypatch.setattr(tr, "sample_batch", recording_sample)
        full = tmp_path / "full"
        assert main(["train", "--manifest", str(toy_data), "--out", str(full),
                     "--config", str(cfgfile), "--seed", "7"]) == 0
        assert len(draws) == 6
        uninterrupted = draws[4:]
        draws.clear()
        resumed = tmp_path / "resumed"
        assert main(["train", "--manifest", str(toy_data), "--out", str(resumed),
                     "--config", str(cfgfile), "--seed", "7",
                     "--resume", str(full / "ckpt_000004.gpgw")]) == 0
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

    def test_resume_warns_about_overridden_settings(self, toy_data,
                                                    toy_checkpoint, tmp_path,
                                                    capsys):
        """Network and normalization settings given with --resume that
        differ from the checkpoint's get one warning each; the run is
        the same as without them."""
        final, tiny = toy_checkpoint
        cfgfile = tmp_path / "other.cfg"
        cfgfile.write_text(tiny.read_text().replace(
            "network.embed_dim = 4", "network.embed_dim = 8")
            + "hot.phi = 0.1\n")
        plain, other = tmp_path / "plain", tmp_path / "other"
        assert main(["train", "--manifest", str(toy_data), "--out", str(plain),
                     "--config", str(tiny), "--seed", "7",
                     "--resume", str(final), "--iterations", "5"]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main(["train", "--manifest", str(toy_data), "--out", str(other),
                     "--config", str(cfgfile), "--seed", "7", "--no-hot",
                     "--no-partition", "--descriptors", "joint,bone",
                     "--resume", str(final), "--iterations", "5"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert [w.split()[1] for w in warnings] == [
            "--no-hot", "--descriptors", "--no-partition", "network.embed_dim"]
        assert "embed_dim = 8, but the resumed checkpoint has 4" in warnings[-1]
        for name in ("metrics.log", "final.gpgw"):
            assert (plain / name).read_bytes() == (other / name).read_bytes()

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
                     "--config", str(cfgfile), "--seed", "7",
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

    def test_rerun_identical(self, toy_data, toy_checkpoint, tmp_path):
        final, _ = toy_checkpoint
        outs = []
        for name in ("h1.tsv", "h2.tsv"):
            assert main(["inspect", "--checkpoint", str(final),
                         "--manifest", str(toy_data),
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


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

    def test_partition_override_from_config(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("graph.partition.upper_lower = "
                     "[[0,1,2,3,4,5,6,7,8,9,10,11,12], [13,14,15,16]]\n")
        cfg = build_run_config(config_file=f)
        assert cfg.partition_overrides == (
            ("upper_lower", ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
                             (13, 14, 15, 16))),)
        from gpgait.pagcn import NetworkConfig, init_model
        net = cfg.network_config(num_classes=2)
        model = init_model(net, seed=0)
        assert model.masks["upper_lower"][12, 0] == 1.0  # custom grouping
        assert model.masks["upper_lower"][13, 0] == 0.0
        # survives the checkpoint config echo
        again = NetworkConfig.from_dict(net.to_dict())
        assert again.partition_overrides == net.partition_overrides

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
        want = eval_mod.unify_for_eval(seqs, run_cfg.echo())
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

    def test_readme_command_lines_parse(self):
        text = README.read_text().replace("\\\n", " ")
        lines = [ln.split("#", 1)[0] for ln in text.splitlines()
                 if ln.startswith("gpgait ")]
        assert lines
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])
