import importlib.util
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "eval_scale", os.path.join(HERE, "..", "tools", "eval_scale.py"))
eval_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_scale)
published_batch = eval_scale.published_batch

RANK1_FIELDS = {"kind", "probes", "gallery", "dim", "fit", "rank1_s",
                "embeddings_mb", "setup_peak_rss_mb", "peak_rss_mb",
                "nearest_sha256"}
EMBED_FIELDS = {"kind", "sequences", "classes", "frames", "fit", "embed_s",
                "setup_peak_rss_mb", "peak_rss_mb", "embed_rss_mb",
                "embeddings_mb", "embeddings_sha256"}


def test_ladders_stop_at_first_size_that_does_not_fit(monkeypatch):
    """With a fake child, every ladder of the report stops at its first
    step that does not fit, and the fixed timing step runs once."""
    calls = []

    def fake_child(script, tree, args, failed):
        kind, a, b = args
        calls.append((kind, a, b))
        fits = b < 80_000 if kind == "rank1" else a < 672 and b < 5_000
        return dict(failed, fit=fits)

    monkeypatch.setattr(published_batch, "run_child", fake_child)
    report = eval_scale.tree_report("tree")
    assert report["rank1_timing"]["fit"]
    assert calls[0] == ("rank1", 500, 5_000)
    gallery = report["rank1_gallery"]
    assert [s["gallery"] for s in gallery["steps"]] == [1_250, 10_000, 80_000]
    assert gallery["largest_fit"] == 10_000
    sequences = report["embed_sequences"]
    assert [s["sequences"] for s in sequences["steps"]] == [42, 168, 672]
    assert sequences["largest_fit"] == 168
    classes = report["embed_classes"]
    assert [s["classes"] for s in classes["steps"]] == [6, 500, 5_000]
    assert classes["largest_fit"] == 500
    assert ("embed", 336, 20_000) not in calls


def test_tiny_steps_report_every_documented_field(monkeypatch):
    from gpgait import train
    made = []
    monkeypatch.setattr(train, "keep_freed_memory", lambda: made.append(1))
    rank1 = eval_scale.measure_rank1(probes=3, gallery=7, dim=8)
    embed = eval_scale.measure_embed(sequences=3, classes=6, frames=5)
    assert made == [1, 1]      # the allocator setting cross_domain_eval makes
    assert set(rank1) == RANK1_FIELDS and set(embed) == EMBED_FIELDS
    assert rank1["fit"] and embed["fit"]
    assert (rank1["probes"], rank1["gallery"], rank1["dim"]) == (3, 7, 8)
    assert (embed["sequences"], embed["classes"], embed["frames"]) == (3, 6, 5)
    assert rank1["embeddings_mb"] == 10 * 8 * 8 / 2**20
    assert embed["embeddings_mb"] == 3 * 18 * 32 * 8 / 2**20
    for out in (rank1, embed):
        assert 0 < out["setup_peak_rss_mb"] <= out["peak_rss_mb"]
    assert embed["embed_rss_mb"] == embed["peak_rss_mb"] - embed["setup_peak_rss_mb"]
    assert rank1["rank1_s"] >= 0 and embed["embed_s"] > 0
    assert len(rank1["nearest_sha256"]) == len(embed["embeddings_sha256"]) == 64
    # the rank-1 indices hashed are those of nearest_gallery on the same rows
    emb = np.empty((10, 8))
    np.random.default_rng(0).standard_normal(out=emb)
    from gpgait import eval as ev
    nearest = ev.nearest_gallery(emb, np.arange(3), np.arange(3, 10))
    assert rank1["nearest_sha256"] == eval_scale._sha256(nearest.astype(np.int64))
