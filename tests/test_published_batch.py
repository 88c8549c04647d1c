import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "published_batch", os.path.join(HERE, "..", "tools", "published_batch.py"))
published_batch = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(published_batch)


def test_ladder_stops_at_first_size_that_does_not_fit():
    calls = []

    def step(tree, n):
        calls.append(n)
        return {"sequences": n, "fit": n < 64}

    out = published_batch.ladder("tree", step=step)
    assert calls == [16, 32, 64]
    assert out["largest_fit"] == 32
    assert [s["fit"] for s in out["steps"]] == [True, True, False]


@pytest.mark.filterwarnings("ignore:triplet loss")
def test_measure_one_small_iteration(monkeypatch):
    from gpgait import train
    calls = []
    monkeypatch.setattr(train, "keep_freed_memory", lambda: calls.append(1))
    out = published_batch.measure(sequences=8, frames=3)
    assert calls == [1]     # the allocator setting train_loop makes
    assert out["fit"] and out["sequences"] == 8
    for key in ("forward_s", "backward_s", "adam_s", "forward_peak_rss_mb",
                "peak_rss_mb", "minor_faults", "forward_gflop"):
        assert out[key] >= 0
    assert out["forward_gflop"] > 0
    assert 0 < out["forward_peak_rss_mb"] <= out["peak_rss_mb"]
