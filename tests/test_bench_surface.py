"""The program surface the benchmark in ``perfbench/`` binds.

The benchmark's own tests (``perfbench/tests``) are not part of this
suite. These cases fail here when a function its probes wrap, or one its
set-up calls, is deleted or renamed, which would otherwise break only
its traced runs (``--trace 1``).
"""

import os

import pytest

from gpgait import cli, hot, pagcn
from gpgait import eval as eval_mod
from gpgait.config import build_run_config
from gpgait.pagcn import NetworkConfig, descriptor_inputs, init_model

from conftest import sequence_from_coords, walker_frame

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``layers``, ``probes`` and ``tracing`` modules."""
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import probes
    import tracing
    return layers, probes, tracing


def test_probes_install_record_and_restore(bench, rng):
    """As the traced set-up runs: probes installed, then ``cli._unify``
    with the thread count the benchmark passes, then restored."""
    _layers, probes, tracing = bench
    originals = (hot.apply_hot, pagcn.network_forward, eval_mod.pairwise_distances)
    frames = [walker_frame(p) for p in (0.2, 0.7, 1.1)]
    seqs = [sequence_from_coords(frames, seq_id=f"s{i}") for i in range(3)]
    tracer = tracing.Tracer()
    try:
        probes.install_probes(tracer)
        assert hot.apply_hot is not originals[0]
        for use_hot in (True, False):
            run_cfg = build_run_config(preset="toy", overrides={"use_hot": use_hot})
            got = cli._unify(seqs, run_cfg, 1)
            assert [u.kept_frame_indices for u in got] == [[0, 1, 2]] * 3
        # rank-1 reaches the distances through the probed name
        eval_mod.nearest_gallery(rng.normal(size=(6, 2, 3)), [0, 1], [2, 3, 4, 5])
        assert tracer.named("eval.distance")
    finally:
        tracer.restore()
    assert (hot.apply_hot, pagcn.network_forward,
            eval_mod.pairwise_distances) == originals


def test_network_flops_linear_in_batch(bench):
    layers = bench[0]
    model = init_model(build_run_config(preset="toy").network_config(num_classes=3),
                       seed=0)
    flops = layers.network_flops(model, 4, 20)
    assert flops > 0
    assert layers.network_flops(model, 8, 20) == 2 * flops


def test_block_microbench_on_a_tiny_model(bench, rng):
    """As a traced training run's set-up calls it: every block through
    ``pagcn.pagcn_block`` with its block argument, forward and backward,
    read through ``blk.subsets``, then every named parameter's
    ``zero_grad``."""
    layers = bench[0]
    cfg = NetworkConfig(num_classes=2, parts5_channels=(4,), larger_schemes=("global",),
                        larger_channels=4, embed_dim=4)
    model = init_model(cfg, seed=0)
    inputs = descriptor_inputs(cfg, rng.normal(size=(2, 3, 17, 2)),
                               rng.normal(size=(2, 3, 17, 2)),
                               rng.normal(size=(2, 3, 17, 1)))
    blocks = layers.block_microbench(model, inputs, reps=2)
    assert [b["shape"] for b in blocks] == [[2, 3, 2, 4], [2, 3, 4, 4]]
    assert all(b["fwd_gflop"] > 0 and b["bwd_ms"] > 0 for b in blocks)
    assert all(p.grad is None for p in model.named_parameters().values())
