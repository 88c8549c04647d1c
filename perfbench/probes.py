"""The traced run's probes and per-layer summaries.

Imported by the worker only under ``--trace 1``, so an untraced run's
set-up time does not include the tracer. ``install_probes`` wraps the
public functions each layer is entered through; ``layer_metrics``
turns the recorded spans and the direct measurements of ``layers`` into
the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from gpgait import checkpoint as ckpt
from gpgait import eval as eval_mod
from gpgait import hod, hot, pagcn, pose_io, train
from gpgait.autodiff import Tensor

import layers
import tracing
from tracing import Tracer  # noqa: F401  (the worker creates it through here)

# casiab has 3 + 4 blocks per branch; smaller networks report 0 for the rest
MAX_BLOCKS = 7
# spans whose allocation peak is measured (in the ``memory`` phase)
MEMORY_SPANS = ("pagcn.forward", "autodiff.backward")
# direct checkpoint saves timed after a training loop
SAVE_REPS = 3

# -- tracing probes -------------------------------------------------------


def _frames_of_result(result, *_a, **_k):
    return {"frames": sum(s.num_frames for s, _r in result)}


def _hot_counts(result, seq, *_a, **_k):
    return {"frames": seq.num_frames,
            "dropped": seq.num_frames - result.num_frames}


def _file_bytes(_result, path, *_a, **_k):
    return {"bytes": os.path.getsize(path)}


def install_probes(tracer: tracing.Tracer, memory: bool = False):
    """Wrap the public functions each layer is entered through; with
    ``memory``, also trace allocations so spans carry memory peaks."""
    if memory:
        tracer.memory_spans = frozenset(MEMORY_SPANS)
    tracer.patch_function(pose_io.load_sequences_with_roles, "pose_io.load",
                          after=_frames_of_result)
    tracer.patch_function(hot.apply_hot, "hot.apply", after=_hot_counts)
    tracer.patch_function(hod.build_descriptors, "hod.descriptors",
                          before=lambda u, *a, **k: {"frames": u.num_frames})
    tracer.patch_function(train.sample_batch, "train.sample_batch")
    tracer.patch_function(train.combined_loss, "train.loss")
    tracer.patch_function(train.adam_step, "train.adam")

    def forward_counts(model, inputs, *_a, **_k):
        shape = next(iter(inputs.values())).shape
        return {"flop": layers.network_flops(model, shape[0], shape[1])}

    tracer.patch_function(pagcn.descriptor_inputs, "pagcn.descriptor_inputs")
    tracer.patch_function(pagcn.network_forward, "pagcn.forward",
                          before=forward_counts)
    tracer.patch_function(pagcn.branch_forward, "pagcn.branch")
    tracer.patch_function(pagcn.pagcn_block, "pagcn.block")
    tracer.patch_function(ckpt.save_container, "checkpoint.save",
                          after=_file_bytes)
    tracer.patch_function(ckpt.load_container, "checkpoint.load",
                          after=_file_bytes)
    tracer.patch_function(eval_mod.embed_unified, "eval.embed",
                          before=lambda _m, useqs, *a, **k: {
                              "frames": sum(u.num_frames for u in useqs)})
    tracer.patch_function(eval_mod.pairwise_distances, "eval.distance")

    original = Tensor.backward

    def backward(self, grad=None):
        walk = tracer.begin("trace.graph_walk")
        before = layers.graph_stats(self)
        tracer.end(walk)
        span = tracer.begin("autodiff.backward")
        try:
            original(self, grad)
        finally:
            tracer.end(span)
        walk = tracer.begin("trace.graph_walk")
        after = layers.graph_stats(self)
        tracer.end(walk)
        if before is not None and after is not None:
            span["counts"] = {"nodes": before[0], "graph_bytes": before[1],
                              "grad_bytes": after[2]}

    tracer.patch_method(Tensor, "backward", backward)



# -- per-layer summaries ----------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _us_per_frame(spans):
    frames = sum(s["counts"].get("frames", 0) for s in spans)
    total = sum(tracing.duration(s) for s in spans)
    return total / frames * 1e6 if frames else 0.0


def _op_median_ms(tracer, name, ops):
    return _median(tracing.per_op_sum(tracer.named(name, ops), ops)) * 1e3


def _op_peak_mb(tracer, name, ops):
    peaks = {}
    for s in tracer.named(name, ops):
        peaks[s["op"]] = max(peaks.get(s["op"], 0.0), s["peak_mb"])
    return _median(list(peaks.values()))


# stage -> the spans it is made of (the forward stage assembles the
# network's inputs, then runs it)
STAGES = {"sample": ("train.sample_batch",),
          "forward": ("pagcn.descriptor_inputs", "pagcn.forward"),
          "loss": ("train.loss",), "backward": ("autodiff.backward",),
          "adam": ("train.adam",)}


def layer_metrics(tracer, loop, blocks: list, gemm: float, save: dict = None) -> dict:
    """Per-layer metrics: times from the ``traced`` ops (and set-up),
    memory peaks from the ``memory`` ops; ``blocks`` and ``save`` are
    the direct measurements of the training workloads."""
    traced_ms = loop.ms("traced")
    ops = list(range(len(traced_ms)))
    mem_ops = list(range(len(ops), len(ops) + len(loop.ms("memory"))))
    out = {}
    loads = tracer.named("pose_io.load", [-1] + ops)
    hots = tracer.named("hot.apply", [-1] + ops)
    out["pose_io.load_us_per_frame"] = _us_per_frame(loads)
    out["hot.apply_us_per_frame"] = _us_per_frame(hots)
    dropped = {}     # per pass over the data (set-up, or one eval op)
    for s in hots:
        dropped[s["op"]] = dropped.get(s["op"], 0) + s["counts"]["dropped"]
    out["hot.frames_dropped"] = max(dropped.values(), default=0)
    out["hod.descriptors_us_per_frame"] = _us_per_frame(
        tracer.named("hod.descriptors", ops))

    out["train.sample_batch_ms"] = _op_median_ms(tracer, "train.sample_batch", ops)
    out["train.loss_ms"] = _op_median_ms(tracer, "train.loss", ops)
    out["train.adam_ms"] = _op_median_ms(tracer, "train.adam", ops)
    shares = dict.fromkeys(list(STAGES) + ["other"], 0.0)
    if tracer.named("train.sample_batch", ops):
        # shares of the traced iterations' time less the benchmark's own
        # graph walks; "other" is what no stage span covers
        busy = sum(traced_ms) / 1e3 - sum(
            tracing.duration(s) for s in tracer.named("trace.graph_walk", ops))
        for key, names in STAGES.items():
            shares[key] = sum(tracing.duration(s) for name in names
                              for s in tracer.named(name, ops)
                              if s["parent"] is None) / busy
        shares["other"] = 1.0 - sum(shares.values())
    out.update({f"train.share.{key}": value for key, value in shares.items()})

    forwards = tracer.named("pagcn.forward", ops)
    out["pagcn.forward_ms"] = _op_median_ms(tracer, "pagcn.forward", ops)
    out["pagcn.forward_peak_mb"] = _op_peak_mb(tracer, "pagcn.forward", mem_ops)
    flop = tracing.per_op_sum(forwards, ops, value=lambda s: s["counts"]["flop"])
    out["pagcn.forward_gflop"] = _median(flop) / 1e9
    fwd_s = sum(tracing.duration(s) for s in forwards)
    out["pagcn.forward_gflop_per_s"] = sum(flop) / fwd_s / 1e9 if fwd_s else 0.0

    if blocks:      # direct calls (training workloads)
        fwd = [b["fwd_ms"] for b in blocks]
        bwd = [b["bwd_ms"] for b in blocks]
    else:           # spans of the no-grad forward (evaluation): no backward
        block_spans = tracer.named("pagcn.block", ops)
        fwd = [_median(tracing.per_op_sum([s for s in block_spans if s["seq"] == j],
                                          ops)) * 1e3
               for j in range(MAX_BLOCKS)]
        bwd = []
    for j in range(MAX_BLOCKS):
        out[f"pagcn.block{j}.fwd_ms"] = fwd[j] if j < len(fwd) else 0.0
        out[f"pagcn.block{j}.bwd_ms"] = bwd[j] if j < len(bwd) else 0.0

    backs = tracer.named("autodiff.backward", ops)
    out["autodiff.backward_ms"] = _op_median_ms(tracer, "autodiff.backward", ops)
    out["autodiff.backward_peak_mb"] = _op_peak_mb(tracer, "autodiff.backward", mem_ops)
    if not backs:
        out.update({"autodiff.graph_nodes": 0, "autodiff.graph_mb": 0.0,
                    "autodiff.grad_mb": 0.0})
    elif all(s["counts"] for s in backs):
        out["autodiff.graph_nodes"] = _median([s["counts"]["nodes"] for s in backs])
        out["autodiff.graph_mb"] = _median(
            [s["counts"]["graph_bytes"] for s in backs]) / tracing.MB
        out["autodiff.grad_mb"] = _median(
            [s["counts"]["grad_bytes"] for s in backs]) / tracing.MB
    # else: tensors no longer expose _parents; the counts stay missing

    loads = tracer.named("checkpoint.load", ops)
    out["checkpoint.save_ms"] = save["ms"] if save else 0.0
    out["checkpoint.load_ms"] = _median([tracing.duration(s) for s in loads]) * 1e3
    sizes = [s["counts"]["bytes"] for s in loads] + ([save["bytes"]] if save else [])
    out["checkpoint.mb"] = max(sizes) / tracing.MB if sizes else 0.0

    out["eval.embed_ms"] = _op_median_ms(tracer, "eval.embed", ops)
    out["eval.embed_us_per_frame"] = _us_per_frame(tracer.named("eval.embed", ops))
    out["eval.distance_ms"] = _op_median_ms(tracer, "eval.distance", ops)
    out["host.gemm_gflop_per_s"] = gemm
    return out


# -- after the loop -----------------------------------------------------------


def train_layers(tracer, loop, spec, variant, train_set, net_cfg, model,
                 config, tensors, save_path) -> dict:
    """Per-layer metrics of a training workload: the spans plus direct
    calls of every block at the workload's batch, of the checkpoint
    writer on the trained model and optimizer state (the presets save
    far apart, so a run's loop rarely holds a save) and of the host
    GEMM at the widest block."""
    p, k, length = spec["batch"]
    batch, _labels = train.sample_batch(train_set, p, k, length,
                                        np.random.default_rng(variant))
    inputs = pagcn.descriptor_inputs(net_cfg, batch["joint"], batch["bone"],
                                     batch["angle"])
    blocks = layers.block_microbench(model, inputs, spec["block_reps"])
    save = layers.checkpoint_save(save_path, config, tensors, SAVE_REPS)
    widest = max(max(net_cfg.parts5_channels), net_cfg.larger_channels)
    gemm = layers.gemm_gflop_per_s(p * k, length, widest)
    return {"layers": layer_metrics(tracer, loop, blocks, gemm, save),
            "blocks": blocks, "spans": tracer.spans}


def eval_layers(tracer, loop, frames: int) -> dict:
    """Per-layer metrics of the evaluation workload, from the spans."""
    # the channel-mix product of the widest toy block, 32 sequences
    gemm = layers.gemm_gflop_per_s(32, frames, 32)
    return {"layers": layer_metrics(tracer, loop, [], gemm), "spans": tracer.spans}
