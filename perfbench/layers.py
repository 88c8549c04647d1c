"""Per-layer measurements that need no tracer: analytic FLOP counts,
direct calls into ``pagcn.pagcn_block`` and ``checkpoint.save_container``,
a host GEMM calibration and a walk over the autodiff graph.

Times are process CPU time, as in the worker. FLOPs count multiply-adds
as two and cover the matrix products and the temporal convolution of
each block (elementwise ops, softmax and batch norm are left out), so
``time / flops`` is set against the arithmetic floor of the dominant
work.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from gpgait import checkpoint as ckpt
from gpgait import pagcn
from gpgait.autodiff import Tensor
from gpgait.graph import V


def block_flops(n: int, t: int, c_in: int, c_out: int, subsets: int,
                attention: bool, temporal_kernel: int) -> float:
    """Forward FLOPs of one block on an (n, t, V, c_in) input."""
    per_subset = 2.0 * n * t * c_in * V * V          # joint aggregation
    per_subset += 2.0 * n * t * V * c_in * c_out     # channel mix
    if attention:
        ce = max(c_in // 4, 4)
        per_subset += 2 * 2.0 * n * V * c_in * ce    # query and key
        per_subset += 2.0 * n * V * V * ce           # similarity
    return subsets * per_subset + 2.0 * temporal_kernel * n * t * V * c_out


def network_flops(model, n: int, t: int) -> float:
    """Forward FLOPs of ``network_forward`` at batch n x t frames."""
    cfg = model.config
    total = 0.0
    for bname in cfg.branches:
        for blk in model.branches[bname]:
            total += block_flops(n, t, blk.in_channels, blk.out_channels,
                                 len(blk.subsets), blk.subsets[0].attn_a is not None,
                                 blk.temporal_kernel.shape[0])
    for head in model.heads:
        c, d = head.fc_w.shape
        total += 2.0 * n * c * d + 2.0 * n * d * head.cls_w.shape[1]
    return total


def block_microbench(model, branch_inputs: dict, reps: int) -> list:
    """Forward and backward time of every block, called directly.

    Each block gets the previous block's output as a fresh leaf (so its
    backward stops at its own input) and runs in training mode, as in
    ``train_loop``. Returns one dict per block index with times summed
    over branches (median over ``reps`` calls each) and FLOPs.
    """
    blocks = []
    for bname in model.config.branches:
        x = np.asarray(branch_inputs[bname], dtype=np.float64)
        for j, blk in enumerate(model.branches[bname]):
            fwd, bwd = [], []
            out = None
            for _ in range(reps):
                x_in = Tensor(x, requires_grad=j > 0)
                t0 = time.process_time()
                out = pagcn.pagcn_block(x_in, blk, model.adjacency,
                                        model.masks, training=True)
                t1 = time.process_time()
                out.backward(np.ones_like(out.data))
                t2 = time.process_time()
                fwd.append(t1 - t0)
                bwd.append(t2 - t1)
            for p in model.named_parameters().values():
                p.zero_grad()
            n, t = x.shape[0], x.shape[1]
            gflop = block_flops(n, t, blk.in_channels, blk.out_channels,
                                len(blk.subsets), blk.subsets[0].attn_a is not None,
                                blk.temporal_kernel.shape[0]) / 1e9
            if len(blocks) <= j:
                blocks.append({"fwd_ms": 0.0, "bwd_ms": 0.0, "fwd_gflop": 0.0,
                               "shape": [n, t, blk.in_channels, blk.out_channels]})
            entry = blocks[j]
            entry["fwd_ms"] += statistics.median(fwd) * 1e3
            entry["bwd_ms"] += statistics.median(bwd) * 1e3
            entry["fwd_gflop"] += gflop
            x = out.data
    for entry in blocks:
        entry["fwd_gflop_per_s"] = entry["fwd_gflop"] / (entry["fwd_ms"] / 1e3)
        # backward runs two products per forward product
        entry["bwd_gflop_per_s"] = 2 * entry["fwd_gflop"] / (entry["bwd_ms"] / 1e3)
    return blocks


def checkpoint_save(path: str, config: dict, tensors: dict, reps: int) -> dict:
    """Median time of ``reps`` direct ``save_container`` calls writing
    ``tensors`` to ``path``, and the size of the file written."""
    times = []
    for _ in range(reps):
        t0 = time.process_time()
        ckpt.save_container(path, config, tensors)
        times.append(time.process_time() - t0)
    size = os.path.getsize(path)
    os.remove(path)
    return {"ms": statistics.median(times) * 1e3, "bytes": size}


def gemm_gflop_per_s(n: int, t: int, c: int, seconds: float = 0.3) -> float:
    """float64 rate of the channel-mix product (n, t, V, c) @ (c, c)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, t, V, c))
    b = rng.standard_normal((c, c))
    flop = 2.0 * n * t * V * c * c
    np.matmul(a, b)
    rates = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or len(rates) < 5:
        t0 = time.process_time()
        np.matmul(a, b)
        rates.append(flop / (time.process_time() - t0) / 1e9)
    return statistics.median(rates)


def graph_stats(root: Tensor):
    """(nodes, value bytes, grad bytes) of the graph behind ``root``.

    Returns None when tensors no longer expose ``_parents``, so a
    changed graph structure reads as missing rather than as zero.
    """
    if not hasattr(root, "_parents"):
        return None
    seen = {id(root)}
    stack = [root]
    nodes = value_bytes = grad_bytes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        value_bytes += node.data.nbytes
        if node.grad is not None:
            grad_bytes += np.asarray(node.grad).nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes, value_bytes, grad_bytes
