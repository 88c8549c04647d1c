"""Part-aware graph convolutional network over pose descriptor tensors.

Feature tensors are (N, T, V=17, C). Each block aggregates joints
through a combined adjacency (fixed subsets + a learned matrix + a
per-sequence attention matrix), elementwise-masked to a body-part
partition, then mixes channels, batch-normalizes, applies a temporal
convolution and a residual skip.

The partition mask is applied to the attention logits before the row
softmax as well as to the combined adjacency. This keeps every masked
block strictly block-diagonal: activations at a joint depend only on
inputs at joints of the same part, exactly, which is what the partition
is for (a global softmax denominator would leak information across
parts).

A branch stacks small-part blocks first and wider-part blocks after,
each wider block with its own parameters. Branch outputs are pooled per
body part (mean + max over joints, then max over frames), passed
through one independent head per (branch, part) slot, and concatenated
into the final embedding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tensor, batch_norm_train, block_epilogue, concat,
                       spatial_graph_conv, temporal_conv)
from .errors import ConfigError, DataError
from .graph import PARTS5, V, build_adjacency_subsets, mask_set

BRANCH_CHANNELS = {"joint": 2, "angle": 1, "bone": 2, "fused": 5}

# part-pool order: the five small parts, then the whole body
PART_ORDER = ("head", "left_arm", "right_arm", "left_leg", "right_leg", "body")
PART_GROUPS = {**PARTS5, "body": tuple(range(V))}

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# cap on the widest temporary of a block's inference pass (see pagcn_block)
INFERENCE_GROUP_BYTES = 8 * 2**20


@dataclass(frozen=True)
class NetworkConfig:
    num_classes: int
    branches: tuple = ("joint", "angle", "bone")
    parts5_channels: tuple = (64, 64, 128)
    larger_schemes: tuple = ("upper_lower", "three_groups", "left_right", "global")
    larger_channels: int = 128
    embed_dim: int = 128
    temporal_kernel: int = 3
    attention: bool = True
    use_masks: bool = True
    # optional (scheme name, groups) pairs replacing the built-in
    # partitions; groups are tuples of joint-index tuples
    partition_overrides: tuple = ()

    def __post_init__(self):
        for b in self.branches:
            if b not in BRANCH_CHANNELS:
                raise ConfigError(f"unknown branch {b!r}")
        if not self.parts5_channels:
            raise ConfigError("need at least one small-part block")
        if self.temporal_kernel < 1 or self.temporal_kernel % 2 == 0:
            raise ConfigError("temporal kernel must be odd and >= 1")

    @property
    def num_parts(self) -> int:
        return len(self.branches) * len(PART_ORDER)

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "branches": list(self.branches),
            "parts5_channels": list(self.parts5_channels),
            "larger_schemes": list(self.larger_schemes),
            "larger_channels": self.larger_channels,
            "embed_dim": self.embed_dim,
            "temporal_kernel": self.temporal_kernel,
            "attention": self.attention,
            "use_masks": self.use_masks,
            "partition_overrides": [
                [name, [list(g) for g in groups]]
                for name, groups in self.partition_overrides
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkConfig":
        return NetworkConfig(
            num_classes=int(d["num_classes"]),
            branches=tuple(d["branches"]),
            parts5_channels=tuple(int(c) for c in d["parts5_channels"]),
            larger_schemes=tuple(d["larger_schemes"]),
            larger_channels=int(d["larger_channels"]),
            embed_dim=int(d["embed_dim"]),
            temporal_kernel=int(d["temporal_kernel"]),
            attention=bool(d["attention"]),
            use_masks=bool(d["use_masks"]),
            partition_overrides=tuple(
                (name, tuple(tuple(int(j) for j in g) for g in groups))
                for name, groups in d.get("partition_overrides", ())),
        )


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class SubsetParams:
    weight: Tensor        # (C_in, C_out) channel mix
    learned_adj: Tensor   # (V, V), zero-initialized
    attn_a: Tensor = None  # (C_in, C_e) attention projections
    attn_b: Tensor = None


@dataclass
class BlockParams:
    subsets: list  # list[SubsetParams], one per adjacency subset
    temporal_kernel: Tensor  # (k, C_out)
    bn1: BatchNormParams
    bn2: BatchNormParams
    mask_name: str
    in_channels: int
    out_channels: int


@dataclass
class HeadParams:
    fc_w: Tensor   # (C, D)
    fc_b: Tensor   # (D,)
    bnn: BatchNormParams  # BNNeck over the metric feature
    cls_w: Tensor  # (D, num_classes)


@dataclass
class ModelParams:
    config: NetworkConfig
    branches: dict                # branch name -> list[BlockParams]
    heads: list                   # num_parts HeadParams
    adjacency: np.ndarray         # (K_v, V, V) fixed subsets
    masks: dict = field(default_factory=dict)

    def named_tensors(self) -> dict:
        """Ordered name -> tensor table of the model's state.

        Every trainable parameter comes first as a live ``Tensor``, then
        every running statistic as a live ``ndarray`` (updated in place),
        in checkpoint directory order. This is the one walk over the
        model's structure; parameter lists, checkpoint I/O and the
        no-grad view are all derived from it.
        """
        entries = []

        def bn(prefix, b):
            entries.extend(((f"{prefix}/gamma", b.gamma), (f"{prefix}/beta", b.beta),
                            (f"{prefix}/mean", b.running_mean),
                            (f"{prefix}/var", b.running_var)))

        for bname in self.config.branches:
            for j, blk in enumerate(self.branches[bname]):
                prefix = f"branch/{bname}/block{j}"
                for k, sub in enumerate(blk.subsets):
                    entries.append((f"{prefix}/k{k}/weight", sub.weight))
                    entries.append((f"{prefix}/k{k}/adj", sub.learned_adj))
                    if sub.attn_a is not None:
                        entries.append((f"{prefix}/k{k}/attn_a", sub.attn_a))
                        entries.append((f"{prefix}/k{k}/attn_b", sub.attn_b))
                entries.append((f"{prefix}/tkernel", blk.temporal_kernel))
                bn(f"{prefix}/bn1", blk.bn1)
                bn(f"{prefix}/bn2", blk.bn2)
        for i, head in enumerate(self.heads):
            prefix = f"head/{i:02d}"
            entries.append((f"{prefix}/fc_w", head.fc_w))
            entries.append((f"{prefix}/fc_b", head.fc_b))
            bn(f"{prefix}/bnn", head.bnn)
            entries.append((f"{prefix}/cls_w", head.cls_w))
        params = [e for e in entries if isinstance(e[1], Tensor)]
        buffers = [e for e in entries if not isinstance(e[1], Tensor)]
        return dict(params + buffers)

    def named_parameters(self) -> dict:
        """Ordered name -> Tensor mapping of every trainable tensor."""
        return {name: t for name, t in self.named_tensors().items()
                if isinstance(t, Tensor)}


def _attn_dim(c_in: int) -> int:
    return max(c_in // 4, 4)


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _init_bn(channels: int) -> BatchNormParams:
    return BatchNormParams(
        gamma=Tensor(np.ones(channels), requires_grad=True),
        beta=Tensor(np.zeros(channels), requires_grad=True),
        running_mean=np.zeros(channels),
        running_var=np.ones(channels),
    )


def _init_block(rng, c_in, c_out, mask_name, cfg: NetworkConfig) -> BlockParams:
    subsets = []
    ce = _attn_dim(c_in)
    for _k in range(3):
        sub = SubsetParams(
            weight=Tensor(_uniform(rng, (c_in, c_out), c_in), requires_grad=True),
            learned_adj=Tensor(np.zeros((V, V)), requires_grad=True),
        )
        if cfg.attention:
            sub.attn_a = Tensor(_uniform(rng, (c_in, ce), c_in), requires_grad=True)
            sub.attn_b = Tensor(_uniform(rng, (c_in, ce), c_in), requires_grad=True)
        subsets.append(sub)
    k = cfg.temporal_kernel
    return BlockParams(
        subsets=subsets,
        temporal_kernel=Tensor(_uniform(rng, (k, c_out), k), requires_grad=True),
        bn1=_init_bn(c_out),
        bn2=_init_bn(c_out),
        mask_name=mask_name,
        in_channels=c_in,
        out_channels=c_out,
    )


def init_model(cfg: NetworkConfig, seed: int = 0) -> ModelParams:
    """Build a model with seeded parameter initialization.

    Learned adjacencies start at zero so an untrained model behaves
    like the plain predefined-graph network; mix weights use fan-in
    scaled uniform init.
    """
    rng = np.random.default_rng(seed)
    branches = {}
    for bname in cfg.branches:
        blocks = []
        c_in = BRANCH_CHANNELS[bname]
        for c_out in cfg.parts5_channels:
            blocks.append(_init_block(rng, c_in, c_out, "parts5", cfg))
            c_in = c_out
        for scheme in cfg.larger_schemes:
            blocks.append(_init_block(rng, c_in, cfg.larger_channels, scheme, cfg))
            c_in = cfg.larger_channels
        branches[bname] = blocks
    final_c = cfg.larger_channels if cfg.larger_schemes else cfg.parts5_channels[-1]
    heads = []
    for _ in range(cfg.num_parts):
        heads.append(HeadParams(
            fc_w=Tensor(_uniform(rng, (final_c, cfg.embed_dim), final_c),
                        requires_grad=True),
            fc_b=Tensor(np.zeros(cfg.embed_dim), requires_grad=True),
            bnn=_init_bn(cfg.embed_dim),
            cls_w=Tensor(_uniform(rng, (cfg.embed_dim, cfg.num_classes),
                                  cfg.embed_dim), requires_grad=True),
        ))
    masks = mask_set()
    for name, groups in cfg.partition_overrides:
        from .graph import PartitionScheme, build_partition_mask
        masks[name] = build_partition_mask(PartitionScheme(name, groups))
    if not cfg.use_masks:
        masks = {name: np.ones_like(m) for name, m in masks.items()}
    # distinct-tensor construction contract: no tensor object shared
    model = ModelParams(config=cfg, branches=branches, heads=heads,
                        adjacency=build_adjacency_subsets(), masks=masks)
    seen = set()
    for name, t in model.named_tensors().items():
        if id(t) in seen:
            raise ConfigError(f"tensor {name} aliases another tensor")
        seen.add(id(t))
    return model


# -- forward ops ------------------------------------------------------


def _check_channels(f_in: Tensor, block: BlockParams):
    if f_in.shape[-1] != block.in_channels:
        raise DataError(
            f"spatial conv expects {block.in_channels} channels, got {f_in.shape[-1]}")


def pagcn_spatial(f_in: Tensor, block: BlockParams, adjacency: np.ndarray,
                  mask: np.ndarray) -> Tensor:
    """Masked graph aggregation and channel mixing, summed over the
    adjacency subsets, as one ``spatial_graph_conv`` node: attention,
    the combined (fixed + learned + attention) adjacency of every subset,
    its mask and the graph conv."""
    _check_channels(f_in, block)
    subs = block.subsets
    attention = subs[0].attn_a is not None
    return spatial_graph_conv(
        f_in, adjacency, mask, [s.learned_adj for s in subs],
        [s.weight for s in subs],
        [s.attn_a for s in subs] if attention else (),
        [s.attn_b for s in subs] if attention else ())


def _update_running(bn: BatchNormParams, mu: np.ndarray, var: np.ndarray):
    """Fold batch statistics into the running averages, in place, so the
    state table's references stay live."""
    for stat, batch_stat in ((bn.running_mean, mu), (bn.running_var, var)):
        stat *= BN_MOMENTUM
        stat += (1.0 - BN_MOMENTUM) * batch_stat


def _folded(bn: BatchNormParams):
    """Inference batch norm as ``x * scale + shift``."""
    scale = bn.gamma.data / np.sqrt(bn.running_var + BN_EPS)
    return scale, bn.beta.data - bn.running_mean * scale


def batch_norm(x: Tensor, bn: BatchNormParams, axes: tuple, training: bool,
               update_stats: bool = True) -> Tensor:
    """Per-channel normalization over the given axes (channel = last axis).

    Training mode normalizes with batch statistics and optionally folds
    them into the running averages; inference mode uses the stored
    running statistics.
    """
    if training:
        out, mu, var = batch_norm_train(x, bn.gamma, bn.beta, axes, BN_EPS)
        if update_stats:
            _update_running(bn, mu, var)
        return out
    xhat = (x - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
    return xhat * bn.gamma + bn.beta


def pagcn_block(f_in: Tensor, block: BlockParams, adjacency: np.ndarray,
                masks: dict, training: bool = False,
                update_stats: bool = True) -> Tensor:
    """spatial -> norm -> relu -> temporal -> norm -> relu -> residual.

    Training builds two nodes, ``pagcn_spatial`` and ``block_epilogue``,
    and with ``update_stats`` folds both batch norms' statistics into
    their running averages once. Inference builds no graph: each batch
    norm is folded into the linear op before it (the stacked graph-conv
    weights and the temporal kernel are scaled by
    ``gamma / sqrt(running_var + eps)``, the shift
    ``beta - running_mean * scale`` is added after), shift, ReLU and
    residual run in place, and the block runs over groups of sequences
    (independent once batch norm uses running statistics) so that its
    widest buffer, the aggregated (T, V*K, C_in) features of a group,
    stays within ``INFERENCE_GROUP_BYTES`` unless one sequence alone
    exceeds it.
    """
    mask = masks[block.mask_name]
    residual = block.in_channels == block.out_channels
    if training:
        y = pagcn_spatial(f_in, block, adjacency, mask)
        out, stats1, stats2 = block_epilogue(
            y, block.bn1.gamma, block.bn1.beta, block.temporal_kernel,
            block.bn2.gamma, block.bn2.beta, BN_EPS, f_in if residual else None)
        if update_stats:
            _update_running(block.bn1, *stats1)
            _update_running(block.bn2, *stats2)
        return out
    _check_channels(f_in, block)
    scale1, shift1 = _folded(block.bn1)
    scale2, shift2 = _folded(block.bn2)
    subs = block.subsets
    learned = [Tensor(s.learned_adj.data) for s in subs]
    weights = [Tensor(s.weight.data * scale1) for s in subs]
    attention = ((), ())
    if subs[0].attn_a is not None:
        attention = ([Tensor(s.attn_a.data) for s in subs],
                     [Tensor(s.attn_b.data) for s in subs])
    kernel = Tensor(block.temporal_kernel.data * scale2)
    n, t, v, c_in = f_in.shape
    out = np.empty((n, t, v, block.out_channels))
    group = max(1, INFERENCE_GROUP_BYTES // (t * v * len(subs) * c_in * 8))
    for i in range(0, n, group):
        f = f_in.data[i:i + group]
        y = spatial_graph_conv(Tensor(f), adjacency, mask, learned, weights,
                               *attention).data
        y += shift1
        np.maximum(y, 0.0, out=y)
        z = temporal_conv(Tensor(y), kernel).data
        z += shift2
        np.maximum(z, 0.0, out=z)
        if residual:
            z += f
        out[i:i + group] = z
    return Tensor(out)


def branch_forward(x: Tensor, blocks: list, adjacency: np.ndarray,
                   masks: dict, training: bool = False,
                   update_stats: bool = True) -> Tensor:
    for block in blocks:
        x = pagcn_block(x, block, adjacency, masks, training, update_stats)
    return x


def part_pool(f_m: Tensor, groups=None) -> Tensor:
    """(N, T, V, C) -> (N, T, P, C): mean + max over each part's joints,
    for the five small parts and the whole body."""
    if groups is None:
        groups = [PART_GROUPS[name] for name in PART_ORDER]
    pooled = []
    for g in groups:
        if len(g) == 0:
            raise DataError("empty part group")
        sub = f_m.take(np.asarray(g), axis=2)
        v = sub.mean(axis=2) + sub.max(axis=2)
        n, t, c = v.shape
        pooled.append(v.reshape(n, t, 1, c))
    return concat(pooled, axis=2)


def temporal_pool(f_vp: Tensor) -> Tensor:
    """(N, T, P, C) -> (N, P, C): elementwise max over frames."""
    return f_vp.max(axis=1)


def per_part_head(vec: Tensor, head: HeadParams, training: bool,
                  update_stats: bool = True):
    """(N, C) -> metric feature (N, D) and classifier logits (N, K)."""
    metric = vec @ head.fc_w + head.fc_b
    necked = batch_norm(metric, head.bnn, (0,), training, update_stats)
    logits = necked @ head.cls_w
    return metric, logits


@dataclass
class ForwardResult:
    metrics: list    # num_parts tensors of (N, D)
    logits: list     # num_parts tensors of (N, num_classes)
    part_names: list
    captures: dict = field(default_factory=dict)

    def embedding_matrix(self) -> np.ndarray:
        """(N, num_parts, D) array of metric features."""
        return np.stack([m.data for m in self.metrics], axis=1)


def descriptor_inputs(cfg: NetworkConfig, joint, bone, angle) -> dict:
    """Map descriptor arrays to per-branch input tensors (N, T, V, C)."""
    inputs = {"joint": joint, "bone": bone, "angle": angle}
    out = {}
    for bname in cfg.branches:
        if bname == "fused":
            out[bname] = np.concatenate([joint, angle, bone], axis=-1)
        else:
            out[bname] = inputs[bname]
    return out


def network_forward(model: ModelParams, branch_inputs: dict,
                    training: bool = False, update_stats: bool = True,
                    capture: bool = False) -> ForwardResult:
    """Full network: branches -> pooling -> per-part heads.

    branch_inputs maps branch name to an (N, T, V, C) array or Tensor.
    Slot order is branch-major: all six parts of the first configured
    branch, then the next branch, and so on.
    """
    cfg = model.config
    metrics, logits, part_names = [], [], []
    captures = {}
    head_idx = 0
    for bname in cfg.branches:
        x = branch_inputs[bname]
        if not isinstance(x, Tensor):
            x = Tensor(x)
        expect = BRANCH_CHANNELS[bname]
        if x.shape[-1] != expect or x.shape[2] != V:
            raise DataError(
                f"branch {bname!r} expects (N,T,{V},{expect}), got {x.shape}")
        f_m = branch_forward(x, model.branches[bname], model.adjacency,
                             model.masks, training, update_stats)
        if capture:
            captures[f"f_m/{bname}"] = f_m.data.copy()
        pooled = temporal_pool(part_pool(f_m))   # (N, P, C)
        for p, pname in enumerate(PART_ORDER):
            vec = pooled[:, p, :]
            metric, logit = per_part_head(vec, model.heads[head_idx],
                                          training, update_stats)
            metrics.append(metric)
            logits.append(logit)
            part_names.append(f"{bname}/{pname}")
            head_idx += 1
    return ForwardResult(metrics=metrics, logits=logits,
                         part_names=part_names, captures=captures)


def detached_view(model: ModelParams) -> ModelParams:
    """Model sharing the same arrays but with gradient tracking off.

    Forward passes through the view build no graph, which keeps
    inference cheap. Running statistics are shared (do not update them
    through a view).
    """
    memo = {id(t): Tensor(t.data) if isinstance(t, Tensor) else t
            for t in model.named_tensors().values()}
    for shared in (model.config, model.adjacency, model.masks):
        memo[id(shared)] = shared
    return copy.deepcopy(model, memo)


def with_masks(model: ModelParams, mask_override: dict) -> ModelParams:
    """Same parameters, different partition masks (e.g. all ones)."""
    return ModelParams(config=model.config, branches=model.branches,
                       heads=model.heads, adjacency=model.adjacency,
                       masks=mask_override)


# -- checkpoint glue --------------------------------------------------


def model_tensors(model: ModelParams) -> dict:
    """Parameters then buffers as arrays, in canonical directory order.

    The arrays are the model's own: copy them to keep a snapshot.
    """
    return {name: (t.data if isinstance(t, Tensor) else t)
            for name, t in model.named_tensors().items()}


def load_model_tensors(model: ModelParams, tensors: dict):
    """Copy checkpoint arrays into the model, validating shapes."""
    for name, t in model.named_tensors().items():
        if name not in tensors:
            raise DataError(f"checkpoint missing tensor {name}")
        arr = tensors[name]
        current = t.data if isinstance(t, Tensor) else t
        if tuple(arr.shape) != tuple(current.shape):
            raise DataError(
                f"tensor {name}: checkpoint shape {arr.shape} != model {current.shape}")
        if isinstance(t, Tensor):
            t.data = arr.astype(np.float64, copy=True)
        else:
            t[...] = arr
