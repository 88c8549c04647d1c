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
through one head per (branch, part) slot, and concatenated into the
final embedding. Each slot keeps its own head parameters.
In training every block is one autodiff node, every branch's pooling
one more, and the heads of all slots two: the fc layer, then BNNeck and
classifier (``part_heads``). Every parameter lives in one arena
(``autodiff.Arena``) laid out by role, so a node reads a role's stacked
parameters as one view and the optimizer steps them as flat arrays.
At inference the branches and pooling run over chunks of whole
sequences, the heads once over all of them, and the network stops at
the metric features (``metric_features``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (Arena, Tensor, _attention, _frame_buffer,
                       _stacked_adjacency, _temporal_conv, bnneck_classifier,
                       graph_block, group_pool, slot_fc, stacked_data)
from . import hot
from .errors import ConfigError, DataError
from .graph import PARTS5, V, build_adjacency_subsets, mask_set

BRANCH_CHANNELS = {"joint": 2, "angle": 1, "bone": 2, "fused": 5}

# part-pool order: the five small parts, then the whole body
PART_ORDER = ("head", "left_arm", "right_arm", "left_leg", "right_leg", "body")
# joints of each part-pool slot, in PART_ORDER
PART_GROUPS = tuple(PARTS5[name] for name in PART_ORDER[:-1]) + (tuple(range(V)),)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# cap on the working set of one group of sequences in a block's inference
# pass, sized to stay in a core's L2 cache (see _inference_block)
INFERENCE_GROUP_BYTES = 1 * 2**20


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
    # partitions; groups are tuples of joint-index tuples. No config key
    # of its own: graph.partition.<scheme> keys set it
    partition_overrides: tuple = field(default=(), metadata={"key": None})

    def __post_init__(self):
        if not self.branches:
            raise ConfigError("need at least one branch")
        for i, b in enumerate(self.branches):
            if b not in BRANCH_CHANNELS:
                raise ConfigError(f"unknown branch {b!r}")
            if b in self.branches[:i]:
                raise ConfigError(f"branch {b!r} listed twice")
        if not self.parts5_channels:
            raise ConfigError("need at least one small-part block")
        if min(*self.parts5_channels, self.larger_channels, self.embed_dim) < 1:
            raise ConfigError("channel counts and embed_dim must be at least 1")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be at least 1, got {self.num_classes}")
        schemes = mask_set(self.partition_overrides)   # checks every scheme
        for scheme in self.larger_schemes:
            if scheme not in schemes:
                raise ConfigError(f"unknown partition scheme {scheme!r}")
        if self.temporal_kernel < 1 or self.temporal_kernel % 2 == 0:
            raise ConfigError("temporal kernel must be odd and >= 1")

    @property
    def num_parts(self) -> int:
        return len(self.branches) * len(PART_ORDER)

    def to_dict(self) -> dict:
        return asdict(self)


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
        model's structure; parameter lists and checkpoint I/O are derived
        from it.
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


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False       # so every placeholder is read-only


class _DeferredDraws:
    """Stands in for the generator while ``_placed_model`` builds the
    model's structure: each ``uniform`` call is recorded and answered
    with a zero-stride placeholder of its shape, so no parameter array
    exists before the arena does."""

    def __init__(self):
        self.calls = []

    def uniform(self, low, high, size):
        placeholder = np.ndarray(size, buffer=_ZERO, strides=(0,) * len(size))
        self.calls.append((placeholder, low, high))
        return placeholder


def init_model(cfg: NetworkConfig, seed: int = 0) -> ModelParams:
    """Build a model with seeded parameter initialization.

    Learned adjacencies start at zero so an untrained model behaves
    like the plain predefined-graph network; mix weights use fan-in
    scaled uniform init.

    Every parameter is placed in one arena (``_arena_groups``). The
    structure is built first with the draws deferred (``_placed_model``);
    then each draw is made, with the same generator calls in the same
    order, straight into its tensor's arena view, so no second copy of
    the parameters is ever held.
    """
    model, draws = _placed_model(cfg)
    generator = np.random.default_rng(seed)
    for t, low, high in draws:
        t.data[...] = generator.uniform(low, high, size=t.shape)
    return model


def blank_model(cfg: NetworkConfig) -> ModelParams:
    """The model ``init_model`` builds, with the parameters it draws at
    random left at 0: for a checkpoint to be loaded into
    (``load_model_tensors`` sets every tensor), so no draw is wasted."""
    return _placed_model(cfg)[0]


def _placed_model(cfg: NetworkConfig):
    """(model, deferred draws): the model's structure with every
    parameter placed in its arena, the randomly drawn ones at 0, and
    for each of their draws, in generator order, (tensor, low, high)."""
    rng = _DeferredDraws()
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
    # distinct-tensor construction contract: no tensor object shared
    model = ModelParams(config=cfg, branches=branches, heads=heads,
                        adjacency=build_adjacency_subsets(),
                        masks=mask_set(cfg.partition_overrides, cfg.use_masks))
    seen = set()
    for name, t in model.named_tensors().items():
        if id(t) in seen:
            raise ConfigError(f"tensor {name} aliases another tensor")
        seen.add(id(t))
    owners = {id(t.data): t for t in model.named_parameters().values()}
    Arena(_arena_groups(model))
    return model, [(owners[id(placeholder)], low, high)
                   for placeholder, low, high in rng.calls]


def _arena_groups(model: ModelParams) -> list:
    """The regions of a model's parameter arena, role-major: per block
    its K subset weights (whose stack reshapes to the (K*C_in, C_out)
    channel mix), its K learned adjacencies, its K query and its K key
    projections, then its temporal kernel and batch-norm parameters one
    each; then each head role's slots."""
    groups = []
    for bname in model.config.branches:
        for blk in model.branches[bname]:
            subs = blk.subsets
            groups += [[s.weight for s in subs], [s.learned_adj for s in subs]]
            if subs[0].attn_a is not None:
                groups += [[s.attn_a for s in subs], [s.attn_b for s in subs]]
            groups += [[t] for t in (blk.temporal_kernel, blk.bn1.gamma,
                                     blk.bn1.beta, blk.bn2.gamma, blk.bn2.beta)]
    heads = model.heads
    return groups + [[h.fc_w for h in heads], [h.fc_b for h in heads],
                     [h.bnn.gamma for h in heads], [h.bnn.beta for h in heads],
                     [h.cls_w for h in heads]]


# -- forward ops ------------------------------------------------------


def _check_channels(f_in: Tensor, block: BlockParams):
    if f_in.shape[-1] != block.in_channels:
        raise DataError(
            f"spatial conv expects {block.in_channels} channels, got {f_in.shape[-1]}")


def _spatial_params(block: BlockParams) -> tuple:
    """(learned adjacencies, weights, attention queries, attention keys)
    of a block's subsets, as ``graph_block`` takes them."""
    subs = block.subsets
    if subs[0].attn_a is None:
        return [s.learned_adj for s in subs], [s.weight for s in subs], (), ()
    return ([s.learned_adj for s in subs], [s.weight for s in subs],
            [s.attn_a for s in subs], [s.attn_b for s in subs])


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


def _group_bytes_per_sequence(shape: tuple, block: BlockParams) -> int:
    """Bytes one sequence of an (N, T, V, C_in) input adds to a group's
    working set in a block's inference pass: its input and output
    slices, its aggregated (T, V*K, C_in) features and its
    (T + 2*(k//2), V, C_out) zero-padded frames, which hold ``y`` and
    the first ReLU's output."""
    _n, t, v, c_in = shape
    k, c_out = len(block.subsets), block.out_channels
    padded_t = t + 2 * (block.temporal_kernel.shape[0] // 2)
    return 8 * v * (t * (c_in + k * c_in + c_out) + padded_t * c_out)


def _inference_group(shape: tuple, block: BlockParams) -> int:
    """Sequences per group of a block's inference pass: as many as keep
    the group's working set within ``INFERENCE_GROUP_BYTES``, at least
    one, at most N."""
    fit = INFERENCE_GROUP_BYTES // _group_bytes_per_sequence(shape, block)
    return max(1, min(shape[0], fit))


def _inference_block(f: np.ndarray, block: BlockParams, adjacency: np.ndarray,
                     mask: np.ndarray, residual: bool) -> np.ndarray:
    """Inference pass of ``pagcn_block`` on an (N, T, V, C_in) array.

    The stacked adjacency (with attention, one per sequence) is built
    once for all N sequences and both batch norms are folded once: the
    stacked graph-conv weights are scaled by the first, the temporal
    kernel by the second. Sequences are then independent, and run in
    L2-sized groups (``_inference_group``) through buffers allocated
    once per call. The aggregate is written by an ``out=`` product, and
    ``y`` by one ``out=`` product per sequence straight into the interior
    of a zero-padded frame buffer (``autodiff._frame_buffer``), where
    shift and ReLU run in place. The temporal convolution is one
    contraction over that buffer's taps (``autodiff._temporal_conv``),
    written straight into the group's slice of the output, where the
    second shift, ReLU and the residual run in place too. Per-channel
    vectors and kernel taps are tiled over the joints, so each broadcast
    runs along (V*C) rows.
    """
    n, t, v, c_in = f.shape
    learned, weights, attn_q, attn_k = _spatial_params(block)
    k, c_out = len(weights), block.out_channels
    stacked = _stacked_adjacency(
        adjacency, mask, learned,
        _attention(f, attn_q, attn_k, mask)[1] if attn_q else None)
    per_sequence = stacked.ndim == 4
    scale1, shift1 = _folded(block.bn1)
    scale2, shift2 = _folded(block.bn2)
    weight = stacked_data(weights).reshape(k * c_in, c_out) * scale1
    kernel = np.tile(block.temporal_kernel.data * scale2, (1, v))
    shift1, shift2 = np.tile(shift1, v), np.tile(shift2, v)
    g = _inference_group(f.shape, block)
    agg = np.empty((g, t, v * k, c_in))
    padded, frames = _frame_buffer((g, t, v * c_out), kernel.shape[0])
    out = np.empty((n, t, v, c_out))
    for i in range(0, n, g):
        m = min(g, n - i)
        a, h, z = agg[:m], frames[:m], out[i:i + m].reshape(m, t, v * c_out)
        np.matmul(stacked[i:i + m] if per_sequence else stacked, f[i:i + m], out=a)
        np.matmul(a.reshape(m, t * v, k * c_in), weight,
                  out=h.reshape(m, t * v, c_out))
        h += shift1
        np.maximum(h, 0.0, out=h)
        _temporal_conv(padded[:m], kernel, out=z)
        z += shift2
        np.maximum(z, 0.0, out=z)
        if residual:
            z += f[i:i + m].reshape(z.shape)
    return out


def pagcn_block(f_in: Tensor, block: BlockParams, adjacency: np.ndarray,
                masks: dict, training: bool = False) -> Tensor:
    """spatial -> norm -> relu -> temporal -> norm -> relu -> residual.

    Training builds one ``graph_block`` node, which keeps only the block
    input, the stacked adjacency, the batch norms' (C,) statistics and,
    with attention, the pooled features and the attention for backward,
    and folds both batch norms' statistics into their
    running averages once. Inference builds no graph and leaves the
    running statistics as they are: each batch norm is folded into the
    linear op before it (the stacked graph-conv weights and the temporal
    kernel are scaled by ``gamma / sqrt(running_var + eps)``, the shift
    ``beta - running_mean * scale`` is added after), and the block runs
    as one array kernel over groups of sequences (independent once batch
    norm uses running statistics) whose working set stays within
    ``INFERENCE_GROUP_BYTES`` unless one sequence alone exceeds it
    (``_inference_block``).
    """
    mask = masks[block.mask_name]
    residual = block.in_channels == block.out_channels
    _check_channels(f_in, block)
    if training:
        out, stats1, stats2 = graph_block(
            f_in, adjacency, mask, *_spatial_params(block), block.bn1.gamma,
            block.bn1.beta, block.temporal_kernel, block.bn2.gamma,
            block.bn2.beta, BN_EPS, residual)
        _update_running(block.bn1, *stats1)
        _update_running(block.bn2, *stats2)
        return out
    return Tensor(_inference_block(f_in.data, block, adjacency, mask, residual))


def branch_forward(x: Tensor, blocks: list, adjacency: np.ndarray,
                   masks: dict, training: bool = False) -> Tensor:
    for block in blocks:
        x = pagcn_block(x, block, adjacency, masks, training)
    return x


def part_pool(f_m: Tensor) -> Tensor:
    """(N, T, V, C) -> (N, P, C): mean + max over each part's joints,
    for the five small parts and the whole body, then the max over
    frames, as one node."""
    return group_pool(f_m, PART_GROUPS)


def part_heads(pools: list, heads: list):
    """Training: the branches' (N, P, C) pooled slots -> metric features
    (S, N, D) and classifier logits (S, N, K), every slot through its own
    head, as two nodes: the fc layer (``autodiff.slot_fc``), then the
    BNNeck and the classifier (``autodiff.bnneck_classifier``), which
    read the slots' parameters as views of their arena regions in a model
    from ``init_model``. The BNNeck's batch statistics are folded into
    each slot's running averages. Inference stops at the metric features
    (``metric_features``).
    """
    metric = slot_fc(pools, [h.fc_w for h in heads], [h.fc_b for h in heads])
    logits, mu, var = bnneck_classifier(
        metric, [h.bnn.gamma for h in heads], [h.bnn.beta for h in heads],
        [h.cls_w for h in heads], BN_EPS)
    for head, mu_h, var_h in zip(heads, mu, var):
        _update_running(head.bnn, mu_h, var_h)
    return metric, logits


@dataclass
class ForwardResult:
    metrics: Tensor  # (num_parts, N, D)
    logits: Tensor   # (num_parts, N, num_classes); None at inference

    def embedding_matrix(self) -> np.ndarray:
        """(N, num_parts, D) array of metric features."""
        return self.metrics.data.transpose(1, 0, 2)


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


def _sequence_chunks(n: int, t: int) -> list:
    """(start, stop) rows of the chunks an inference forward runs N
    sequences of T frames in: the fewest chunks of whole sequences of at
    most ``hot.CHUNK_FRAMES`` frames, split evenly (their sizes differ by
    at most one); a sequence longer than that is a chunk of its own."""
    chunks = max(1, -(-n // max(1, hot.CHUNK_FRAMES // max(1, t))))
    return [(i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)]


def pooled_slots(model: ModelParams, branch_inputs: dict,
                 training: bool = False) -> list:
    """Per branch, in config order, its (N, P, C) pooled slots: its
    blocks, then its part pooling. ``branch_inputs`` maps branch name to
    an (N, T, V, C) array or Tensor."""
    cfg = model.config
    slots = []
    for bname in cfg.branches:
        x = branch_inputs[bname]
        if not isinstance(x, Tensor):
            x = Tensor(x)
        expect = BRANCH_CHANNELS[bname]
        if x.shape[-1] != expect or x.shape[2] != V:
            raise DataError(
                f"branch {bname!r} expects (N,T,{V},{expect}), got {x.shape}")
        slots.append(part_pool(branch_forward(x, model.branches[bname],
                                              model.adjacency, model.masks,
                                              training)))
    return slots


def metric_features(model: ModelParams, n: int, t: int, chunk_inputs,
                    out: np.ndarray = None) -> np.ndarray:
    """(N, S, D) metric features of N sequences of T frames, inference.

    ``chunk_inputs(lo, hi)`` gives the branch inputs of sequences lo to
    hi, as ``pooled_slots`` takes them. Blocks and pooling run over the
    chunks of ``_sequence_chunks`` into one (N, S, C) array, slots
    branch-major, so the
    inputs, block outputs, stacked adjacencies and pooling temporaries
    stay chunk-sized. The heads then run once over all N rows: slot by
    slot, the fc product is written into ``out`` (a new array if None),
    then the biases are added in place. These are the products and sums
    of one batched matmul over the same rows, so the features do not
    depend on the chunks. No BNNeck and no classifier product run:
    nothing reads inference logits.
    """
    pooled = None
    for lo, hi in _sequence_chunks(n, t):
        chunk = pooled_slots(model, chunk_inputs(lo, hi))
        if pooled is None:
            p, c = chunk[0].shape[1:]
            pooled = np.empty((n, p * len(chunk), c))
        for b, part in enumerate(chunk):
            pooled[lo:hi, b * p:(b + 1) * p] = part.data
    if out is None:
        out = np.empty((n, len(model.heads), model.config.embed_dim))
    for slot, head in enumerate(model.heads):
        np.matmul(pooled[:, slot], head.fc_w.data, out=out[:, slot])
    out += stacked_data([head.fc_b for head in model.heads])
    return out


def network_forward(model: ModelParams, branch_inputs: dict,
                    training: bool = False) -> ForwardResult:
    """Full network: branches -> pooling -> per-part heads.

    branch_inputs maps branch name to an (N, T, V, C) array or Tensor.
    Slot order is branch-major: all six parts of the first configured
    branch, then the next branch, and so on. Training returns the metric
    features and the classifier logits (``part_heads``) and never
    chunks: its batch norms use the whole batch's statistics. Inference
    builds no graph, even from a model whose parameters require
    gradients, and returns the metric features only, through
    ``metric_features`` over slices of the inputs (``logits`` is None).
    """
    if training:
        metrics, logits = part_heads(pooled_slots(model, branch_inputs, True),
                                     model.heads)
        return ForwardResult(metrics=metrics, logits=logits)
    arrays = {b: x.data if isinstance(x, Tensor) else np.asarray(x)
              for b, x in branch_inputs.items()}
    n, t = arrays[model.config.branches[0]].shape[:2]
    features = metric_features(
        model, n, t, lambda lo, hi: {b: x[lo:hi] for b, x in arrays.items()})
    return ForwardResult(metrics=Tensor(features.transpose(1, 0, 2)), logits=None)


# -- checkpoint glue --------------------------------------------------


def model_tensors(model: ModelParams) -> dict:
    """Parameters then buffers as arrays, in canonical directory order.

    The arrays are the model's own: copy them to keep a snapshot.
    """
    return {name: (t.data if isinstance(t, Tensor) else t)
            for name, t in model.named_tensors().items()}


def load_model_tensors(model: ModelParams, tensors: dict):
    """Copy checkpoint arrays into the model's own arrays, validating
    shapes: parameters into their ``data`` (their arena views in a model
    from ``init_model``, which stay in place), running statistics into
    theirs."""
    for name, t in model.named_tensors().items():
        if name not in tensors:
            raise DataError(f"checkpoint missing tensor {name}")
        arr = tensors[name]
        current = t.data if isinstance(t, Tensor) else t
        if tuple(arr.shape) != tuple(current.shape):
            raise DataError(
                f"tensor {name}: checkpoint shape {arr.shape} != model {current.shape}")
        current[...] = arr
