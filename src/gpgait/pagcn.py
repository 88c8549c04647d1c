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
classifier (``part_heads``). Each kind of parameter of a block (its K
subsets stacked) or of the heads (their S slots stacked) is one role
(``autodiff.Role``), all in one arena (``autodiff.Arena``): a node reads
a role as one array and the optimizer steps the arena as flat arrays.
Checkpoints name every subset's and slot's parameters on their own;
``Slot`` views reach them.
At inference the branches and pooling run over chunks of whole
sequences, the heads once over all of them, and the network stops at
the metric features (``metric_features``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (Arena, Role, Tensor, _attention, _frame_buffer,
                       _stacked_adjacency, _temporal_conv, _tiled, bnneck_classifier,
                       graph_block, group_pool, slot_fc)
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


class Slot:
    """Index ``k`` of a role (``autodiff.Role``): the parameter of one
    adjacency subset or one head slot, as checkpoints name it. Its
    ``data`` and ``grad`` are views of the role's, so it holds no state
    of its own; ``zero_grad`` drops the role's gradient."""

    __slots__ = ("role", "k")

    def __init__(self, role: Tensor, k: int):
        self.role, self.k = role, k

    @property
    def data(self) -> np.ndarray:
        return self.role.data[self.k]

    @property
    def grad(self):
        grad = self.role.grad
        return None if grad is None else grad[self.k]

    @property
    def shape(self):
        return self.role.shape[1:]

    def zero_grad(self):
        self.role.zero_grad()

    def view(self, flat: np.ndarray) -> np.ndarray:
        """This slot's place in ``flat``, an array of its arena's layout."""
        return self.role.view(flat)[self.k]


@dataclass
class SubsetParams:
    """One adjacency subset's parameters, as ``Slot`` views."""
    weight: Slot        # (C_in, C_out) channel mix
    learned_adj: Slot   # (V, V), zero-initialized
    attn_a: Slot        # (C_in, C_e) attention projections, or None
    attn_b: Slot


@dataclass
class BlockParams:
    """A block's parameters, one role each; the K adjacency subsets'
    share the first axis of their roles."""
    weight: Tensor           # (K, C_in, C_out) channel mix
    learned_adj: Tensor      # (K, V, V), zero-initialized
    attn_a: Tensor           # (K, C_in, C_e) attention projections, or None
    attn_b: Tensor
    temporal_kernel: Tensor  # (k, C_out)
    bn1: BatchNormParams
    bn2: BatchNormParams
    mask_name: str
    in_channels: int
    out_channels: int

    @property
    def subsets(self) -> list:
        """Per adjacency subset, its parameters as ``Slot`` views."""
        attn = self.attn_a is not None
        return [SubsetParams(Slot(self.weight, k), Slot(self.learned_adj, k),
                             Slot(self.attn_a, k) if attn else None,
                             Slot(self.attn_b, k) if attn else None)
                for k in range(self.weight.shape[0])]

    def roles(self) -> list:
        return [r for r in (self.weight, self.learned_adj, self.attn_a, self.attn_b,
                            self.temporal_kernel, self.bn1.gamma, self.bn1.beta,
                            self.bn2.gamma, self.bn2.beta) if r is not None]


@dataclass
class HeadParams:
    """One (branch, part) slot's head as ``Heads`` gives it: ``Slot``
    views, and rows of the BNNeck's running statistics."""
    fc_w: Slot   # (C, D)
    fc_b: Slot   # (D,)
    bnn: BatchNormParams  # BNNeck over the metric feature
    cls_w: Slot  # (D, num_classes)


@dataclass
class Heads:
    """The heads of all S (branch, part) slots, one role per parameter
    with the slots along its first axis; ``heads[i]`` is slot i's head
    (``HeadParams``)."""
    fc_w: Tensor   # (S, C, D)
    fc_b: Tensor   # (S, D)
    bnn: BatchNormParams  # BNNeck: (S, D) affines and running statistics
    cls_w: Tensor  # (S, D, num_classes)

    def __len__(self) -> int:
        return self.fc_w.shape[0]

    def __getitem__(self, i: int) -> HeadParams:
        bnn = self.bnn
        return HeadParams(Slot(self.fc_w, i), Slot(self.fc_b, i),
                          BatchNormParams(Slot(bnn.gamma, i), Slot(bnn.beta, i),
                                          bnn.running_mean[i], bnn.running_var[i]),
                          Slot(self.cls_w, i))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def roles(self) -> list:
        return [self.fc_w, self.fc_b, self.bnn.gamma, self.bnn.beta, self.cls_w]


@dataclass
class ModelParams:
    config: NetworkConfig
    branches: dict                # branch name -> list[BlockParams]
    heads: Heads
    adjacency: np.ndarray         # (K, V, V) fixed subsets
    masks: dict = field(default_factory=dict)

    def blocks(self) -> list:
        """Every block, branch by branch in config order."""
        return [blk for bname in self.config.branches for blk in self.branches[bname]]

    def roles(self) -> list:
        """Every parameter role, in arena order: block by block its
        subset weights, learned adjacencies, attention projections,
        temporal kernel and batch-norm affines; then the heads' fc
        weights and biases, BNNeck affines and classifiers."""
        return [r for blk in self.blocks() for r in blk.roles()] + self.heads.roles()

    @property
    def arena(self) -> Arena:
        return self.heads.fc_w.arena

    def named_tensors(self) -> dict:
        """Ordered name -> tensor table of the model's state.

        Every trainable parameter comes first, then every running
        statistic as a live ``ndarray`` (updated in place), in checkpoint
        directory order. A parameter is its role when the role is one
        tensor (a temporal kernel, a block's batch-norm affine), or its
        ``Slot`` of the role. This is the one walk over the model's
        names; parameter lists and checkpoint I/O are derived from it.
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
        params = [e for e in entries if not isinstance(e[1], np.ndarray)]
        buffers = [e for e in entries if isinstance(e[1], np.ndarray)]
        return dict(params + buffers)

    def named_parameters(self) -> dict:
        """Ordered name -> parameter (a role or a ``Slot``) mapping of
        every trainable tensor."""
        return {name: t for name, t in self.named_tensors().items()
                if not isinstance(t, np.ndarray)}


def _attn_dim(c_in: int) -> int:
    return max(c_in // 4, 4)


def _bn(shape) -> BatchNormParams:
    return BatchNormParams(gamma=Role(shape, 1.0), beta=Role(shape),
                           running_mean=np.zeros(shape), running_var=np.ones(shape))


def _block(k: int, c_in: int, c_out: int, mask_name: str,
           cfg: NetworkConfig) -> BlockParams:
    """A block over ``k`` adjacency subsets, its roles not yet placed."""
    ce = _attn_dim(c_in)
    return BlockParams(
        weight=Role((k, c_in, c_out)),
        learned_adj=Role((k, V, V)),
        attn_a=Role((k, c_in, ce)) if cfg.attention else None,
        attn_b=Role((k, c_in, ce)) if cfg.attention else None,
        temporal_kernel=Role((cfg.temporal_kernel, c_out)),
        bn1=_bn(c_out),
        bn2=_bn(c_out),
        mask_name=mask_name,
        in_channels=c_in,
        out_channels=c_out,
    )


def _uniform(rng, view: np.ndarray, fan_in: int):
    """Draw ``view`` uniformly within +-1/sqrt(fan_in), in place."""
    bound = 1.0 / np.sqrt(fan_in)
    view[...] = rng.uniform(-bound, bound, size=view.shape)


def _draw_block(rng, blk: BlockParams):
    """Draw a block's random parameters into their slots: per subset its
    weight, then with attention its query and key projections; then the
    temporal kernel."""
    per_subset = [r for r in (blk.weight, blk.attn_a, blk.attn_b) if r is not None]
    for k in range(blk.weight.shape[0]):
        for role in per_subset:
            _uniform(rng, role.data[k], blk.in_channels)
    _uniform(rng, blk.temporal_kernel.data, blk.temporal_kernel.shape[0])


def init_model(cfg: NetworkConfig, seed: int = 0) -> ModelParams:
    """Build a model with seeded parameter initialization.

    Learned adjacencies start at zero so an untrained model behaves
    like the plain predefined-graph network; mix weights use fan-in
    scaled uniform init.

    The structure is ``blank_model``'s. Each random tensor is then drawn
    from one generator straight into its slot of its role: block by
    block (``_draw_block``), then head by head its fc weight, then its
    classifier.
    """
    model = blank_model(cfg)
    rng = np.random.default_rng(seed)
    for blk in model.blocks():
        _draw_block(rng, blk)
    heads = model.heads
    for i in range(len(heads)):
        _uniform(rng, heads.fc_w.data[i], heads.fc_w.shape[1])
        _uniform(rng, heads.cls_w.data[i], heads.cls_w.shape[1])
    return model


def blank_model(cfg: NetworkConfig) -> ModelParams:
    """The model ``init_model`` builds, with the parameters it draws at
    random left at 0: for a checkpoint to be loaded into
    (``load_model_tensors`` sets every tensor), so no draw is wasted.
    Its roles are laid out in one arena (``autodiff.Arena``) in
    ``ModelParams.roles`` order."""
    adjacency = build_adjacency_subsets()
    plan = ([(c, "parts5") for c in cfg.parts5_channels]
            + [(cfg.larger_channels, scheme) for scheme in cfg.larger_schemes])
    branches = {}
    for bname in cfg.branches:
        c_in, blocks = BRANCH_CHANNELS[bname], []
        for c_out, mask_name in plan:
            blocks.append(_block(len(adjacency), c_in, c_out, mask_name, cfg))
            c_in = c_out
        branches[bname] = blocks
    s, c, d = cfg.num_parts, plan[-1][0], cfg.embed_dim
    heads = Heads(fc_w=Role((s, c, d)), fc_b=Role((s, d)), bnn=_bn((s, d)),
                  cls_w=Role((s, d, cfg.num_classes)))
    model = ModelParams(config=cfg, branches=branches, heads=heads,
                        adjacency=adjacency,
                        masks=mask_set(cfg.partition_overrides, cfg.use_masks))
    Arena(model.roles())
    return model


# -- forward ops ------------------------------------------------------


def _check_channels(f_in: Tensor, block: BlockParams):
    if f_in.shape[-1] != block.in_channels:
        raise DataError(
            f"spatial conv expects {block.in_channels} channels, got {f_in.shape[-1]}")


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
    k, c_out = block.weight.shape[0], block.out_channels
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
    k, c_out = block.weight.shape[0], block.out_channels
    stacked = _stacked_adjacency(
        adjacency, mask, block.learned_adj.data,
        _attention(f, block.attn_a.data, block.attn_b.data, mask)[1]
        if block.attn_a is not None else None)
    per_sequence = stacked.ndim == 4
    scale1, shift1 = _folded(block.bn1)
    scale2, shift2 = _folded(block.bn2)
    weight = block.weight.data.reshape(k * c_in, c_out) * scale1
    kernel = _tiled(block.temporal_kernel.data * scale2, v)
    shift1, shift2 = _tiled(shift1, v), _tiled(shift2, v)
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
            f_in, adjacency, mask, block.learned_adj, block.weight, block.attn_a,
            block.attn_b, block.bn1.gamma, block.bn1.beta, block.temporal_kernel,
            block.bn2.gamma, block.bn2.beta, BN_EPS, residual)
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


def part_heads(pools: list, heads: Heads):
    """Training: the branches' (N, P, C) pooled slots -> metric features
    (S, N, D) and classifier logits (S, N, K), every slot through its own
    head, as two nodes: the fc layer (``autodiff.slot_fc``), then the
    BNNeck and the classifier (``autodiff.bnneck_classifier``), each
    reading a head role as one array. The BNNeck's batch statistics are
    folded into the slots' running averages. Inference stops at the
    metric features (``metric_features``).
    """
    metric = slot_fc(pools, heads.fc_w, heads.fc_b)
    logits, mu, var = bnneck_classifier(metric, heads.bnn.gamma, heads.bnn.beta,
                                        heads.cls_w, BN_EPS)
    _update_running(heads.bnn, mu, var)
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
    an (N, T, V, C) array or Tensor.

    Once a branch is pooled, its last block output's values are
    dropped: its ``data`` becomes a read-only zero-stride view of the
    same shape. Nothing reads them again: the pooling keeps index arrays
    only (``group_pool``), and a block keeps its input, not its output
    (``graph_block``). So a training tape holds each branch's earlier
    block outputs, as the next blocks' inputs, and not its last, and
    inference frees it before the next branch's blocks run."""
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
        f = branch_forward(x, model.branches[bname], model.adjacency, model.masks,
                           training)
        slots.append(part_pool(f))
        if f is not x:
            f.data = np.broadcast_to(0.0, f.shape)
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
    weights = model.heads.fc_w.data
    if out is None:
        out = np.empty((n, len(weights), model.config.embed_dim))
    for slot, w in enumerate(weights):
        np.matmul(pooled[:, slot], w, out=out[:, slot])
    out += model.heads.fc_b.data
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
    return {name: (t if isinstance(t, np.ndarray) else t.data)
            for name, t in model.named_tensors().items()}


def load_model_tensors(model: ModelParams, tensors: dict):
    """Copy checkpoint arrays into the model's own arrays, validating
    shapes: parameters into their slots of their roles' values,
    running statistics into theirs, all in place."""
    for name, t in model.named_tensors().items():
        if name not in tensors:
            raise DataError(f"checkpoint missing tensor {name}")
        arr = tensors[name]
        current = t if isinstance(t, np.ndarray) else t.data
        if tuple(arr.shape) != tuple(current.shape):
            raise DataError(
                f"tensor {name}: checkpoint shape {arr.shape} != model {current.shape}")
        current[...] = arr
