"""Losses, batch sampling, augmentation, optimizer, schedule and the
training loop.

Batches are (P subjects x K sequences) with L frames drawn per sequence
in an unordered manner. Augmentation happens on the unified pose, before
descriptors are computed: left-right flipping with a small probability
per sequence, and per-keypoint Gaussian jitter.

Per part slot, a batch-hard triplet loss over the metric features and a
softmax cross-entropy over the BNNeck logits are combined as
triplet + gamma * ce and averaged over all slots.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tensor, _make
from .errors import ConfigError, DataError, NumericError
from .hod import describe
from .pagcn import (
    ModelParams,
    NetworkConfig,
    descriptor_inputs,
    init_model,
    model_tensors,
    network_forward,
)
from . import checkpoint as ckpt

# left/right joint index swaps for horizontal flipping
FLIP_PAIRS = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 16))

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_SLICE = 8192   # floats per slice of a span in adam_step


@dataclass(frozen=True)
class TrainConfig:
    subjects_per_batch: int = 4       # P
    samples_per_subject: int = 32     # K
    sequence_length: int = 60         # L, frames sampled per sequence
    margin: float = 0.2
    ce_weight: float = 1.0            # gamma
    iterations: int = 40000
    lr_init: float = 1e-5
    lr_max: float = 1e-3
    lr_final: float = 1e-8
    phase_fractions: tuple = (0.3, 0.6, 0.1)
    flip_probability: float = 0.01
    noise_probability: float = 0.3
    noise_sigma: float = 2.0
    seed: int = field(default=0, metadata={"key": "run.seed"})
    log_interval: int = 50
    checkpoint_interval: int = 1000

    def __post_init__(self):
        if self.subjects_per_batch < 2 or self.samples_per_subject < 2:
            raise ConfigError("triplet mining needs P >= 2 and K >= 2")
        for name in ("iterations", "sequence_length", "log_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name} must be at least 1, "
                                  f"got {getattr(self, name)}")
        for p in (self.flip_probability, self.noise_probability):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"probability {p} outside [0, 1]")
        for name in ("lr_init", "lr_max", "lr_final"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"train.{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        for name in ("margin", "ce_weight", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"train.{name} must be nonnegative and finite, "
                                  f"got {getattr(self, name)}")
        fractions = self.phase_fractions
        if (len(fractions) != 3 or not all(0 <= f < math.inf for f in fractions)
                or abs(sum(fractions) - 1.0) > 1e-9):
            raise ConfigError("train.phase_fractions must be three finite "
                              f"fractions >= 0 summing to 1, got {fractions}")

    def to_dict(self) -> dict:
        return asdict(self)


# -- augmentation -----------------------------------------------------


def augment_flip(frames: np.ndarray, probability: float, rng) -> np.ndarray:
    """Mirror the skeleton left-right with the given probability.

    Negates x and swaps the left/right joint indices, applied to the
    whole sequence at once. Applying it twice restores the input.
    """
    if probability <= 0.0 or rng.random() >= probability:
        return frames
    return flip_frames(frames)


def flip_frames(frames: np.ndarray) -> np.ndarray:
    out = frames.copy()
    out[..., 0] = -out[..., 0]
    for a, b in FLIP_PAIRS:
        out[..., a, :], out[..., b, :] = out[..., b, :].copy(), out[..., a, :].copy()
    return out


def augment_noise(frames: np.ndarray, probability: float, sigma: float,
                  rng) -> np.ndarray:
    """Per-keypoint Gaussian jitter on both coordinates with the given
    probability."""
    if probability <= 0.0 or sigma == 0.0:
        return frames
    hit = rng.random(frames.shape[:-1]) < probability
    noise = rng.normal(0.0, sigma, size=frames.shape)
    return frames + noise * hit[..., None]


# -- batch sampling ---------------------------------------------------


@dataclass
class TrainSet:
    """Unified sequences grouped by subject, with integer class labels."""

    sequences: list            # list[UnifiedPoseSequence]
    subjects: list             # sorted unique subject ids
    by_subject: dict           # subject -> list of sequence indices

    @staticmethod
    def build(unified_sequences) -> "TrainSet":
        subjects = sorted({u.subject for u in unified_sequences})
        by_subject = {s: [] for s in subjects}
        for i, u in enumerate(unified_sequences):
            by_subject[u.subject].append(i)
        return TrainSet(sequences=list(unified_sequences), subjects=subjects,
                        by_subject=by_subject)

    @property
    def num_classes(self) -> int:
        return len(self.subjects)


def sample_frames(useq_frames: np.ndarray, length: int, rng) -> np.ndarray:
    """L frames drawn uniformly, order discarded; with replacement only
    when the sequence is shorter than L."""
    t = useq_frames.shape[0]
    idx = rng.choice(t, size=length, replace=t < length)
    return useq_frames[idx]


def sample_batch(train_set: TrainSet, p: int, k: int, length: int, rng,
                 augment=None):
    """Draw a (P x K) batch and build descriptor tensors.

    Returns (descriptor dict with joint/bone/angle arrays of shape
    (P*K, L, 17, c), labels int array). ``augment`` is an optional
    callable applied to each sampled (L, 17, 2) frame stack; sampling
    and augmentation draw from ``rng`` sequence by sequence, then the
    descriptors of the whole batch are computed at once.
    """
    if len(train_set.subjects) < p:
        raise DataError(
            f"need {p} subjects, train set has {len(train_set.subjects)}")
    chosen = rng.choice(len(train_set.subjects), size=p, replace=False)
    stacks, labels = [], []
    for sidx in chosen:
        subject = train_set.subjects[sidx]
        pool = train_set.by_subject[subject]
        seq_ids = rng.choice(len(pool), size=k, replace=len(pool) < k)
        for sq in seq_ids:
            useq = train_set.sequences[pool[sq]]
            frames = sample_frames(useq.frames, length, rng)
            if augment is not None:
                frames = augment(frames)
            stacks.append(frames)
            labels.append(sidx)
    return describe(np.stack(stacks)), np.asarray(labels, dtype=np.int64)


# -- losses -----------------------------------------------------------


def _slot_batch(x: Tensor) -> np.ndarray:
    """The (S, N, ...) array of a loss input, a 2-D input as one slot."""
    return x.data.reshape((1,) + x.shape) if x.ndim == 2 else x.data


def triplet_loss(metric: Tensor, labels: np.ndarray, margin: float) -> Tensor:
    """Batch-hard triplet loss over the (S, N, D) metric features of S
    part slots, or the (N, D) features of one, as one node.

    Per slot and anchor, hinge(hardest positive - hardest negative +
    margin), averaged over anchors that have at least one positive and
    one negative, then over slots. Anchors without positives are
    skipped; if every anchor is skipped the loss is 0 (with a warning)
    and ``metric`` gets no gradient. Distances are
    ``sqrt(relu(|a|^2 + |b|^2 - 2 a.b))``, whose gradient at a distance
    of exactly 0 is taken as 0, so coinciding embeddings keep the loss
    finite.

    The node keeps the (S, N, N) distances and the hardest pairs.
    Backward routes each anchor's hinge gradient to its two pairs'
    distances, then through the square root, the squared norms and the
    Gram product to ``metric``, adding the norms', the Gram product's
    left and its right operand's terms in that order.
    """
    emb = _slot_batch(metric)
    s, n, _ = emb.shape
    labels = np.asarray(labels)
    sq = (emb * emb).sum(axis=2)                                # (S, N)
    d2 = (sq.reshape(s, n, 1) + sq.reshape(s, 1, n)
          - np.matmul(emb, emb.transpose(0, 2, 1)) * 2.0)
    # clamp tiny negatives from cancellation
    dist = np.sqrt(np.maximum(d2, 0.0))
    del d2
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same

    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        warnings.warn("triplet loss: no anchor has a positive pair")
        return Tensor(0.0)
    rows = np.flatnonzero(valid)
    anchors = (np.arange(s)[:, None] * n + rows) * n    # (S, R) flat row starts
    pos = anchors + np.where(pos_mask[rows], dist[:, rows], -np.inf).argmax(axis=2)
    neg = anchors + np.where(neg_mask[rows], dist[:, rows], np.inf).argmin(axis=2)
    flat = dist.reshape(-1)
    hinge = flat[pos] - flat[neg] + margin
    out = _make((np.maximum(hinge, 0.0).sum(axis=1) * (1.0 / rows.size)).sum()
                * (1.0 / s), (metric,))
    if out.requires_grad:
        def bwd(g):
            g_hinge = (g * (1.0 / s)) * (1.0 / rows.size) * (hinge > 0.0)
            g_dist = np.zeros(dist.size)
            g_dist[pos] = g_hinge
            g_dist[neg] = 0.0 - g_hinge         # +0 where the hinge is inactive
            g_dist = g_dist.reshape(dist.shape)
            # the clamp's gradient is 0 where the distance is, as the
            # square root's already is
            safe = np.where(dist > 0.0, dist, 1.0)
            g_d2 = np.where(dist > 0.0, g_dist / (2.0 * safe), 0.0)
            g_sq = g_d2.sum(axis=2) + g_d2.sum(axis=1)
            g_gram = -g_d2 * 2.0
            g_emb = (g_sq * 2.0)[:, :, None] * emb
            g_emb = g_emb + np.matmul(g_gram, emb)
            g_emb = g_emb + np.matmul(np.swapaxes(emb, -1, -2), g_gram).transpose(0, 2, 1)
            metric._accumulate(g_emb.reshape(metric.shape))
        out._backward = bwd
    return out


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy over the (S, N, K) logits of S part slots,
    or the (N, K) logits of one, averaged over the batch, then over
    slots, as one node; stabilized with each row's max.

    The node keeps only each row's max and the sum of its shifted
    exponentials, (S, N) each. The forward holds one logits-sized array
    for the exponentials; backward rebuilds them into one array and
    turns it into the gradient ``softmax - onehot`` in place.
    """
    z = _slot_batch(logits)
    labels = np.asarray(labels)
    s, n, c = z.shape
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label outside [0, {c})")
    m = z.max(axis=2, keepdims=True)
    e = z - m
    np.exp(e, out=e)
    total = e.sum(axis=2)                                       # (S, N)
    del e
    rows = np.arange(n)
    nll = (np.log(total) + m.reshape(s, n)) - z[:, rows, labels]
    out = _make((nll.sum(axis=1) * (1.0 / n)).sum() * (1.0 / s), (logits,))
    if out.requires_grad:
        def bwd(g):
            share = (g * (1.0 / s)) * (1.0 / n)
            grad = z - m
            np.exp(grad, out=grad)
            grad *= (share / total)[:, :, None]
            grad[:, rows, labels] -= share
            logits._accumulate(grad.reshape(logits.shape))
        out._backward = bwd
    return out


def combined_loss(metrics: Tensor, logits: Tensor, labels: np.ndarray,
                  margin: float, ce_weight: float):
    """Mean over part slots of (triplet + gamma * ce), from the (S, N, D)
    metric features and (S, N, K) logits of ``network_forward``.

    Returns (total, mean_triplet, mean_ce) as tensors; ``total`` is one
    node over the two loss nodes.
    """
    tri = triplet_loss(metrics, labels, margin)
    ce = cross_entropy_loss(logits, labels)
    total = _make(tri.data + ce.data * ce_weight, (tri, ce))
    if total.requires_grad:
        def bwd(g):
            if tri.requires_grad:
                tri._accumulate(g)
            if ce.requires_grad:
                ce._accumulate(g * ce_weight)
        total._backward = bwd
    return total, tri, ce


# -- optimizer --------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam's step count and moments. ``m`` and ``v`` are flat arrays of
    the parameter arena's layout (``autodiff.Arena``), made as zeros on
    the first step or by ``restore_training_state``: a role's moments
    are its region of each, and the padding between regions stays 0."""

    step: int = 0
    m: np.ndarray = None
    v: np.ndarray = None


def _adam_update(p, g, m, v, lr: float, bc1: float, bc2: float, tmp, step):
    """The Adam update of arrays ``p``, ``m``, ``v`` in place from their
    gradient ``g``, through the scratch arrays ``tmp`` and ``step``
    shaped like them."""
    np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= lr
    step /= tmp
    p -= step


def _nonfinite_name(model: ModelParams) -> str:
    """The checkpoint name of the first parameter whose gradient is not
    finite."""
    return next(name for name, p in model.named_parameters().items()
                if p.grad is not None and not np.isfinite(p.grad).all())


def adam_step(model: ModelParams, state: OptimizerState, lr: float):
    """One Adam update of ``model``'s parameters with bias-corrected
    moments. A role without a gradient this step is left untouched, and
    its region of the arena's gradient array is set to 0, so that array
    holds only this step's gradients.

    The moments and the values are updated in place, with the
    operations and their order of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g`` and
    ``p = p - lr (m / bc1) / (sqrt(v / bc2) + eps)``, so every value is
    rounded as those formulas round it. The ops are elementwise, so how
    the values are grouped changes no bit.

    Consecutive roles with a gradient form one span of the arena's
    value, gradient and moment arrays (``OptimizerState``), the padding
    between them included (it stays 0): in training every role has one,
    so the whole arena is one span. Each span is walked in slices of at
    most ``ADAM_SLICE`` floats through two scratch buffers of that size,
    so no full-size temporary is made. A non-finite gradient raises
    ``NumericError`` naming a parameter that has one, before its slice
    is updated.
    """
    arena = model.arena
    state.step += 1
    spans, joined = [], False
    for role in model.roles():
        stop = role.start + role.data.size
        if role.grad is None:
            if arena.grad is not None:
                role.view(arena.grad)[...] = 0.0
            joined = False
        elif joined:
            spans[-1][1] = stop
        else:
            spans.append([role.start, stop])
            joined = True
    if not spans:
        return
    if state.m is None:
        state.m, state.v = np.zeros(arena.size), np.zeros(arena.size)
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    tmp, step = np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)
    for start, stop in spans:
        for lo in range(start, stop, ADAM_SLICE):
            hi = min(lo + ADAM_SLICE, stop)
            g = arena.grad[lo:hi]
            if not np.isfinite(g).all():
                raise NumericError(
                    f"non-finite gradient in tensor {_nonfinite_name(model)}")
            _adam_update(arena.data[lo:hi], g, state.m[lo:hi], state.v[lo:hi],
                         lr, bc1, bc2, tmp[:hi - lo], step[:hi - lo])


def one_cycle_lr(iteration: int, total: int, lr_init: float, lr_max: float,
                 lr_final: float, phase_fractions=(0.3, 0.6, 0.1)) -> float:
    """Three-phase schedule over normalized progress: linear warmup to
    the peak, cosine decay back to the initial rate, then a linear tail
    to the final rate. Endpoints are exact; a phase of zero length is
    skipped."""
    if not 0 <= iteration < total:
        raise ConfigError(f"iteration {iteration} outside [0, {total})")
    if total == 1:
        return lr_init
    f1, f2, _f3 = phase_fractions
    p = iteration / (total - 1)
    if 0 < f1 and p <= f1:
        q = p / f1
        return lr_init * (1.0 - q) + lr_max * q
    if 0 < f2 and p <= f1 + f2:
        w = 0.5 * (1.0 + math.cos(math.pi * (p - f1) / f2))
        return lr_max * w + lr_init * (1.0 - w)
    q = (p - f1 - f2) / (1.0 - f1 - f2)
    return lr_init * (1.0 - q) + lr_final * q


# -- training loop ----------------------------------------------------


def training_tensors(model: ModelParams, state: OptimizerState) -> dict:
    """Model tensors plus optimizer state for checkpointing: once the
    moments exist, every parameter's place in them."""
    out = model_tensors(model)
    if state.m is not None:
        for name, p in model.named_parameters().items():
            out[f"optim/{name}/m"] = p.view(state.m)
            out[f"optim/{name}/v"] = p.view(state.v)
    out["train/step"] = np.asarray([float(state.step)])
    return out


def restore_training_state(model: ModelParams, tensors: dict) -> OptimizerState:
    """Load a checkpoint's parameters and running statistics into
    ``model`` (``pagcn.load_model_tensors``) and return the optimizer
    state it records: the step and, when it holds any moments, the
    moment arrays, each parameter's place holding its saved moments or
    0 where it has none."""
    from .pagcn import load_model_tensors
    load_model_tensors(model, tensors)
    state = OptimizerState()
    for name, p in model.named_parameters().items():
        mk, vk = f"optim/{name}/m", f"optim/{name}/v"
        if mk not in tensors and vk not in tensors:
            continue
        for key in (mk, vk):
            if key not in tensors:
                raise DataError(f"checkpoint missing tensor {key}")
            if tuple(tensors[key].shape) != p.data.shape:
                raise DataError(f"tensor {key}: checkpoint shape "
                                f"{tensors[key].shape} != model {p.data.shape}")
        if state.m is None:
            state.m, state.v = np.zeros(model.arena.size), np.zeros(model.arena.size)
        p.view(state.m)[...] = tensors[mk]
        p.view(state.v)[...] = tensors[vk]
    if "train/step" in tensors:
        state.step = int(round(float(tensors["train/step"][0])))
    return state


def sampler_rng(seed: int, sampler_state: dict = None,
                source: str = "checkpoint") -> np.random.Generator:
    """The batch sampler's generator: seeded with ``seed + 1``, or set to
    ``sampler_state`` when given. A state that does not fit is a
    ``DataError`` naming ``source``."""
    rng = np.random.default_rng(seed + 1)
    if sampler_state is not None:
        try:
            rng.bit_generator.state = sampler_state
        except (TypeError, ValueError, KeyError) as e:
            raise DataError(f"{source}: malformed sampler_state: {e}") from e
    return rng


# glibc mallopt parameters (malloc.h) and the values training and
# evaluation set
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20     # glibc's largest allowed value
TRIM_THRESHOLD = 256 * 2**20


def keep_freed_memory():
    """Tell the C allocator to keep the memory it is handed back, for
    the rest of the process. ``train_loop`` and
    ``eval.cross_domain_eval`` call it first.

    A training block frees its numpy temporaries before the next block
    allocates arrays of the same sizes, and an eval pass frees what the
    previous pass allocated. With glibc's defaults the larger ones come
    from fresh ``mmap`` regions and the heap top is trimmed after each
    free, so every block touches new pages: thousands of minor page
    faults per iteration or pass. Here arrays up to 32 MiB come from the
    heap, which is trimmed only once 256 MiB lie free at its top; larger
    arrays are still mapped and unmapped. No value changes. Where libc
    has no ``mallopt`` this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def train_loop(train_set: TrainSet, net_cfg: NetworkConfig,
               train_cfg: TrainConfig, out_dir, run_config: dict = None,
               model: ModelParams = None, state: OptimizerState = None,
               log_fn=None, sampler_state: dict = None):
    """Full optimization: sample -> augment -> forward -> loss ->
    backward -> adam, with periodic checkpoints and a metrics log.

    The batch sampler starts from ``seed + 1`` unless ``sampler_state``
    (a bit-generator state, as every checkpoint header stores it under
    ``sampler_state``) is given, so a resumed run draws the batches an
    uninterrupted run would draw. The loop starts at ``state.step``: 0
    for a fresh ``OptimizerState``, the saved step for a resumed one.

    It first sets the allocator to keep freed memory
    (``keep_freed_memory``), for the rest of the process.

    Returns (model, final checkpoint path). Reproducible bit-for-bit
    under a fixed seed in single-threaded mode.
    """
    import os

    keep_freed_memory()
    os.makedirs(out_dir, exist_ok=True)
    if model is None:
        model = init_model(net_cfg, seed=train_cfg.seed)
    if state is None:
        state = OptimizerState()
    rng = sampler_rng(train_cfg.seed, sampler_state)
    run_config = dict(run_config or {})
    run_config["network"] = net_cfg.to_dict()
    run_config["train"] = train_cfg.to_dict()

    def save(path):
        header = dict(run_config, sampler_state=rng.bit_generator.state)
        ckpt.save_container(path, header, training_tensors(model, state))

    def augment(frames):
        frames = augment_flip(frames, train_cfg.flip_probability, rng)
        return augment_noise(frames, train_cfg.noise_probability,
                             train_cfg.noise_sigma, rng)

    roles = model.roles()
    log_path = os.path.join(out_dir, "metrics.log")
    final_path = os.path.join(out_dir, "final.gpgw")
    last_good = None
    with open(log_path, "a", encoding="utf-8") as log:
        for it in range(state.step, train_cfg.iterations):
            lr = one_cycle_lr(it, train_cfg.iterations, train_cfg.lr_init,
                              train_cfg.lr_max, train_cfg.lr_final,
                              train_cfg.phase_fractions)
            batch, labels = sample_batch(
                train_set, train_cfg.subjects_per_batch,
                train_cfg.samples_per_subject, train_cfg.sequence_length,
                rng, augment=augment)
            inputs = descriptor_inputs(net_cfg, **batch)
            result = network_forward(model, inputs, training=True)
            total, tri, ce = combined_loss(result.metrics, result.logits,
                                           labels, train_cfg.margin,
                                           train_cfg.ce_weight)
            if not np.isfinite(total.data):
                raise NumericError(
                    f"non-finite loss at iteration {it}"
                    + (f" (last good checkpoint: {last_good})" if last_good else ""))
            for role in roles:
                role.zero_grad()
            total.backward()
            adam_step(model, state, lr)

            if it % train_cfg.log_interval == 0 or it == train_cfg.iterations - 1:
                line = (f"iter\t{it}\tlr\t{lr:.9e}\ttriplet\t{tri.item():.6f}"
                        f"\tce\t{ce.item():.6f}\ttotal\t{total.item():.6f}")
                log.write(line + "\n")
                log.flush()
                if log_fn:
                    log_fn(line)
            if (train_cfg.checkpoint_interval > 0
                    and (it + 1) % train_cfg.checkpoint_interval == 0
                    and it + 1 < train_cfg.iterations):
                path = os.path.join(out_dir, f"ckpt_{it + 1:06d}.gpgw")
                save(path)
                last_good = path
            # release this iteration's graph before the next forward
            # builds its own, so only one graph is alive at a time
            del result, total, tri, ce
    save(final_path)
    return model, final_path
