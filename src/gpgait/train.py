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
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, concat, stop_gradient
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
    seed: int = 0
    log_interval: int = 50
    checkpoint_interval: int = 1000

    def __post_init__(self):
        if self.subjects_per_batch < 2 or self.samples_per_subject < 2:
            raise ConfigError("triplet mining needs P >= 2 and K >= 2")
        if self.iterations < 1:
            raise ConfigError(
                f"train.iterations must be at least 1, got {self.iterations}")
        for p in (self.flip_probability, self.noise_probability):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"probability {p} outside [0, 1]")
        if abs(sum(self.phase_fractions) - 1.0) > 1e-9:
            raise ConfigError("phase fractions must sum to 1")

    def to_dict(self) -> dict:
        return {
            "subjects_per_batch": self.subjects_per_batch,
            "samples_per_subject": self.samples_per_subject,
            "sequence_length": self.sequence_length,
            "margin": self.margin,
            "ce_weight": self.ce_weight,
            "iterations": self.iterations,
            "lr_init": self.lr_init,
            "lr_max": self.lr_max,
            "lr_final": self.lr_final,
            "phase_fractions": list(self.phase_fractions),
            "flip_probability": self.flip_probability,
            "noise_probability": self.noise_probability,
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
            "log_interval": self.log_interval,
            "checkpoint_interval": self.checkpoint_interval,
        }


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
    desc = describe(np.stack(stacks))
    return (
        {"joint": desc.joint, "bone": desc.bone, "angle": desc.angle},
        np.asarray(labels, dtype=np.int64),
    )


# -- losses -----------------------------------------------------------


def _pairwise_sq_dists(emb: Tensor) -> Tensor:
    sq = emb.square().sum(axis=1)                       # (N,)
    n = emb.shape[0]
    gram = emb @ emb.transpose((1, 0))                  # (N, N)
    d2 = sq.reshape(n, 1) + sq.reshape(1, n) - gram * 2.0
    return d2.relu()  # clamp tiny negatives from cancellation


def triplet_loss(metric: Tensor, labels: np.ndarray, margin: float) -> Tensor:
    """Batch-hard triplet loss over one part's metric features.

    Per anchor, hinge(hardest positive - hardest negative + margin),
    averaged over anchors that have at least one positive and one
    negative. Anchors without positives are skipped; if every anchor is
    skipped the loss is 0 (with a warning).
    """
    n = metric.shape[0]
    labels = np.asarray(labels)
    d2 = _pairwise_sq_dists(metric)
    dist = d2.sqrt()
    dmat = dist.data
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    pos_mask = same & ~eye
    neg_mask = ~same

    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        warnings.warn("triplet loss: no anchor has a positive pair")
        return Tensor(0.0)
    rows = np.flatnonzero(valid)
    pos_idx = np.where(pos_mask[rows], dmat[rows], -np.inf).argmax(axis=1)
    neg_idx = np.where(neg_mask[rows], dmat[rows], np.inf).argmin(axis=1)
    flat = dist.reshape(n * n)
    hardest_pos = flat.take(rows * n + pos_idx, axis=0)
    hardest_neg = flat.take(rows * n + neg_idx, axis=0)
    return (hardest_pos - hardest_neg + margin).relu().mean()


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy averaged over the batch, stabilized with a
    detached per-row max."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label outside [0, {c})")
    m = stop_gradient(logits.max(axis=1, keepdims=True))
    shifted = logits - m
    lse = shifted.exp().sum(axis=1).log() + m.reshape(n)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = (logits * onehot).sum(axis=1)
    return (lse - picked).mean()


def combined_loss(metrics: list, logits: list, labels: np.ndarray,
                  margin: float, ce_weight: float):
    """Mean over part slots of (triplet + gamma * ce).

    Returns (total, mean_triplet, mean_ce) as tensors.
    """
    tri_terms, ce_terms = [], []
    for metric, logit in zip(metrics, logits):
        tri_terms.append(triplet_loss(metric, labels, margin))
        ce_terms.append(cross_entropy_loss(logit, labels))
    tri = concat([t.reshape(1) for t in tri_terms]).mean()
    ce = concat([t.reshape(1) for t in ce_terms]).mean()
    return tri + ce * ce_weight, tri, ce


# -- optimizer --------------------------------------------------------


@dataclass
class OptimizerState:
    m: dict = field(default_factory=dict)  # name -> first moment
    v: dict = field(default_factory=dict)  # name -> second moment
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS


def adam_step(params: dict, state: OptimizerState, lr: float):
    """One Adam update with bias-corrected moments. Parameters without
    a gradient this step are left untouched.

    The moments and ``p.data`` are updated in place, with the operations
    and their order of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g`` and
    ``p = p - lr (m / bc1) / (sqrt(v / bc2) + eps)``, so every value is
    rounded as those formulas round it.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in tensor {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        tmp = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += tmp
        np.multiply(g, 1.0 - state.beta2, out=tmp)
        tmp *= g
        v *= state.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        step = np.divide(m, bc1)
        step *= lr
        step /= tmp
        p.data -= step


def one_cycle_lr(iteration: int, total: int, lr_init: float, lr_max: float,
                 lr_final: float, phase_fractions=(0.3, 0.6, 0.1)) -> float:
    """Three-phase schedule over normalized progress: linear warmup to
    the peak, cosine decay back to the initial rate, then a linear tail
    to the final rate. Endpoints are exact."""
    if not 0 <= iteration < total:
        raise ConfigError(f"iteration {iteration} outside [0, {total})")
    if total == 1:
        return lr_init
    f1, f2, _f3 = phase_fractions
    p = iteration / (total - 1)
    if p <= f1:
        q = p / f1
        return lr_init * (1.0 - q) + lr_max * q
    if p <= f1 + f2:
        w = 0.5 * (1.0 + math.cos(math.pi * (p - f1) / f2))
        return lr_max * w + lr_init * (1.0 - w)
    q = (p - f1 - f2) / (1.0 - f1 - f2)
    return lr_init * (1.0 - q) + lr_final * q


# -- training loop ----------------------------------------------------


def training_tensors(model: ModelParams, state: OptimizerState) -> dict:
    """Model tensors plus optimizer state for checkpointing."""
    out = model_tensors(model)
    for name in model.named_parameters():
        if name in state.m:
            out[f"optim/{name}/m"] = state.m[name]
            out[f"optim/{name}/v"] = state.v[name]
    out["train/step"] = np.asarray([float(state.step)])
    return out


def restore_training_state(model: ModelParams, tensors: dict) -> OptimizerState:
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
        state.m[name] = tensors[mk].copy()
        state.v[name] = tensors[vk].copy()
    if "train/step" in tensors:
        state.step = int(round(float(tensors["train/step"][0])))
    return state


def train_loop(train_set: TrainSet, net_cfg: NetworkConfig,
               train_cfg: TrainConfig, out_dir, run_config: dict = None,
               model: ModelParams = None, state: OptimizerState = None,
               start_iteration: int = 0, log_fn=None, sampler_state: dict = None):
    """Full optimization: sample -> augment -> forward -> loss ->
    backward -> adam, with periodic checkpoints and a metrics log.

    The batch sampler starts from ``seed + 1`` unless ``sampler_state``
    (a bit-generator state, as every checkpoint header stores it under
    ``sampler_state``) is given, so a resumed run draws the batches an
    uninterrupted run would draw.

    Returns (model, final checkpoint path). Reproducible bit-for-bit
    under a fixed seed in single-threaded mode.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    if model is None:
        model = init_model(net_cfg, seed=train_cfg.seed)
    if state is None:
        state = OptimizerState()
    rng = np.random.default_rng(train_cfg.seed + 1)
    if sampler_state is not None:
        try:
            rng.bit_generator.state = sampler_state
        except (TypeError, ValueError, KeyError) as e:
            raise DataError(f"malformed sampler_state in checkpoint: {e}") from e
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

    params = model.named_parameters()
    log_path = os.path.join(out_dir, "metrics.log")
    final_path = os.path.join(out_dir, "final.gpgw")
    last_good = None
    with open(log_path, "a", encoding="utf-8") as log:
        for it in range(start_iteration, train_cfg.iterations):
            lr = one_cycle_lr(it, train_cfg.iterations, train_cfg.lr_init,
                              train_cfg.lr_max, train_cfg.lr_final,
                              train_cfg.phase_fractions)
            batch, labels = sample_batch(
                train_set, train_cfg.subjects_per_batch,
                train_cfg.samples_per_subject, train_cfg.sequence_length,
                rng, augment=augment)
            inputs = descriptor_inputs(net_cfg, batch["joint"], batch["bone"],
                                       batch["angle"])
            result = network_forward(model, inputs, training=True)
            total, tri, ce = combined_loss(result.metrics, result.logits,
                                           labels, train_cfg.margin,
                                           train_cfg.ce_weight)
            if not np.isfinite(total.data):
                raise NumericError(
                    f"non-finite loss at iteration {it}"
                    + (f" (last good checkpoint: {last_good})" if last_good else ""))
            for p in params.values():
                p.zero_grad()
            total.backward()
            adam_step(params, state, lr)

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
