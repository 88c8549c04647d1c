"""Embedding extraction, distances, rank-1 protocols and feature dumps.

Retrieval uses Euclidean distance over the concatenation of all
per-part metric features (the space the triplet loss shapes); cosine
distance is available behind a flag. The cross-view protocol evaluates
every (probe view, gallery view) cell with the two views different,
averages cells with equal weight per condition, and skips missing cells
with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptySequenceError
from .hod import build_descriptors
from .pagcn import (
    NetworkConfig,
    descriptor_inputs,
    detached_view,
    load_model_tensors,
    init_model,
    network_forward,
)
from . import checkpoint as ckpt
from . import hot as hot_mod

CASIAB_PROBE_SETS = {"NM": (5, 6), "BG": (1, 2), "CL": (1, 2)}
CASIAB_GALLERY = ("NM", (1, 2, 3, 4))


@dataclass
class SplitEntry:
    index: int          # row in the embedding matrix
    label: str
    view: str
    condition: str
    seq_index: int = None  # per-condition sequence number, when known


@dataclass
class GalleryProbeSplit:
    gallery: list
    probe: list
    protocol: str = "simple"


@dataclass
class EvalResult:
    protocol: str
    accuracies: dict                 # condition (or "all") -> accuracy
    cells: list = field(default_factory=list)  # (condition, pv, gv, acc)
    warnings: list = field(default_factory=list)

    @property
    def mean(self) -> float:
        vals = [v for v in self.accuracies.values()]
        return float(np.mean(vals)) if vals else float("nan")


# -- embedding --------------------------------------------------------


def load_model_from_checkpoint(path):
    """(model, run config) from a checkpoint file."""
    config, tensors = ckpt.load_container(path)
    net_cfg = NetworkConfig.from_dict(config["network"])
    model = init_model(net_cfg, seed=0)
    load_model_tensors(model, tensors)
    return model, config


# the header entries that decide normalization
HOT_KEYS = ("use_hot", "h_unif", "phi")


def unify_for_eval(sequences, run_config: dict):
    """Normalize as a header-shaped dict says (``HOT_KEYS``): the
    checkpoint header, or ``RunConfig.echo()`` for a fresh run. Every
    command normalizes through here."""
    use_hot = run_config.get("use_hot", True)
    if use_hot:
        hot_cfg = hot_mod.HotConfig(
            h_unif=run_config.get("h_unif", hot_mod.DEFAULT_HEIGHT),
            phi=run_config.get("phi", hot_mod.DEFAULT_SLANT_THRESHOLD),
        )
        return [hot_mod.apply_hot(s, hot_cfg) for s in sequences]
    return [hot_mod.passthrough(s) for s in sequences]


def embed_unified(model, unified_sequences) -> np.ndarray:
    """(S, num_parts, D) metric features, inference mode.

    Full sequences are used (no frame sampling). Sequences of equal
    length are batched together; results are returned in input order.
    """
    view = detached_view(model)
    cfg = model.config
    out = [None] * len(unified_sequences)
    by_len = {}
    for i, u in enumerate(unified_sequences):
        if u.num_frames == 0:
            raise EmptySequenceError(f"sequence {u.seq_id} empty after normalization")
        by_len.setdefault(u.num_frames, []).append(i)
    for _t, indices in sorted(by_len.items()):
        descs = [build_descriptors(unified_sequences[i]) for i in indices]
        joint = np.stack([d.joint for d in descs])
        bone = np.stack([d.bone for d in descs])
        angle = np.stack([d.angle for d in descs])
        inputs = descriptor_inputs(cfg, joint, bone, angle)
        result = network_forward(view, inputs, training=False,
                                 update_stats=False)
        emb = result.embedding_matrix()
        for row, i in enumerate(indices):
            out[i] = emb[row]
    return np.stack(out)


def embed_dataset(sequences, checkpoint_path) -> np.ndarray:
    """Raw sequences -> embeddings via the checkpoint's own pipeline."""
    model, config = load_model_from_checkpoint(checkpoint_path)
    unified = unify_for_eval(sequences, config)
    return embed_unified(model, unified)


# -- distances and rank-1 ----------------------------------------------


def flatten_embeddings(emb: np.ndarray) -> np.ndarray:
    """(S, num_parts, D) -> (S, num_parts * D)."""
    return emb.reshape(emb.shape[0], -1)


def pairwise_distances(probe: np.ndarray, gallery: np.ndarray,
                       metric: str = "euclidean") -> np.ndarray:
    """(P, G) distance matrix over flattened part features."""
    p = flatten_embeddings(probe) if probe.ndim == 3 else probe
    g = flatten_embeddings(gallery) if gallery.ndim == 3 else gallery
    if p.shape[1] != g.shape[1]:
        raise DataError(
            f"embedding layouts differ: {p.shape[1]} vs {g.shape[1]}")
    if metric == "euclidean":
        # direct differences: exact zeros for identical rows, no
        # catastrophic cancellation; chunked to bound memory
        out = np.empty((p.shape[0], g.shape[0]))
        step = max(1, 2_000_000 // max(1, g.shape[0] * g.shape[1]))
        for start in range(0, p.shape[0], step):
            block = p[start:start + step, None, :] - g[None, :, :]
            out[start:start + step] = np.sqrt((block * block).sum(axis=2))
        return out
    if metric == "cosine":
        pn = p / np.maximum(np.linalg.norm(p, axis=1, keepdims=True), 1e-12)
        gn = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-12)
        return 1.0 - pn @ gn.T
    raise DataError(f"unknown distance metric {metric!r}")


def rank1_simple(dist: np.ndarray, probe_labels, gallery_labels) -> float:
    """Fraction of probes whose nearest gallery entry shares their
    label; ties break toward the lowest gallery index."""
    if dist.shape[1] == 0:
        raise DataError("empty gallery")
    probe_labels = np.asarray(probe_labels)
    gallery_labels = np.asarray(gallery_labels)
    nearest = dist.argmin(axis=1)
    return float(np.mean(gallery_labels[nearest] == probe_labels))


def rank1_casiab(split: GalleryProbeSplit, embeddings: np.ndarray,
                 metric: str = "euclidean") -> EvalResult:
    """Cross-view rank-1 averaged over view pairs, per condition.

    For every probe view / gallery view pair with the views different,
    rank-1 is computed over the gallery restricted to that view; cells
    are averaged per condition with equal weight. Identical-view cells
    are structurally excluded.
    """
    views = sorted({e.view for e in split.gallery} | {e.view for e in split.probe})
    result = EvalResult(protocol="casiab", accuracies={})
    for condition in sorted({e.condition for e in split.probe}):
        accs = []
        for pv in views:
            probes = [e for e in split.probe
                      if e.condition == condition and e.view == pv]
            if not probes:
                result.warnings.append(
                    f"no probes for condition {condition} view {pv}")
                continue
            for gv in views:
                if gv == pv:
                    continue  # identical-view cell excluded by construction
                gals = [e for e in split.gallery if e.view == gv]
                if not gals:
                    result.warnings.append(
                        f"missing gallery view {gv} (probe view {pv}, {condition})")
                    continue
                p_idx = [e.index for e in probes]
                g_idx = [e.index for e in gals]
                dist = pairwise_distances(embeddings[p_idx], embeddings[g_idx],
                                          metric)
                acc = rank1_simple(dist, [e.label for e in probes],
                                   [e.label for e in gals])
                accs.append(acc)
                result.cells.append((condition, pv, gv, acc))
        result.accuracies[condition] = float(np.mean(accs)) if accs else float("nan")
    return result


def evaluate_split(split: GalleryProbeSplit, embeddings: np.ndarray,
                   metric: str = "euclidean") -> EvalResult:
    """Protocol dispatch. Non-cross-view protocols reduce to plain
    rank-1 over the whole gallery."""
    if split.protocol == "casiab":
        return rank1_casiab(split, embeddings, metric)
    p_idx = [e.index for e in split.probe]
    g_idx = [e.index for e in split.gallery]
    if not g_idx:
        raise DataError("empty gallery")
    if not p_idx:
        raise DataError("empty probe set")
    dist = pairwise_distances(embeddings[p_idx], embeddings[g_idx], metric)
    acc = rank1_simple(dist, [e.label for e in split.probe],
                       [e.label for e in split.gallery])
    return EvalResult(protocol=split.protocol, accuracies={"all": acc})


# -- split construction from labeled sequences -------------------------


def _parse_seq_index(seq_id: str):
    """Per-condition sequence number from ids like subj-COND-03-view."""
    parts = seq_id.split("-")
    if len(parts) >= 4:
        try:
            return int(parts[2])
        except ValueError:
            return None
    return None


def build_split(sequences_with_roles, protocol: str) -> GalleryProbeSplit:
    """Assign gallery/probe membership per protocol.

    simple / gait3d / grew / oumvlp trust (or derive from) manifest
    roles; casiab derives membership from condition and sequence index:
    the first four normal-walk sequences form the gallery, the rest are
    probes.
    """
    entries = []
    for i, (seq, role) in enumerate(sequences_with_roles):
        entries.append((SplitEntry(index=i, label=seq.subject, view=seq.view,
                                   condition=seq.condition,
                                   seq_index=_parse_seq_index(seq.seq_id)), role))
    if protocol == "casiab":
        gallery, probe = [], []
        g_cond, g_set = CASIAB_GALLERY
        for e, _role in entries:
            if e.seq_index is None:
                raise DataError(
                    "casiab protocol needs seq ids like subject-COND-NN-view")
            if e.condition == g_cond and e.seq_index in g_set:
                gallery.append(e)
            elif (e.condition in CASIAB_PROBE_SETS
                  and e.seq_index in CASIAB_PROBE_SETS[e.condition]):
                probe.append(e)
        return GalleryProbeSplit(gallery=gallery, probe=probe, protocol="casiab")
    if protocol == "oumvlp":
        gallery = [e for e, _r in entries if e.seq_index == 1]
        probe = [e for e, _r in entries if e.seq_index == 0]
        return GalleryProbeSplit(gallery=gallery, probe=probe, protocol="oumvlp")
    if protocol == "grew":
        by_subject = {}
        for e, _r in entries:
            by_subject.setdefault(e.label, []).append(e)
        gallery, probe = [], []
        for label in sorted(by_subject):
            es = sorted(by_subject[label], key=lambda e: e.index)
            probe.extend(es[:2])
            gallery.extend(es[2:])
        return GalleryProbeSplit(gallery=gallery, probe=probe, protocol="grew")
    # simple / gait3d: manifest roles decide
    gallery = [e for e, role in entries if role == "gallery"]
    probe = [e for e, role in entries if role == "probe"]
    return GalleryProbeSplit(gallery=gallery, probe=probe, protocol=protocol)


def cross_domain_eval(checkpoint_path, sequences_with_roles, protocol: str,
                      metric: str = "euclidean") -> EvalResult:
    """Evaluate a trained model on any target set, classifier ignored.

    This is the single evaluation path: same-domain evaluation is the
    special case where the target set is the source's own split.
    """
    sequences = [s for s, _r in sequences_with_roles]
    embeddings = embed_dataset(sequences, checkpoint_path)
    split = build_split(sequences_with_roles, protocol)
    return evaluate_split(split, embeddings, metric)


def write_results(path, result: EvalResult):
    """One record per protocol cell plus summary records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"protocol\t{result.protocol}\n")
        for condition, pv, gv, acc in result.cells:
            fh.write(f"cell\t{condition}\t{pv}\t{gv}\t{acc:.6f}\n")
        for w in result.warnings:
            fh.write(f"warning\t{w}\n")
        for condition in sorted(result.accuracies):
            fh.write(f"summary\t{condition}\t{result.accuracies[condition]:.6f}\n")
        fh.write(f"summary\tmean\t{result.mean:.6f}\n")


# -- feature heatmap ----------------------------------------------------


def heatmap_dump(model, unified_sequence, out_path):
    """Write the final-block per-keypoint features for one sequence as
    a 17-row tab-delimited matrix (rows keypoints, columns channels),
    aggregated over frames by max."""
    view = detached_view(model)
    desc = build_descriptors(unified_sequence)
    inputs = descriptor_inputs(model.config,
                               desc.joint[None], desc.bone[None], desc.angle[None])
    result = network_forward(view, inputs, training=False,
                             update_stats=False, capture=True)
    first_branch = model.config.branches[0]
    f_m = result.captures[f"f_m/{first_branch}"][0]  # (T, V, C)
    matrix = f_m.max(axis=0)                          # (V, C)
    with open(out_path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write("\t".join(f"{x:.9e}" for x in row) + "\n")
    return matrix
