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

from .autodiff import Tensor
from .config import read_header
from .errors import DataError
from .hod import build_descriptors, describe
from .pagcn import (
    branch_forward,
    descriptor_inputs,
    load_model_tensors,
    init_model,
    network_forward,
)
from . import checkpoint as ckpt
from . import hot as hot_mod
from .train import keep_freed_memory

CASIAB_PROBE_SETS = {"NM": (5, 6), "BG": (1, 2), "CL": (1, 2)}
CASIAB_GALLERY = ("NM", (1, 2, 3, 4))
# floats in one block of probe-gallery differences (16 MB), which bounds
# the memory of distances and rank-1 whatever the gallery size
DISTANCE_BLOCK = 2_000_000


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


def load_checkpoint(path):
    """(settings, model, header, tensors) of a checkpoint file: the
    ``RunConfig`` its header records (``config.read_header``) and its
    model, built from that and loaded with its tensors."""
    header, tensors = ckpt.load_container(path)
    run_cfg, net_cfg = read_header(header, path)
    model = init_model(net_cfg, seed=0)
    load_model_tensors(model, tensors)
    return run_cfg, model, header, tensors


def embed_unified(model, unified_sequences) -> np.ndarray:
    """(S, num_parts, D) metric features, inference mode.

    Full sequences are used (no frame sampling). Sequences of equal
    length are batched together, their descriptors built by one
    ``describe`` call per length, and run through one inference
    ``network_forward``, whose blocks and pooling take them in chunks of
    whole sequences; results are returned in input order.
    """
    cfg = model.config
    out = [None] * len(unified_sequences)
    by_len = {}
    for i, u in enumerate(unified_sequences):
        by_len.setdefault(u.num_frames, []).append(i)
    for _t, indices in sorted(by_len.items()):
        inputs = descriptor_inputs(cfg, **describe(
            np.stack([unified_sequences[i].frames for i in indices])))
        result = network_forward(model, inputs, training=False)
        emb = result.embedding_matrix()
        for row, i in enumerate(indices):
            out[i] = emb[row]
    return np.stack(out)


def embed_dataset(sequences, checkpoint_path) -> np.ndarray:
    """Raw sequences -> embeddings via the checkpoint's own pipeline."""
    run_cfg, model = load_checkpoint(checkpoint_path)[:2]
    return embed_unified(model, hot_mod.unify_sequences(sequences, run_cfg.hot_config()))


# -- distances and rank-1 ----------------------------------------------


def flatten_embeddings(emb: np.ndarray) -> np.ndarray:
    """(S, num_parts, D) -> (S, num_parts * D)."""
    return emb.reshape(emb.shape[0], -1)


def _block_rows(p: int, g: int, d: int) -> tuple:
    """(probe rows, gallery rows) of a block of the (P, G) distances
    whose (P_b, G_b, D) differences hold at most DISTANCE_BLOCK floats:
    as many gallery rows as fit, then as many probe rows as fit beside
    them, at least one of each."""
    g_rows = max(1, min(g, DISTANCE_BLOCK // max(1, d)))
    return max(1, min(p, DISTANCE_BLOCK // max(1, g_rows * d))), g_rows


def pairwise_distances(probe: np.ndarray, gallery: np.ndarray,
                       metric: str = "euclidean") -> np.ndarray:
    """(P, G) distance matrix over flattened part features, in one
    block: the caller bounds P x G x D (``nearest_gallery`` passes
    ``_block_rows`` blocks)."""
    p = flatten_embeddings(probe) if probe.ndim == 3 else probe
    g = flatten_embeddings(gallery) if gallery.ndim == 3 else gallery
    if p.shape[1] != g.shape[1]:
        raise DataError(
            f"embedding layouts differ: {p.shape[1]} vs {g.shape[1]}")
    if metric == "euclidean":
        # direct differences: exact zeros for identical rows, no
        # catastrophic cancellation
        diff = p[:, None, :] - g[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))
    if metric == "cosine":
        pn = p / np.maximum(np.linalg.norm(p, axis=1, keepdims=True), 1e-12)
        gn = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-12)
        return 1.0 - pn @ gn.T
    raise DataError(f"unknown distance metric {metric!r}")


def nearest_gallery(embeddings: np.ndarray, probe_rows, gallery_rows,
                    metric: str = "euclidean") -> np.ndarray:
    """Position in ``gallery_rows`` of each probe row's nearest gallery
    row of ``embeddings``: the argmin of its row of
    ``pairwise_distances``, lowest index on ties, taken over
    ``_block_rows`` blocks of probes and gallery gathered one at a time,
    so memory does not grow with P or G."""
    if not len(gallery_rows):
        raise DataError("empty gallery")
    flat = flatten_embeddings(embeddings)
    probe_rows, gallery_rows = np.asarray(probe_rows), np.asarray(gallery_rows)
    p_rows, g_rows = _block_rows(len(probe_rows), len(gallery_rows), flat.shape[1])
    nearest = np.empty(len(probe_rows), dtype=np.intp)
    for i in range(0, len(probe_rows), p_rows):
        probes = flat[probe_rows[i:i + p_rows]]
        mins, at = [], []
        for j in range(0, len(gallery_rows), g_rows):
            dist = pairwise_distances(probes, flat[gallery_rows[j:j + g_rows]], metric)
            mins.append(dist.min(axis=1))
            at.append(dist.argmin(axis=1) + j)
        # the first block holding a row's smallest distance (or its first
        # NaN), which is where argmin over the whole row finds it
        first = np.argmin(mins, axis=0)
        nearest[i:i + p_rows] = np.array(at)[first, np.arange(len(first))]
    return nearest


def rank1(embeddings: np.ndarray, probes, gallery, metric: str = "euclidean") -> float:
    """Fraction of the probe ``SplitEntry`` list whose nearest gallery
    entry (``nearest_gallery``, lowest index on ties) shares its label."""
    nearest = nearest_gallery(embeddings, [e.index for e in probes],
                              [e.index for e in gallery], metric)
    gallery_labels = np.asarray([e.label for e in gallery])
    return float(np.mean(gallery_labels[nearest]
                         == np.asarray([e.label for e in probes])))


def rank1_casiab(split: GalleryProbeSplit, embeddings: np.ndarray,
                 metric: str = "euclidean") -> EvalResult:
    """Cross-view rank-1 averaged over view pairs, per condition.

    For every probe view / gallery view pair with the views different,
    rank-1 is computed over the gallery restricted to that view; cells
    are averaged per condition with equal weight. Identical-view cells
    are structurally excluded. A split with no cell to score (say, a
    single view) is a ``DataError``.
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
                acc = rank1(embeddings, probes, gals, metric)
                accs.append(acc)
                result.cells.append((condition, pv, gv, acc))
        result.accuracies[condition] = float(np.mean(accs)) if accs else float("nan")
    if not result.cells:
        raise DataError(
            "casiab protocol has no cross-view cell to score: no probe view has "
            "gallery sequences of another view (probe views "
            f"{sorted({e.view for e in split.probe})}, gallery views "
            f"{sorted({e.view for e in split.gallery})})")
    return result


def evaluate_split(split: GalleryProbeSplit, embeddings: np.ndarray,
                   metric: str = "euclidean") -> EvalResult:
    """Protocol dispatch, after refusing an empty gallery or probe set
    (``DataError``). Non-cross-view protocols reduce to plain rank-1
    over the whole gallery."""
    if not split.gallery:
        raise DataError("empty gallery")
    if not split.probe:
        raise DataError("empty probe set")
    if split.protocol == "casiab":
        return rank1_casiab(split, embeddings, metric)
    acc = rank1(embeddings, split.probe, split.gallery, metric)
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

    simple / gait3d / grew trust (or derive from) manifest roles;
    casiab derives membership from condition and sequence index (the
    first four normal-walk sequences form the gallery, the rest are
    probes), oumvlp from the sequence index alone (#01 gallery, #00
    probe). Under these two a seq id without a sequence index is a
    ``DataError``.

    A seq_id listed twice (so a sequence that is both probe and
    gallery, which would match itself at distance 0) is a ``DataError``.
    """
    roles = {}
    for seq, role in sequences_with_roles:
        if seq.seq_id in roles:
            raise DataError(f"sequence {seq.seq_id!r} listed twice in the manifest "
                            f"(as {roles[seq.seq_id]} and as {role})")
        roles[seq.seq_id] = role
    entries = []
    for i, (seq, role) in enumerate(sequences_with_roles):
        seq_index = _parse_seq_index(seq.seq_id)
        if seq_index is None and protocol in ("casiab", "oumvlp"):
            raise DataError(f"{protocol} protocol needs seq ids like "
                            f"subject-COND-NN-view, got {seq.seq_id!r}")
        entries.append((SplitEntry(index=i, label=seq.subject, view=seq.view,
                                   condition=seq.condition,
                                   seq_index=seq_index), role))
    if protocol == "casiab":
        gallery, probe = [], []
        g_cond, g_set = CASIAB_GALLERY
        for e, _role in entries:
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

    It first sets the allocator to keep freed memory
    (``train.keep_freed_memory``), for the rest of the process, as
    ``train_loop`` does: a pass then reuses the pages the previous one
    freed. A steady-state pass over 42 sequences of 60 frames with the
    toy network takes 0-20 minor page faults so, against about 16,600
    with glibc's defaults, which hand the forward's 1.8 MB chunk arrays
    back to the kernel. The forward runs in chunks of whole sequences
    and rank-1 over bounded blocks of probes and gallery
    (``nearest_gallery``), so a pass holds no array that grows with the
    number of sequences but the sequences, their descriptors and the
    embeddings.
    """
    keep_freed_memory()
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
    """Write the final-block per-keypoint features of the first branch
    for one sequence as a 17-row tab-delimited matrix (rows keypoints,
    columns channels), aggregated over frames by max."""
    desc = build_descriptors(unified_sequence)
    first_branch = model.config.branches[0]
    inputs = descriptor_inputs(model.config, **{name: d[None] for name, d in
                                                desc.items()})[first_branch]
    f_m = branch_forward(Tensor(inputs), model.branches[first_branch],
                         model.adjacency, model.masks, training=False)
    matrix = f_m.data[0].max(axis=0)  # (T, V, C) -> (V, C)
    with open(out_path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write("\t".join(f"{x:.9e}" for x in row) + "\n")
    return matrix
