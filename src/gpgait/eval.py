"""Embedding extraction, distances, rank-1 protocols and feature dumps.

Retrieval uses Euclidean distance over the concatenation of all
per-part metric features (the space the triplet loss shapes); cosine
distance is available behind a flag. The cross-view protocol evaluates
every (probe view, gallery view) cell with the two views different,
averages cells with equal weight per condition, and skips missing cells
with a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .config import read_header
from .errors import DataError
from .hod import build_descriptors, describe
from .pagcn import (
    blank_model,
    branch_forward,
    descriptor_inputs,
    load_model_tensors,
    metric_features,
)
from . import checkpoint as ckpt
from . import hot as hot_mod
from .train import keep_freed_memory

CASIAB_PROBE_SETS = {"NM": (5, 6), "BG": (1, 2), "CL": (1, 2)}
CASIAB_GALLERY = ("NM", (1, 2, 3, 4))
# floats in one block of probe-gallery differences, or of the Gram screen's
# gathered rows (16 MB), which bounds the memory of distances and rank-1
# whatever the gallery size
DISTANCE_BLOCK = 2_000_000
# float64 unit roundoff u = 2^-53 (Higham's notation)
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


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
    model = blank_model(net_cfg)
    load_model_tensors(model, tensors)
    return run_cfg, model, header, tensors


def embed_unified(model, unified_sequences) -> np.ndarray:
    """(S, num_parts, D) metric features, inference mode, in input order.

    Full sequences are used (no frame sampling). Sequences of equal
    length form one group, which ``pagcn.metric_features`` runs one
    chunk of whole sequences at a time: it asks for the chunk's
    descriptors (one ``describe`` call) just before the chunk's blocks
    and pooling, and runs the heads once over the group. A group of
    consecutive sequences, such as the only group when all lengths are
    equal, writes its rows in place; any other goes through one
    group-sized array.
    """
    cfg = model.config
    out = np.empty((len(unified_sequences), cfg.num_parts, cfg.embed_dim))
    by_len = {}
    for i, u in enumerate(unified_sequences):
        by_len.setdefault(u.num_frames, []).append(i)
    for t, indices in sorted(by_len.items()):
        def chunk_inputs(lo, hi, indices=indices):
            return descriptor_inputs(cfg, **describe(
                np.stack([unified_sequences[i].frames for i in indices[lo:hi]])))

        first, n = indices[0], len(indices)
        if indices[-1] - first == n - 1:
            metric_features(model, n, t, chunk_inputs, out[first:first + n])
        else:
            out[indices] = metric_features(model, n, t, chunk_inputs)
    return out


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


def _nearest_exact(flat, probe_rows, gallery_rows) -> tuple:
    """(position in ``gallery_rows``, Euclidean distance) of each probe
    row's nearest gallery row of ``flat``: the argmin of its row of
    ``pairwise_distances``, lowest index on ties and the first NaN
    before any number, over ``_block_rows`` blocks gathered one at a
    time."""
    p_rows, g_rows = _block_rows(len(probe_rows), len(gallery_rows), flat.shape[1])
    nearest = np.empty(len(probe_rows), dtype=np.intp)
    nearest_dist = np.empty(len(probe_rows))
    for i in range(0, len(probe_rows), p_rows):
        probes = flat[probe_rows[i:i + p_rows]]
        mins, at = [], []
        for j in range(0, len(gallery_rows), g_rows):
            dist = pairwise_distances(probes, flat[gallery_rows[j:j + g_rows]],
                                      "euclidean")
            mins.append(dist.min(axis=1))
            at.append(dist.argmin(axis=1) + j)
        # the first block holding a row's smallest distance (or its first
        # NaN), which is where argmin over the whole row finds it
        first, cols = np.argmin(mins, axis=0), np.arange(len(probes))
        nearest[i:i + p_rows] = np.array(at)[first, cols]
        nearest_dist[i:i + p_rows] = np.array(mins)[first, cols]
    return nearest, nearest_dist


def _nearest_cosine(flat, probe_rows, gallery_rows) -> np.ndarray:
    """Position in ``gallery_rows`` of each probe row's nearest gallery
    row of ``flat`` by cosine distance ``1 - p.g / (|p| |g|)``, each norm
    floored at 1e-12: lowest index on ties, the first NaN before any
    number.

    Each row is normalized once. The gallery norms are computed once,
    over blocks of ``_screen_rows`` rows; each block of that many probes
    is divided by its norms, then for each gallery block one GEMM of the
    normalized probes with the raw gallery rows, divided by the gallery
    norms, gives the (P_b, G_b) similarities. So the gathered blocks and
    the distances each hold at most ``DISTANCE_BLOCK`` floats. These are
    ``pairwise_distances``' cosine distances up to rounding: their last
    bits can move with the block shape (BLAS may sum a product of
    another shape in another order) and differ from the full matrix's,
    and so can the index of a near tie. Rows that are exact duplicates
    get equal distances.
    """
    rows = _screen_rows(flat.shape[1])
    g_norm = np.empty(len(gallery_rows))
    for j in range(0, len(gallery_rows), rows):
        g_norm[j:j + rows] = np.linalg.norm(flat[gallery_rows[j:j + rows]], axis=1)
    np.maximum(g_norm, 1e-12, out=g_norm)
    nearest = np.empty(len(probe_rows), dtype=np.intp)
    for i in range(0, len(probe_rows), rows):
        probes = flat[probe_rows[i:i + rows]]
        probes /= np.maximum(np.linalg.norm(probes, axis=1, keepdims=True), 1e-12)
        for j in range(0, len(gallery_rows), rows):
            dist = probes @ flat[gallery_rows[j:j + rows]].T
            dist /= g_norm[j:j + rows]
            np.subtract(1.0, dist, out=dist)
            low, at = dist.min(axis=1), dist.argmin(axis=1) + j
            if j == 0:
                best, nearest[i:i + rows] = low, at
                continue
            # a later block wins only with a NaN or a strictly smaller
            # distance, and never over a NaN
            take = ~np.isnan(best) & (np.isnan(low) | (low < best))
            best[take] = low[take]
            nearest[i:i + rows][take] = at[take]
    return nearest


def _screen_rows(d: int) -> int:
    """Probe and gallery rows of one Gram-screen block: both gathered
    blocks hold at most DISTANCE_BLOCK floats, and so do the screen's
    four (P_b, G_b) float arrays together."""
    return max(1, min(DISTANCE_BLOCK // max(1, d), math.isqrt(DISTANCE_BLOCK) // 2))


def nearest_gallery(embeddings: np.ndarray, probe_rows, gallery_rows,
                    metric: str = "euclidean") -> np.ndarray:
    """Position in ``gallery_rows`` of each probe row's nearest gallery
    row of ``embeddings``: the argmin of its row of
    ``pairwise_distances``, lowest index on ties, the first NaN before
    any number. Memory does not grow with P or G.

    Cosine distances are one product already, over bounded blocks of
    rows normalized once (``_nearest_cosine``). Euclidean ones are
    screened first. Each block of ``_screen_rows`` probes and gallery
    rows estimates the squared distances as ``q = |p|^2 + |g|^2 - 2
    p.g`` from one GEMM. For each entry it bounds how far ``q`` can lie
    from ``r``, the squared distance ``pairwise_distances`` computes
    before its square root. It then keeps every entry whose lower bound
    ``q - b`` is at most ``(1 + 8u)`` times the smallest upper bound ``q
    + b`` of the row so far. The kept entries are rechecked through
    ``pairwise_distances`` (``_nearest_exact``), and the best so far of
    each row is replaced only by a NaN or a strictly smaller distance.
    Blocks come in gallery order, so ties keep the lowest index.

    The bound. Let u = 2^-53 be the unit roundoff, s = |p|^2 + |g|^2 and
    Q = |p - g|^2 exactly. Higham (*Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 3.1) bounds a computed dot product of
    length D, in any order of summation, by |fl(x.y) - x.y| <= g_D
    |x|.|y|, where g_n = nu / (1 - nu). An FMA only tightens this. So:

    - each squared norm is off by at most g_D times itself;
    - the GEMM entry is off by at most g_D |p||g| <= g_D s / 2, so 2 p.g
      is off by at most g_D s;
    - the sum of the norms and the subtraction add one rounding each,
      on values of at most s and Q + O(u s) <= 2 s + O(u s).

    Hence |q - Q| <= (2 g_D + 3u) s + O(u^2 s). The exact path rounds
    each difference and each square once and then sums D terms, so
    |r - Q| <= g_(D+2) Q <= 2 g_(D+2) s, since Q <= 2 s. Together |q -
    r| <= (4D + 7) u s + O(D^2 u^2 s). The code takes b = (4D + 32) u s,
    with s from the computed norms, which are at least (1 - g_D) s. The
    spare 25 u s covers that, the rounding of b itself, and the
    rounding of q - b and q + b (at most 3 u s each), as long as D <
    2^26. Every embedding layout here is far below that. Higham's model
    leaves out underflow: a product that underflows rounds with an
    absolute error of up to half the smallest subnormal. The norms, the
    doubled GEMM entry and the exact squares hold at most 5D such
    products, less than one smallest normal number ``t`` in all for any
    D below 2^50. The code adds ``4 t`` to b to cover them, with ``3 t``
    to spare on each side.

    Why the factor (1 + 8u). Exclude j only when its lower bound
    exceeds (1 + 8u) U, where U is the smallest upper bound, held by
    some entry k. With the spare ``3 t``, r_j > (1 + 6u) r_k + 5 t after
    the product's rounding. A correctly rounded square root then keeps
    the two distances strictly ordered: sqrt(r_j) (1 - u) > sqrt(r_k) (1
    + u) when r_k is a normal number, and sqrt(r_j) > sqrt(5 t) > sqrt(t)
    > sqrt(r_k) otherwise. So an excluded entry is strictly farther than
    k. It can be neither the row's argmin nor a tie with it.

    An entry whose bound or upper bound is not finite (a NaN or
    infinite coordinate, or norms that overflow) is always kept.
    """
    if not len(gallery_rows):
        raise DataError("empty gallery")
    flat = flatten_embeddings(embeddings)
    probe_rows, gallery_rows = np.asarray(probe_rows), np.asarray(gallery_rows)
    if metric == "cosine":
        return _nearest_cosine(flat, probe_rows, gallery_rows)
    if metric != "euclidean":
        raise DataError(f"unknown distance metric {metric!r}")
    d = flat.shape[1]
    tau = (4 * d + 32) * UNIT_ROUNDOFF
    slack = 4 * np.finfo(np.float64).tiny
    widen = 1.0 + 8 * UNIT_ROUNDOFF
    rows = _screen_rows(d)
    nearest = np.empty(len(probe_rows), dtype=np.intp)
    for i in range(0, len(probe_rows), rows):
        block_rows = probe_rows[i:i + rows]
        probes = flat[block_rows]
        p_sq = np.einsum("ij,ij->i", probes, probes)
        smallest_upper = np.full(len(probes), np.inf)
        best = np.full(len(probes), np.inf)
        at = np.full(len(probes), -1, dtype=np.intp)
        for j in range(0, len(gallery_rows), rows):
            gallery = flat[gallery_rows[j:j + rows]]
            s = p_sq[:, None] + np.einsum("ij,ij->i", gallery, gallery)
            q = probes @ gallery.T
            q *= -2.0
            q += s                       # the Gram estimate of |p - g|^2
            s *= tau
            s += slack                   # the bound b
            upper = q + s
            known = np.isfinite(upper)
            np.minimum(smallest_upper, np.where(known, upper, np.inf).min(axis=1),
                       out=smallest_upper)
            q -= s                       # lower bounds
            keep = ~known | (q <= smallest_upper[:, None] * widen)
            for r in np.flatnonzero(keep.any(axis=1)):
                cols = np.flatnonzero(keep[r])
                (pos,), (dist,) = _nearest_exact(flat, block_rows[r:r + 1],
                                                 gallery_rows[j + cols])
                if at[r] < 0 or (not np.isnan(best[r])
                                 and (np.isnan(dist) or dist < best[r])):
                    best[r], at[r] = dist, j + cols[pos]
        nearest[i:i + rows] = at
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
    back to the kernel.

    What a pass holds that grows with the number of sequences: the
    loaded and the unified sequences, one (N, S, C) array of pooled
    slots per length group and the (N, S, D) embeddings. Descriptors,
    block outputs and pooling temporaries are built per chunk of whole
    sequences (``embed_unified``), and inference stops at the metric
    features, so no classifier logits are computed whatever the
    checkpoint's class count. Rank-1 (``nearest_gallery``) runs over
    bounded blocks of probes and gallery: its time grows as P x G x D
    in one GEMM per block plus an exact recheck of about one gallery
    entry per probe, its memory not at all.
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
