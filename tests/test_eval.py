import copy
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import reference as ref
from gpgait import eval as ev
from gpgait import hot, pagcn
from gpgait.errors import DataError
from gpgait.hot import HotConfig, apply_hot, unify_sequences
from gpgait.pagcn import NetworkConfig, init_model
from gpgait.synth import CameraSpec, generate_sequence, make_identities


def tiny_model(classes=3, seed=2):
    cfg = NetworkConfig(num_classes=classes, parts5_channels=(4,),
                        larger_schemes=("global",), larger_channels=4,
                        embed_dim=4)
    return init_model(cfg, seed=seed)


def unified_sequences(n_ids=3, seqs=2, frames=8, seed=5, jitter=0.4):
    identities = make_identities(n_ids, seed)
    cam = CameraSpec(jitter_sigma=jitter)
    out = []
    for i, ident in enumerate(identities):
        for j in range(seqs):
            seq = generate_sequence(ident, cam, frames, seed + i * 17 + j * 3,
                                    seq_id=f"{ident.identity}-NM-{j:02d}-000")
            out.append(apply_hot(seq, HotConfig()))
    return out


def _splits(items, smallest):
    """Every split of ``items`` into groups of at least ``smallest``."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for mask in range(1 << len(rest)):
        group = [first] + [x for k, x in enumerate(rest) if mask >> k & 1]
        if len(group) < smallest:
            continue
        others = [x for k, x in enumerate(rest) if not mask >> k & 1]
        for tail in _splits(others, smallest):
            yield [group] + tail


class TestEmbed:
    def test_duplicate_identical(self):
        model = tiny_model()
        useqs = unified_sequences(n_ids=2, seqs=1)
        emb = ev.embed_unified(model, useqs + [useqs[0]])
        np.testing.assert_array_equal(emb[0], emb[-1])

    def test_batch_partition_invariance(self):
        """Every split of the sequences into groups of two or more, each
        group in either order, embeds bit-identically to one call. One
        sequence alone differs by rounding only (measured 1.4e-14): its
        heads' one-row products take BLAS's matrix-vector path."""
        model = tiny_model()
        useqs = unified_sequences(n_ids=3, seqs=2)
        batched = ev.embed_unified(model, useqs)
        splits = list(_splits(list(range(len(useqs))), smallest=2))
        assert len(splits) == 41
        for groups in splits:
            for order in (1, -1):
                got = np.empty_like(batched)
                for group in groups:
                    group = group[::order]
                    got[group] = ev.embed_unified(model, [useqs[i] for i in group])
                np.testing.assert_array_equal(got, batched, err_msg=str(groups))
        single = np.stack([ev.embed_unified(model, [u])[0] for u in useqs])
        np.testing.assert_allclose(single, batched, rtol=0, atol=1e-12)

    def test_passthrough_drops_non_finite_frames(self):
        """Without HOT a NaN coordinate drops its frame instead of making
        the sequence's embedding NaN."""
        model = tiny_model()
        ident = make_identities(2, 3)[0]
        seq = generate_sequence(ident, CameraSpec(jitter_sigma=0.4), 6, 11,
                                seq_id=f"{ident.identity}-NM-05-000")
        clean = copy.deepcopy(seq)
        clean.frames = np.delete(clean.frames, 3, axis=0)
        seq.frames[3, 0, 0] = np.nan
        raw = HotConfig(use_hot=False)
        emb = ev.embed_unified(model, unify_sequences([seq], raw))
        assert np.isfinite(emb).all()
        np.testing.assert_array_equal(
            emb, ev.embed_unified(model, unify_sequences([clean], raw)))

    def test_tiny_sequence(self):
        model = tiny_model()
        useqs = unified_sequences(n_ids=2, seqs=1, frames=2)
        emb = ev.embed_unified(model, useqs)
        assert emb.shape == (2, 18, 4)
        assert np.isfinite(emb).all()


def _toy_model(classes=6):
    from gpgait.config import build_run_config
    return init_model(build_run_config(preset="toy").network_config(
        num_classes=classes), seed=1)


def _embed_peak(model, useqs) -> int:
    """tracemalloc peak, in bytes, of one ``embed_unified`` call."""
    ev.embed_unified(model, useqs[:1])       # first-call caches out of the peak
    tracemalloc.start()
    try:
        ev.embed_unified(model, useqs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEmbedChunks:
    """``embed_unified`` describes, runs and pools one chunk of whole
    sequences at a time and runs the heads once per length group."""

    def test_mixed_lengths_equal_per_length_calls(self, monkeypatch):
        """Each length group's rows equal a call on that group alone,
        groups of consecutive rows and scattered ones, whatever the
        chunk size."""
        model = tiny_model()
        useqs = unified_sequences(n_ids=3, seqs=2, frames=8)
        useqs += unified_sequences(n_ids=2, seqs=1, frames=5, seed=8)
        useqs.insert(2, unified_sequences(n_ids=2, seqs=1, frames=5, seed=9)[0])
        lengths = [u.num_frames for u in useqs]
        whole = ev.embed_unified(model, useqs)
        for budget in (5, 16, 40):
            monkeypatch.setattr(hot, "CHUNK_FRAMES", budget)
            np.testing.assert_array_equal(ev.embed_unified(model, useqs), whole)
        for t in set(lengths):
            rows = [i for i, n in enumerate(lengths) if n == t]
            np.testing.assert_array_equal(
                whole[rows], ev.embed_unified(model, [useqs[i] for i in rows]))

    def test_peak_grows_by_pooled_array_and_embeddings(self):
        """From 42 to 672 sequences of 70 frames (chunks of 7 sequences
        either way), the traced peak grows by at most the extra
        sequences' pooled (N, S, C) array and embeddings (N, S, D),
        ``dN * S * (C + D) * 8`` bytes, plus 256 KB for the interpreter's
        free lists, which fill over the first few dozen chunks and then
        stop growing (measured +120 KB from 42 to 1,344 sequences).
        Descriptors, block outputs and classifier logits do not grow
        with N."""
        model = _toy_model()
        base = unified_sequences(n_ids=6, seqs=7, frames=70, seed=3)
        assert len(base) == 42 and {u.num_frames for u in base} == {70}
        assert pagcn._sequence_chunks(42, 70)[0] == (0, 7)
        assert pagcn._sequence_chunks(672, 70)[0] == (0, 7)
        peaks = {n: _embed_peak(model, (base * 16)[:n]) for n in (42, 672)}
        cfg = model.config
        channels = cfg.larger_channels
        allowed = ((672 - 42) * cfg.num_parts * (channels + cfg.embed_dim) * 8
                   + 256 * 1024)
        assert peaks[672] - peaks[42] <= allowed, (peaks, allowed)

    def test_peak_independent_of_class_count(self):
        """A 5,000-class checkpoint embeds within 5% of the traced peak
        of a 6-class one: inference computes no classifier logits."""
        useqs = unified_sequences(n_ids=6, seqs=7, frames=60, seed=3)
        peaks = {k: _embed_peak(_toy_model(k), useqs) for k in (6, 5000)}
        assert peaks[5000] <= 1.05 * peaks[6], peaks


class TestDistances:
    def test_identical_zero(self, rng):
        e = rng.normal(size=(3, 18, 4))
        d = ev.pairwise_distances(e, e)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)

    def test_scaling(self):
        e = np.zeros((1, 2, 2))
        e[0, 0] = [3.0, 4.0]
        d = ev.pairwise_distances(e, 2.0 * e)
        assert d[0, 0] == pytest.approx(5.0)

    def test_scalar_oracle(self, rng):
        p = rng.normal(size=(3, 6, 2))
        g = rng.normal(size=(4, 6, 2))
        mine = ev.pairwise_distances(p, g)
        expect = ref.ref_pairwise_distances(
            p.reshape(3, -1), g.reshape(4, -1))
        np.testing.assert_allclose(mine, expect, atol=1e-9)

    def test_layout_mismatch(self, rng):
        with pytest.raises(DataError, match="layout"):
            ev.pairwise_distances(rng.normal(size=(2, 4)),
                                  rng.normal(size=(2, 5)))

    def test_cosine_flag(self, rng):
        p = rng.normal(size=(2, 5))
        d = ev.pairwise_distances(p, p, metric="cosine")
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        p = rng.normal(size=(4, 7))
        g = rng.normal(size=(5, 7))
        d = ev.pairwise_distances(p, g)
        pp = rng.permutation(4)
        gp = rng.permutation(5)
        d2 = ev.pairwise_distances(p[pp], g[gp])
        np.testing.assert_allclose(d2, d[np.ix_(pp, gp)], atol=1e-12)


def _entries(labels, first_row=0):
    return [ev.SplitEntry(index=first_row + i, label=label, view="000",
                          condition="NM")
            for i, label in enumerate(labels)]


def _rank1(probe, gallery, probe_labels, gallery_labels):
    """``ev.rank1`` of probe and gallery embeddings (gallery rows
    first), checked against the scalar oracle on their distances."""
    emb = np.concatenate([gallery, probe])
    acc = ev.rank1(emb, _entries(probe_labels, first_row=len(gallery)),
                   _entries(gallery_labels))
    assert acc == ref.ref_rank1(ref.ref_pairwise_distances(probe, gallery),
                                list(probe_labels), list(gallery_labels))
    return acc


class TestRank1Simple:
    """Rank-1 over one whole gallery, as the ``simple`` protocol takes it."""

    def test_hand_case_two_thirds(self):
        gallery = np.array([[0.0], [10.0], [20.0]])
        probe = np.array([[0.1], [10.1], [10.2]])   # the last one nearest "b"
        assert _rank1(probe, gallery, "abc", "abc") == pytest.approx(2.0 / 3.0)

    def test_exact_gallery_match(self, rng):
        emb = rng.normal(size=(5, 6))
        entries = _entries(range(5))
        assert ev.rank1(emb, entries, entries) == 1.0

    def test_single_wrong(self):
        assert _rank1(np.array([[1.0]]), np.array([[0.0]]), "a", "b") == 0.0

    def test_brute_force_up_to_50(self, monkeypatch, rng):
        """Small integer features: many ties, all exact; blocks of one
        pair, of a few rows, and the whole matrix."""
        for _ in range(20):
            monkeypatch.setattr(ev, "DISTANCE_BLOCK", int(rng.choice([3, 20, 2_000_000])))
            p = int(rng.integers(1, 51))
            g = int(rng.integers(1, 51))
            _rank1(rng.integers(0, 3, size=(p, 3)).astype(float),
                   rng.integers(0, 3, size=(g, 3)).astype(float),
                   rng.integers(0, 5, size=p), rng.integers(0, 5, size=g))

    def test_tie_breaks_lowest_index(self):
        probe, gallery = np.array([[0.0]]), np.array([[-0.5], [0.5]])
        assert _rank1(probe, gallery, "x", "xy") == 1.0
        assert _rank1(probe, gallery, "x", "yx") == 0.0

    def test_empty_gallery(self):
        with pytest.raises(DataError, match="empty gallery"):
            ev.rank1(np.zeros((2, 3)), _entries("ab"), [])


class TestRank1Blocks:
    """``rank1`` and ``nearest_gallery`` take the argmin of each row of
    ``pairwise_distances`` over blocks of probes and gallery, so the
    (P, G) matrix is never held."""

    # gallery rows 1 and 4, and 2 and 5, are equal: probes on them tie
    GALLERY = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [1.0, 0.0], [0.0, 1.0]]
    PROBES = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [5.0, 5.0]]

    # DISTANCE_BLOCK 1 and 3: one pair a block; 8: gallery blocks of
    # rows 0-3 and 4-5, so ties span two blocks
    @pytest.mark.parametrize("block", [1, 3, 8, 2_000_000])
    def test_hand_ties_take_the_lowest_index(self, monkeypatch, block):
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", block)
        emb = np.array(self.GALLERY + self.PROBES)
        gallery = _entries("abcdef")
        probes = _entries("bfad", first_row=6)
        np.testing.assert_array_equal(
            ev.nearest_gallery(emb, range(6, 10), range(6)), [1, 2, 0, 3])
        dist = ev.pairwise_distances(emb[6:], emb[:6])
        assert ev.rank1(emb, probes, gallery) == ref.ref_rank1(
            dist, list("bfad"), list("abcdef")) == 0.75

    @pytest.mark.parametrize("block", [1, 5, 12, 40, 2_000_000])
    def test_random_ties_and_nan_match_argmin(self, monkeypatch, rng, block):
        emb = rng.integers(0, 3, size=(70, 2, 3)).astype(float)
        emb[[5, 33]] = np.nan            # two NaN gallery rows
        probe_rows, gallery_rows = np.arange(40, 70), np.arange(40)
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", block)
        for rows in (gallery_rows, gallery_rows[:5], gallery_rows[6:]):
            np.testing.assert_array_equal(
                ev.nearest_gallery(emb, probe_rows, rows),
                ev.pairwise_distances(emb[probe_rows], emb[rows]).argmin(axis=1))

    def test_cosine_matches_full_matrix(self, monkeypatch, rng):
        emb = rng.normal(size=(30, 4))
        full = ev.pairwise_distances(emb[:10], emb[10:], "cosine").argmin(axis=1)
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", 12)
        np.testing.assert_array_equal(
            ev.nearest_gallery(emb, range(10), range(10, 30), "cosine"), full)

    def test_empty_gallery(self):
        with pytest.raises(DataError, match="empty gallery"):
            ev.nearest_gallery(np.zeros((2, 3)), [0, 1], [])

    def test_peak_flat_in_probes_and_gallery(self, monkeypatch, rng):
        """Four times the probes or the gallery: the traced peak of
        ``evaluate_split`` grows by no more than its per-entry label and
        index arrays (32 KB), not by a (P, G) matrix or gathered copies
        of the embeddings."""
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", 4096)
        emb = rng.normal(size=(800, 16))
        peaks = {}
        for p, g in ((100, 100), (400, 100), (100, 400)):
            split = ev.GalleryProbeSplit(
                gallery=_entries(list(range(g)), first_row=400),
                probe=_entries(list(range(p))), protocol="simple")
            tracemalloc.start()
            try:
                ev.evaluate_split(split, emb)
                peaks[p, g] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) - peaks[100, 100] <= 32 * 1024, peaks


class TestCosineBlocks:
    """Cosine rank-1 normalizes each row once and runs over bounded
    (P_b, G_b) blocks: the indices are those of the argmin of each whole
    row of ``pairwise_distances`` on data without near ties."""

    # 1: one row a block; 24 * 3: blocks of 3 rows at D = 24; 2_000_000:
    # one block
    BLOCKS = [1, 24 * 3, 2_000_000]

    @pytest.mark.parametrize("block", BLOCKS)
    def test_separated_rows_match_the_full_matrix(self, monkeypatch, rng, block):
        emb = rng.normal(size=(70, 3, 8))
        emb[50:] = emb[:20] + 0.05 * rng.normal(size=(20, 3, 8))   # probes
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", block)
        probes, gallery = range(50, 70), range(50)
        full = ev.pairwise_distances(emb[50:], emb[:50], "cosine").argmin(axis=1)
        np.testing.assert_array_equal(full, np.arange(20))
        np.testing.assert_array_equal(
            ev.nearest_gallery(emb, probes, gallery, "cosine"), full)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_exact_duplicates_take_the_lowest_index(self, monkeypatch, rng, block):
        """Gallery rows 3 and 17, 5 and 6, and 9, 10 and 29 are equal,
        and row 12 equals row 4 scaled (the same direction); probes lie
        near each of them."""
        emb = rng.normal(size=(40, 24))
        emb[17], emb[6], emb[10], emb[29] = emb[3], emb[5], emb[9], emb[9]
        emb[12] = 3.0 * emb[4]
        targets = [17, 6, 29, 3, 12]
        emb[30:35] = emb[targets] + 1e-3 * rng.normal(size=(5, 24))
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", block)
        got = ev.nearest_gallery(emb, range(30, 35), range(30), "cosine")
        np.testing.assert_array_equal(got[:4], [3, 5, 9, 3])
        assert got[4] in (4, 12)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_nan_rows_come_first(self, monkeypatch, rng, block):
        emb = rng.normal(size=(30, 24))
        emb[7, 5] = np.nan          # gallery: every distance to it is NaN
        emb[19, 0] = np.nan
        emb[27, 3] = np.nan         # a probe: its whole row is NaN
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", block)
        for gallery in (range(25), range(8, 25)):
            with np.errstate(invalid="ignore"):
                full = ev.pairwise_distances(emb[25:], emb[list(gallery)],
                                             "cosine").argmin(axis=1)
                got = ev.nearest_gallery(emb, range(25, 30), gallery, "cosine")
            np.testing.assert_array_equal(got, full)
            first_nan = 7 if gallery[0] == 0 else 19 - 8
            np.testing.assert_array_equal(got, [first_nan] * 2 + [0] + [first_nan] * 2)

    def test_unknown_metric(self, rng):
        with pytest.raises(DataError, match="unknown distance metric"):
            ev.nearest_gallery(rng.normal(size=(4, 3)), [0], [1, 2], "manhattan")


def _argmin_rows(emb, probe_rows, gallery_rows, metric="euclidean"):
    """The argmin of each probe's whole row of ``pairwise_distances``,
    one probe at a time."""
    flat = ev.flatten_embeddings(np.asarray(emb))
    gallery = flat[list(gallery_rows)]
    return np.array([ev.pairwise_distances(flat[[p]], gallery, metric).argmin()
                     for p in probe_rows])


class TestGramScreen:
    """Euclidean rank-1 screens blocks with ``|p|^2 + |g|^2 - 2 p.g`` and
    rechecks the survivors through ``pairwise_distances``: the indices
    are those of the argmin of every whole row."""

    def test_random_wide_embeddings_over_several_blocks(self, monkeypatch, rng):
        """D = 2304 (18 slots x 128), blocks of 50 rows: 3 probe blocks
        by 6 gallery blocks, and one block of each at full size."""
        emb = rng.normal(size=(420, 18, 128))
        probes, gallery = range(120), range(120, 420)
        expect = _argmin_rows(emb, probes, gallery)
        np.testing.assert_array_equal(ev.nearest_gallery(emb, probes, gallery), expect)
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", 2304 * 50)
        assert ev._screen_rows(2304) == 50
        np.testing.assert_array_equal(ev.nearest_gallery(emb, probes, gallery), expect)

    @pytest.mark.parametrize("block", [1, 64, 2_000_000])
    def test_clustered_duplicates_and_ties(self, monkeypatch, rng, block):
        """Tight clusters, probes duplicated exactly in the gallery,
        repeated gallery rows (exact ties) and an all-zero corner where
        every entry ties."""
        centres = rng.normal(size=(12, 3, 8))
        emb = centres[rng.integers(0, 12, 260)] + 1e-6 * rng.normal(size=(260, 3, 8))
        emb[100:140] = emb[140:180]            # gallery rows tie pairwise
        emb[200:210] = emb[:10]                # probes found exactly
        emb[250:] = 0.0
        emb[90:100] = 0.0                      # probes tying every zero row
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", block)
        probes, gallery = range(100), range(100, 260)
        np.testing.assert_array_equal(ev.nearest_gallery(emb, probes, gallery),
                                      _argmin_rows(emb, probes, gallery))

    @pytest.mark.parametrize("where", ["probe", "gallery", "both"])
    def test_nan_and_infinite_rows(self, monkeypatch, rng, where):
        emb = rng.normal(size=(60, 3, 4))
        if where in ("probe", "both"):
            emb[3, 1, 2] = np.nan
            emb[5, 0, 0] = np.inf
        if where in ("gallery", "both"):
            emb[30, 0, 0] = np.nan
            emb[41, 2, 1] = np.nan
            emb[25, 1, 1] = -np.inf
            emb[50] = 1e200                    # norms overflow
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", 96)
        probes, gallery = range(12), range(12, 60)
        with np.errstate(invalid="ignore", over="ignore"):
            np.testing.assert_array_equal(ev.nearest_gallery(emb, probes, gallery),
                                          _argmin_rows(emb, probes, gallery))

    def test_cosine(self, monkeypatch, rng):
        emb = rng.normal(size=(200, 18, 8))
        emb[150:160] = emb[:10]
        monkeypatch.setattr(ev, "DISTANCE_BLOCK", 144 * 30)
        np.testing.assert_array_equal(
            ev.nearest_gallery(emb, range(40), range(40, 200), "cosine"),
            _argmin_rows(emb, range(40), range(40, 200), "cosine"))

    def test_near_tie_the_gram_form_misorders(self, rng):
        """Gallery rows at distances 1e-3 (1 + k 1e-6) from a probe of
        norm 4.8e4: the exact distances are strictly ordered with the
        nearest last, while the Gram form's rounding (about D u |p|^2,
        6e-4 here, against squared distances of 1e-6) scrambles them.
        Skipping the recheck gives a wrong index."""
        d, k = 2304, 40
        probe = 1e3 + rng.normal(size=d)
        steps = rng.normal(size=(k, d))
        steps *= (1e-3 * (1 + 1e-6 * np.arange(k)[::-1]) /
                  np.linalg.norm(steps, axis=1))[:, None]
        emb = np.vstack([probe, probe + steps])
        gallery = range(1, k + 1)
        expect = _argmin_rows(emb, [0], gallery)
        assert expect.tolist() == [k - 1]
        g = emb[1:]
        gram = (emb[0] @ emb[0]) + np.einsum("ij,ij->i", g, g) - 2 * (g @ emb[0])
        assert gram.argmin() != k - 1
        np.testing.assert_array_equal(ev.nearest_gallery(emb, [0], gallery), expect)

    def test_screen_keeps_few_candidates(self, monkeypatch, rng):
        """On well separated embeddings the recheck sees about one
        gallery row per probe, not the gallery."""
        emb = rng.normal(size=(300, 2, 16))
        calls = []
        exact = ev._nearest_exact

        def counting(flat, probe_rows, gallery_rows):
            calls.append(len(gallery_rows))
            return exact(flat, probe_rows, gallery_rows)

        monkeypatch.setattr(ev, "_nearest_exact", counting)
        ev.nearest_gallery(emb, range(100), range(100, 300))
        assert len(calls) == 100 and sum(calls) <= 110, calls


def _casiab_split_2x2():
    """Two identities, two views; gallery has both identities at both
    views, probes are NM sequences at both views."""
    entries_g, entries_p = [], []
    idx = 0
    for label in ("A", "B"):
        for view in ("000", "090"):
            entries_g.append(ev.SplitEntry(index=idx, label=label, view=view,
                                           condition="NM", seq_index=1))
            idx += 1
    for label in ("A", "B"):
        for view in ("000", "090"):
            entries_p.append(ev.SplitEntry(index=idx, label=label, view=view,
                                           condition="NM", seq_index=5))
            idx += 1
    return ev.GalleryProbeSplit(gallery=entries_g, probe=entries_p,
                                protocol="casiab")


class TestRank1Casiab:
    def test_hand_enumerated_cell_average(self):
        split = _casiab_split_2x2()
        # 8 rows: gallery A000,A090,B000,B090 then probe A000,A090,B000,B090
        emb = np.zeros((8, 1, 2))
        # identity A near (0,0), B near (10,10); view adds small offset
        coords = {
            ("A", "000"): (0.0, 0.0), ("A", "090"): (0.3, 0.0),
            ("B", "000"): (10.0, 10.0), ("B", "090"): (10.3, 10.0),
        }
        rows = [("A", "000"), ("A", "090"), ("B", "000"), ("B", "090")] * 2
        for i, key in enumerate(rows):
            emb[i, 0] = coords[key]
        # probe A000 vs gallery view 090: nearest is A090 -> hit, etc.
        result = ev.rank1_casiab(split, emb)
        # every cross-view cell is a perfect hit by construction
        assert result.accuracies["NM"] == 1.0
        assert len(result.cells) == 2  # (000->090) and (090->000)

        # now poison one cell: move probe B at view 000 onto A's cluster
        emb[6, 0] = (0.31, 0.0)
        result = ev.rank1_casiab(split, emb)
        # cell pv=000,gv=090: probes A000 (hit), B000 (now nearest A090: miss)
        # cell pv=090,gv=000: probes A090 (hit), B090 (hit)
        by_cell = {(pv, gv): acc for _c, pv, gv, acc in result.cells}
        assert by_cell[("000", "090")] == pytest.approx(0.5)
        assert by_cell[("090", "000")] == pytest.approx(1.0)
        assert result.accuracies["NM"] == pytest.approx(0.75)

    def test_identical_view_cells_absent(self):
        split = _casiab_split_2x2()
        emb = np.arange(8 * 2, dtype=float).reshape(8, 1, 2)
        result = ev.rank1_casiab(split, emb)
        assert all(pv != gv for _c, pv, gv, _a in result.cells)

    def test_unique_embeddings_perfect(self, rng):
        split = _casiab_split_2x2()
        emb = np.zeros((8, 1, 2))
        for i, e in enumerate(split.gallery + split.probe):
            base = {"A": (0.0, 0.0), "B": (50.0, 50.0)}[e.label]
            emb[e.index, 0] = base
        result = ev.rank1_casiab(split, emb)
        assert result.accuracies["NM"] == 1.0

    def test_missing_view_warns(self):
        split = _casiab_split_2x2()
        split.gallery = [e for e in split.gallery if e.view != "090"]
        emb = np.arange(8 * 2, dtype=float).reshape(8, 1, 2)
        result = ev.rank1_casiab(split, emb)
        assert any("missing gallery view 090" in w for w in result.warnings)
        assert all(gv == "000" for _c, _pv, gv, _a in result.cells)


class TestDegenerateSplits:
    """Under every protocol an empty gallery or probe set, and a casiab
    split with no cross-view cell to score, are data errors, never a
    ``nan`` summary."""

    @pytest.mark.parametrize("protocol", ["casiab", "simple", "oumvlp"])
    @pytest.mark.parametrize("side, message", [("probe", "empty probe set"),
                                               ("gallery", "empty gallery")])
    def test_empty_side(self, protocol, side, message):
        split = _casiab_split_2x2()
        setattr(split, side, [])
        split.protocol = protocol
        with pytest.raises(DataError, match=message):
            ev.evaluate_split(split, np.zeros((8, 1, 2)))

    def test_casiab_without_cross_view_cell(self):
        split = _casiab_split_2x2()
        split.gallery = [e for e in split.gallery if e.view == "000"]
        split.probe = [e for e in split.probe if e.view == "000"]
        with pytest.raises(DataError, match=r"no cross-view cell to score.*"
                           r"probe views \['000'\], gallery views \['000'\]"):
            ev.evaluate_split(split, np.zeros((8, 1, 2)))

    def test_condition_without_cell_keeps_nan(self):
        split = _casiab_split_2x2()
        split.probe.append(ev.SplitEntry(index=0, label="A", view="090",
                                         condition="CL", seq_index=1))
        split.gallery = [e for e in split.gallery if e.view == "090"]
        result = ev.evaluate_split(split, np.arange(16.0).reshape(8, 1, 2))
        assert np.isnan(result.accuracies["CL"])
        assert [c[:3] for c in result.cells] == [("NM", "000", "090")]


class TestBuildSplit:
    def _seqs(self, specs):
        out = []
        for seq_id, subject, condition, view, role in specs:
            seq = type("S", (), {})()
            seq.seq_id = seq_id
            seq.subject = subject
            seq.condition = condition
            seq.view = view
            out.append((seq, role))
        return out

    def test_casiab_membership(self):
        specs = []
        for cond, idx in (("NM", 1), ("NM", 4), ("NM", 5), ("NM", 6),
                          ("BG", 1), ("BG", 2), ("CL", 1), ("CL", 2)):
            specs.append((f"s1-{cond}-{idx:02d}-000", "s1", cond, "000", "gallery"))
        split = ev.build_split(self._seqs(specs), "casiab")
        assert {(e.condition, e.seq_index) for e in split.gallery} == {
            ("NM", 1), ("NM", 4)}
        assert {(e.condition, e.seq_index) for e in split.probe} == {
            ("NM", 5), ("NM", 6), ("BG", 1), ("BG", 2), ("CL", 1), ("CL", 2)}

    def test_oumvlp_membership(self):
        specs = [("s1-NM-00-000", "s1", "NM", "000", "probe"),
                 ("s1-NM-01-000", "s1", "NM", "000", "gallery")]
        split = ev.build_split(self._seqs(specs), "oumvlp")
        assert [e.seq_index for e in split.gallery] == [1]
        assert [e.seq_index for e in split.probe] == [0]

    @pytest.mark.parametrize("protocol", ["oumvlp", "casiab"])
    @pytest.mark.parametrize("seq_id", ["s2-00", "s2-NM-xx-000"])
    def test_seq_id_without_index_rejected(self, protocol, seq_id):
        """Such a sequence would fall out of both gallery and probe."""
        specs = [("s1-NM-00-000", "s1", "NM", "000", "probe"),
                 ("s1-NM-01-000", "s1", "NM", "000", "gallery"),
                 (seq_id, "s2", "NM", "000", "probe")]
        with pytest.raises(DataError, match=(rf"{protocol} protocol needs seq ids like "
                                             rf"subject-COND-NN-view, got '{seq_id}'")):
            ev.build_split(self._seqs(specs), protocol)

    def test_grew_two_and_two(self):
        specs = [(f"s1-NM-{i:02d}-000", "s1", "NM", "000", "gallery")
                 for i in range(4)]
        split = ev.build_split(self._seqs(specs), "grew")
        assert len(split.probe) == 2 and len(split.gallery) == 2

    def test_simple_uses_roles(self):
        specs = [("a-NM-00-000", "a", "NM", "000", "probe"),
                 ("a-NM-01-000", "a", "NM", "000", "gallery"),
                 ("a-NM-02-000", "a", "NM", "000", "train")]
        split = ev.build_split(self._seqs(specs), "simple")
        assert len(split.probe) == 1 and len(split.gallery) == 1

    @pytest.mark.parametrize("protocol", ["simple", "casiab"])
    @pytest.mark.parametrize("roles", [("gallery", "probe"), ("gallery", "gallery")])
    def test_repeated_seq_id_rejected(self, protocol, roles):
        specs = [("a-NM-01-000", "a", "NM", "000", roles[0]),
                 ("b-NM-05-000", "b", "NM", "000", "probe"),
                 ("a-NM-01-000", "a", "NM", "000", roles[1])]
        with pytest.raises(DataError, match=(r"sequence 'a-NM-01-000' listed twice "
                                             rf"in the manifest \(as {roles[0]} and "
                                             rf"as {roles[1]}\)")):
            ev.build_split(self._seqs(specs), protocol)


class TestResultsFile:
    def test_write_and_reread(self, tmp_path):
        result = ev.EvalResult(protocol="simple", accuracies={"all": 0.75})
        path = tmp_path / "results.tsv"
        ev.write_results(path, result)
        text = path.read_text()
        assert "summary\tall\t0.750000" in text
        assert "summary\tmean\t0.750000" in text

    def test_deterministic_bytes(self, tmp_path):
        result = ev.EvalResult(protocol="casiab",
                               accuracies={"NM": 0.5, "BG": 0.25},
                               cells=[("NM", "000", "090", 0.5)],
                               warnings=["missing gallery view 180"])
        p1, p2 = tmp_path / "a", tmp_path / "b"
        ev.write_results(p1, result)
        ev.write_results(p2, result)
        assert p1.read_bytes() == p2.read_bytes()


class TestHeatmap:
    def test_dump_17_rows(self, tmp_path):
        model = tiny_model()
        useq = unified_sequences(n_ids=2, seqs=1)[0]
        path = tmp_path / "h.tsv"
        matrix = ev.heatmap_dump(model, useq, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 17
        assert matrix.shape == (17, 4)

    def test_deterministic_bytes(self, tmp_path):
        model = tiny_model()
        useq = unified_sequences(n_ids=2, seqs=1)[0]
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        ev.heatmap_dump(model, useq, p1)
        ev.heatmap_dump(model, useq, p2)
        assert p1.read_bytes() == p2.read_bytes()


# one process: a seeded toy checkpoint and 42 sequences of 60 frames,
# then the minor page faults of each of six eval passes
_EVAL_FAULTS = """
import os, resource, sys
from gpgait import checkpoint, pagcn, pose_io, synth
from gpgait import eval as ev
from gpgait.config import build_run_config
out = sys.argv[1]
manifest = synth.generate_dataset(
    out, 6, 7, [synth.CameraSpec(jitter_sigma=0.5),
                synth.CameraSpec(scale=1.3, slant=0.3, jitter_sigma=0.5)], 60, seed=3)
run_cfg = build_run_config(preset="toy")
net_cfg = run_cfg.network_config(num_classes=6)
ckpt = os.path.join(out, "model.gpgw")
checkpoint.save_container(ckpt, dict(run_cfg.echo(), network=net_cfg.to_dict()),
                          pagcn.model_tensors(pagcn.init_model(net_cfg, seed=0)))
with_roles = pose_io.load_sequences_with_roles(pose_io.load_manifest(manifest))
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ev.cross_domain_eval(ckpt, with_roles, "simple")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's")
def test_steady_state_eval_pass_takes_no_page_faults(tmp_path):
    """A pass reuses the memory the previous one freed (about 16,600
    minor faults a pass at this size with glibc's defaults, which hand
    the forward's chunk arrays back to the kernel). A fresh process, so
    that no earlier test's training has set the allocator."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ev.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _EVAL_FAULTS, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 6
    # passes 3-6; one of them may still grow the heap to its high-water
    # mark, so the quietest two are counted
    assert sum(sorted(faults[2:])[:2]) <= 50
