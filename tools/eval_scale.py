"""Eval at test-set scale: rank-1 and the embedding pass on ladders of
sizes, each step in a fresh, memory-capped process.

    python3 tools/eval_scale.py --tree parent=../parent --tree change=. \
        > BENCH_eval_scale.json

Each ``--tree NAME=PATH`` names a source checkout whose ``src/gpgait``
is measured. Steps run through ``tools/published_batch.py``'s step
runner: a new process, BLAS on one thread, its address space capped at
6 GiB with ``RLIMIT_AS``; a ladder stops at the first step that raises
``MemoryError`` or dies. Steps print to stderr as they finish; the
report is one JSON document on stdout. For each tree:

- ``rank1_timing``: ``eval.nearest_gallery`` on 500 probes against
  5,000 gallery rows of random embeddings of width 2304 (18 slots x
  128, the width of every published preset).
- ``rank1_gallery``: 50 probes against 1,250, 10,000, 80,000 and
  640,000 gallery rows of that width. The last step needs 11 GiB for
  its embeddings, so its allocation fails at once under the cap; a
  step near the cap would touch up to 6 GiB of the machine's memory.
- ``embed_sequences``: ``eval.embed_unified`` on 42, 168, 672 and 2,688
  synthetic walker sequences of 60 frames, toy network, 6 classes.
- ``embed_classes``: the same on 336 sequences with 6, 500, 5,000 and
  20,000 classes in the checkpoint.

A rank-1 step reports ``probes``, ``gallery``, ``dim``, ``fit``,
``rank1_s`` (process CPU seconds of the call), ``embeddings_mb``,
``setup_peak_rss_mb`` (peak RSS before the call: interpreter plus
embeddings), ``peak_rss_mb`` (after it) and ``nearest_sha256`` (of the
returned indices as int64, to compare trees). An embedding step reports
``sequences``, ``classes``, ``frames``, ``fit``, ``embed_s``,
``setup_peak_rss_mb`` (model and unified sequences built),
``peak_rss_mb``, ``embed_rss_mb`` (their difference: what the pass adds
to the peak), ``embeddings_mb`` and ``embeddings_sha256``. Both first
make the allocator setting ``eval.cross_domain_eval`` makes
(``train.keep_freed_memory``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import published_batch  # noqa: E402  (the step runner and the ladder)

DIM = 2304
TIMING = (500, 5_000)            # probes x gallery rows
GALLERY_PROBES = 50
GALLERY_LADDER = (1_250, 10_000, 80_000, 640_000)
FRAMES = 60
SEQUENCE_LADDER = (42, 168, 672, 2_688)
CLASSES = 6
CLASS_SEQUENCES = 336
CLASS_LADDER = (6, 500, 5_000, 20_000)
IDENTITIES = 42


def _peak_rss_mb() -> float:
    return published_batch._rusage().ru_maxrss / 1024.0


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _keep_freed_memory():
    # a tree that predates the setting evaluates with glibc's defaults
    from gpgait import train
    getattr(train, "keep_freed_memory", lambda: None)()


def measure_rank1(probes: int, gallery: int, dim: int = DIM) -> dict:
    """``nearest_gallery`` of ``probes`` random rows against ``gallery``
    random rows of width ``dim``, in this process."""
    import numpy as np
    from gpgait import eval as ev

    _keep_freed_memory()
    emb = np.empty((probes + gallery, dim))
    np.random.default_rng(0).standard_normal(out=emb)
    setup = _peak_rss_mb()
    t0 = time.process_time()
    nearest = ev.nearest_gallery(emb, np.arange(probes),
                                 np.arange(probes, probes + gallery))
    seconds = time.process_time() - t0
    return {"kind": "rank1", "probes": probes, "gallery": gallery, "dim": dim,
            "fit": True, "rank1_s": seconds, "embeddings_mb": emb.nbytes / 2**20,
            "setup_peak_rss_mb": setup, "peak_rss_mb": _peak_rss_mb(),
            "nearest_sha256": _sha256(nearest.astype(np.int64))}


def measure_embed(sequences: int, classes: int, frames: int = FRAMES) -> dict:
    """``embed_unified`` of ``sequences`` synthetic walkers of ``frames``
    frames with the toy network sized for ``classes`` classes, in this
    process."""
    from gpgait import eval as ev
    from gpgait import hot, synth
    from gpgait.config import build_run_config
    from gpgait.pagcn import init_model

    _keep_freed_memory()
    run_cfg = build_run_config(preset="toy")
    model = init_model(run_cfg.network_config(num_classes=classes), seed=0)
    walkers = synth.make_identities(IDENTITIES, seed=0)
    camera = synth.CameraSpec(jitter_sigma=0.5)
    useqs = hot.unify_sequences(
        [synth.generate_sequence(walkers[i % IDENTITIES], camera, frames, seed=i,
                                 seq_id=f"s{i}") for i in range(sequences)],
        run_cfg.hot_config())
    setup = _peak_rss_mb()
    t0 = time.process_time()
    emb = ev.embed_unified(model, useqs)
    seconds = time.process_time() - t0
    peak = _peak_rss_mb()
    return {"kind": "embed", "sequences": sequences, "classes": classes,
            "frames": frames, "fit": True, "embed_s": seconds,
            "setup_peak_rss_mb": setup, "peak_rss_mb": peak,
            "embed_rss_mb": peak - setup, "embeddings_mb": emb.nbytes / 2**20,
            "embeddings_sha256": _sha256(emb)}


MEASURES = {"rank1": measure_rank1, "embed": measure_embed}
# the ladder sizes each kind's child takes on its command line, in order
_ARGS = {"rank1": ("probes", "gallery"), "embed": ("sequences", "classes")}


def step_for(kind: str, fixed: dict, size_key: str):
    """A ladder step: ``kind`` measured at ``fixed`` plus the ladder
    size as ``size_key``, in a fresh capped process."""
    def step(tree: str, size: int) -> dict:
        params = dict(fixed, **{size_key: size})
        args = [kind] + [params[k] for k in _ARGS[kind]]
        return published_batch.run_child(__file__, tree, args,
                                         dict(params, kind=kind, fit=False))
    return step


def tree_report(tree: str) -> dict:
    probes, gallery = TIMING
    timing = step_for("rank1", {"probes": probes}, "gallery")(tree, gallery)
    print(json.dumps(timing), file=sys.stderr)
    return {
        "commit": published_batch._commit(tree),
        "rank1_timing": timing,
        "rank1_gallery": published_batch.ladder(
            tree, step_for("rank1", {"probes": GALLERY_PROBES}, "gallery"),
            GALLERY_LADDER, "gallery"),
        "embed_sequences": published_batch.ladder(
            tree, step_for("embed", {"classes": CLASSES}, "sequences"),
            SEQUENCE_LADDER, "sequences"),
        "embed_classes": published_batch.ladder(
            tree, step_for("embed", {"sequences": CLASS_SEQUENCES}, "classes"),
            CLASS_LADDER, "classes"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="NAME=PATH of a source checkout (repeatable)")
    parser.add_argument("--child", nargs=3, metavar=("KIND", "A", "B"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        kind, a, b = args.child[0], int(args.child[1]), int(args.child[2])
        failed = dict(zip(_ARGS[kind], (a, b)), kind=kind, fit=False)
        return published_batch.capped_child(lambda: MEASURES[kind](a, b), failed)
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": published_batch.REPO}
    report = {
        "dim": DIM, "frames": FRAMES, "rlimit_as_gib": published_batch.CAP_GIB,
        "nproc": os.cpu_count(), "blas_threads": 1,
        "trees": {name: tree_report(os.path.abspath(path))
                  for name, path in trees.items()},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
