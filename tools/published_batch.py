"""One casiab training iteration at growing batch sizes, up to the
published 128 sequences x 60 frames, each in a fresh, memory-capped
process.

    python3 tools/published_batch.py --tree parent=../parent --tree change=. \
        > BENCH_casiab_published.json

Each ``--tree NAME=PATH`` names a source checkout whose ``src/gpgait``
is measured. For each tree the ladder runs 16, 32, 64, then 128
sequences (the casiab preset's 4 subjects x K samples) of 60 frames.
Every step is a new process that first caps its address space at 6 GiB
with ``RLIMIT_AS``, so an allocation beyond the cap raises
``MemoryError`` there instead of driving the machine out of memory; the
ladder stops at the first step that does not fit. Steps print to
stderr as they finish; the report is one JSON document on stdout.

A step builds the casiab network (seed 0), draws random descriptor
inputs, and times one iteration as in ``train.train_loop``: with the
allocator setting it makes first (``train.keep_freed_memory``), then
forward, loss, backward and the Adam step, in process CPU seconds with
BLAS on one thread. It records the process's peak RSS right after the
forward (``forward_peak_rss_mb``: set-up plus the training tape and the
forward's transients) and after the whole iteration (``peak_rss_mb``,
which adds backward's transients), its minor page faults during the
iteration, and the forward FLOPs from ``perfbench/layers.py``
(matrix products and temporal convolution, multiply-adds counted as
two).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
LADDER = (16, 32, 64, 128)
FRAMES = 60
SUBJECTS = 4                # casiab preset: subjects_per_batch
CAP_GIB = 6
STEP_TIMEOUT_S = 1800


def _rusage():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF)


def measure(sequences: int, frames: int) -> dict:
    """One training iteration of the casiab network on ``sequences``
    random sequences of ``frames`` frames, in this process."""
    import numpy as np

    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(REPO, "perfbench", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from gpgait import train
    from gpgait.config import build_run_config
    from gpgait.pagcn import descriptor_inputs, init_model, network_forward
    from gpgait.train import OptimizerState, adam_step, combined_loss

    # the allocator setting train_loop makes before its first iteration;
    # a tree that predates it trains with glibc's defaults
    keep_freed_memory = getattr(train, "keep_freed_memory", None)
    if keep_freed_memory:
        keep_freed_memory()
    run_cfg = build_run_config(preset="casiab")
    k = sequences // SUBJECTS
    net_cfg = run_cfg.network_config(num_classes=SUBJECTS)
    model = init_model(net_cfg, seed=0)
    rng = np.random.default_rng(0)
    n = SUBJECTS * k
    inputs = descriptor_inputs(net_cfg, rng.normal(size=(n, frames, 17, 2)),
                               rng.normal(size=(n, frames, 17, 2)),
                               rng.normal(size=(n, frames, 17, 1)))
    labels = np.repeat(np.arange(SUBJECTS), k)
    state = OptimizerState()

    faults = _rusage().ru_minflt
    t0 = time.process_time()
    result = network_forward(model, inputs, training=True)
    t1 = time.process_time()
    forward_peak = _rusage().ru_maxrss
    total = combined_loss(result.metrics, result.logits, labels,
                          run_cfg.margin, run_cfg.ce_weight)[0]
    t2 = time.process_time()
    total.backward()
    t3 = time.process_time()
    adam_step(model, state, run_cfg.lr_init)
    t4 = time.process_time()
    usage = _rusage()
    gflop = layers.network_flops(model, n, frames) / 1e9
    return {
        "sequences": n, "frames": frames, "fit": True,
        "loss": float(total.data),
        "forward_peak_rss_mb": forward_peak / 1024.0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt - faults,
        "forward_s": t1 - t0, "loss_s": t2 - t1, "backward_s": t3 - t2,
        "adam_s": t4 - t3,
        "forward_gflop": gflop,
        "forward_gflop_per_s": gflop / (t1 - t0),
    }


def capped_child(measure_step, failed: dict) -> int:
    """Body of a ladder step's process: cap the address space at
    ``CAP_GIB``, run ``measure_step()`` and print its result as one JSON
    line, or ``failed`` with the error and the peak RSS when it raises
    ``MemoryError``."""
    import resource
    cap = CAP_GIB * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        out = measure_step()
    except MemoryError as e:
        out = dict(failed, error=f"{type(e).__name__}: {e}"[:200],
                   peak_rss_mb=_rusage().ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


def child(sequences: int) -> int:
    return capped_child(lambda: measure(sequences, FRAMES),
                        {"sequences": sequences, "frames": FRAMES, "fit": False})


def _commit(path: str):
    try:
        return subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_child(script: str, tree: str, args: list, failed: dict) -> dict:
    """Run ``script --child ARGS`` in a fresh process that imports
    ``tree``'s ``src/gpgait`` with BLAS on one thread, and return the
    JSON line it printed last, or ``failed`` with the exit status when
    it died without one (killed or crashed on the way to a
    ``MemoryError``: it did not fit)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(script), "--child", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(failed, error=f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return json.loads(lines[-1])


def run_step(tree: str, sequences: int) -> dict:
    """One ladder step in a fresh process measuring ``tree``'s source."""
    return run_child(__file__, tree, [sequences],
                     {"sequences": sequences, "frames": FRAMES, "fit": False})


def ladder(tree: str, step=run_step, sizes=LADDER, key: str = "sequences") -> dict:
    """``step(tree, size)`` for each size in turn, up to the first step
    that does not fit; ``largest_fit`` is the ``key`` field of the
    largest step that did."""
    steps = []
    for n in sizes:
        out = step(tree, n)
        print(json.dumps(out), file=sys.stderr)
        steps.append(out)
        if not out["fit"]:
            break
    fitted = [s[key] for s in steps if s["fit"]]
    return {"commit": _commit(tree), "steps": steps,
            "largest_fit": max(fitted) if fitted else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="NAME=PATH of a source checkout (repeatable)")
    parser.add_argument("--child", type=int, metavar="SEQUENCES",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": REPO}
    report = {
        "frames": FRAMES, "rlimit_as_gib": CAP_GIB,
        "subjects_per_batch": SUBJECTS, "nproc": os.cpu_count(),
        "blas_threads": 1,
        "trees": {name: ladder(os.path.abspath(path))
                  for name, path in trees.items()},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
