"""The benchmark's measured process and its input generator.

    python3 perfbench/worker.py gen     --workload W --variant V --dir D
    python3 perfbench/worker.py setup   --workload W --variant V --dir D
    python3 perfbench/worker.py measure --workload W --variant V --dir D
                                        --seconds S --trace 0|1

``gen`` writes the workload's input files (pose sequences, manifest and,
for evaluation, a seeded-init checkpoint) into D. ``setup`` performs
only the program's set-up and reports its time. ``measure`` sets up,
runs the closed loop and prints one JSON object as its last line.
``run.py`` starts these as separate processes, so input generation does
not count towards the measured process's peak RSS.

Times are the process's CPU time (``time.process_time``): on a shared
virtual machine the hypervisor takes the CPU away for stretches of
seconds to minutes, which wall-clock times include and CPU time does
not. With BLAS pinned to one thread the process runs one busy thread,
so its CPU time is the wall time the same work takes on an idle
machine. The host's speed still changes CPU time, so untraced runs also
time a fixed reference loop (``calibrate``) after every operation and
after set-up; ``run.py`` scales the times by it. Set-up time is the CPU
time from process start (interpreter start-up included) to the first
operation; each operation's wall time is kept alongside. Phase lengths (``--seconds``) are wall time.

The modules the program's commands do not load (the synthetic data
generator, the tracer and the layer probes) are imported only by
``gen`` or by traced runs, so set-up time is the program's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from gpgait import cli, pagcn, train
from gpgait import eval as eval_mod
from gpgait.config import build_run_config

from workloads import (CAL_REPS, EVAL_DATA, SETUP_CAL_REPS, TAIL_MIN_OPS, TRAIN_DATA,
                       TRAIN_ITERATIONS, WORKLOADS)

MANIFEST = "manifest.tsv"
CHECKPOINT = "model.gpgw"


class _Stop(Exception):
    """Raised from train_loop's log_fn to end the closed loop."""


_CAL_ARRAYS = []


def calibrate() -> float:
    """CPU ms of the fixed reference loop: the host's current speed."""
    if not _CAL_ARRAYS:
        rng = np.random.default_rng(0)
        _CAL_ARRAYS[:] = [rng.standard_normal((2000, 128)), rng.standard_normal((128, 128))]
    a, w = _CAL_ARRAYS
    t0 = time.process_time()
    for _ in range(3):
        a @ w
    return (time.process_time() - t0) * 1e3


# -- inputs -------------------------------------------------------------


def generate_train(out_dir: str, variant: int):
    """The acceptance-08 set: 20 walkers x 6 sequences x 40 frames."""
    from gpgait import synth
    synth.generate_dataset(out_dir, TRAIN_DATA["identities"],
                           TRAIN_DATA["sequences"], [synth.CameraSpec()],
                           TRAIN_DATA["frames"], seed=variant)


def generate_eval(out_dir: str, variant: int):
    """Two cameras, one slanted, laid out for the casiab protocol.

    Per walker: NM-01..04 are the gallery (01, 03 on view 000; 02, 04
    on view 090) and NM-05, BG-01, CL-01 are probes, on view 000 for
    even walkers and view 090 for odd ones. Every view then has gallery
    entries and probes of every condition, so the protocol yields
    EVAL_CELLS cells and no warnings.
    """
    from gpgait import checkpoint as ckpt
    from gpgait import pose_io, synth

    os.makedirs(out_dir, exist_ok=True)
    cameras = {
        "000": synth.CameraSpec(jitter_sigma=0.5),
        "090": synth.CameraSpec(scale=1.3, tx=40.0, ty=-25.0,
                                slant=EVAL_DATA["slant"], jitter_sigma=0.5),
    }
    layout = [("NM", 1, None), ("NM", 2, None), ("NM", 3, None),
              ("NM", 4, None), ("NM", 5, "probe"), ("BG", 1, "probe"),
              ("CL", 1, "probe")]
    entries = []
    identities = synth.make_identities(EVAL_DATA["identities"], seed=variant)
    for i, ident in enumerate(identities):
        for j, (condition, index, role) in enumerate(layout):
            if role is None:
                role, view = "gallery", ("000" if index % 2 else "090")
            else:
                view = "000" if i % 2 == 0 else "090"
            seq_id = f"{ident.identity}-{condition}-{index:02d}-{view}"
            seq = synth.generate_sequence(
                ident, cameras[view], EVAL_DATA["frames"],
                seed=variant * 1_000_003 + i * 1_009 + j, seq_id=seq_id,
                condition=condition, view=view)
            fname = f"{seq_id}.jsonl"
            pose_io.save_sequences(os.path.join(out_dir, fname), [seq])
            entries.append((fname, role))
    pose_io.save_manifest(os.path.join(out_dir, MANIFEST),
                          pose_io.DatasetManifest(entries=entries,
                                                  protocol="casiab",
                                                  base_dir=out_dir))
    run_cfg = build_run_config(preset="toy", overrides={"seed": variant})
    net_cfg = run_cfg.network_config(num_classes=len(identities))
    model = pagcn.init_model(net_cfg, seed=variant)
    config = dict(run_cfg.echo(), network=net_cfg.to_dict())
    ckpt.save_container(os.path.join(out_dir, CHECKPOINT), config,
                        pagcn.model_tensors(model))


class Loop:
    """Phases of one closed loop and the time of every op.

    Warm-up ops come first and are not timed. An untraced run then
    times ops for ``seconds`` (``timed``), and at least TAIL_MIN_OPS of
    them unless ``seconds`` is 0. A traced run spends three
    quarters of ``seconds`` alternating untimed-by-spans ops (``timed``)
    with ops under timing spans (``traced``), so the two are compared
    under the same host conditions, and a last quarter that also traces
    allocations inside ``probes.MEMORY_SPANS`` (``memory``), whose
    overhead is too large to time layers by. Each phase lasts its share
    of ``seconds`` and at least its minimum number of ops. ``probes`` is
    the probes module (traced runs only). The calibration loop runs
    CAL_REPS times after every op, outside its time, and ``cal_ms``
    keeps their median for each op.
    """

    def __init__(self, seconds: float, warmup: int, min_timed: int,
                 tracer=None, probes=None, min_traced: int = 1):
        self.tracer = tracer
        self.probes = probes
        if tracer is None:
            if seconds > 0:     # the tail is then always a percentile
                min_timed = max(min_timed, TAIL_MIN_OPS)
            self.phases = [("warm", warmup, 0.0), ("timed", min_timed, seconds)]
        else:
            self.phases = [("warm", warmup, 0.0),
                           ("paired", 2 * max(min_timed, min_traced), 0.75 * seconds),
                           ("memory", 1, seconds / 4)]
        self.index = 0
        self.count = 0
        self.t_phase = time.perf_counter()
        self.ops = []
        self.cal_ms = []

    @property
    def phase(self) -> str:
        return self.phases[self.index][0]

    def record(self, ms: float, now: float) -> bool:
        """Book one op; False once the last phase is complete."""
        paired = self.phase == "paired"
        label = ("traced" if self.count % 2 else "timed") if paired else self.phase
        self.ops.append((ms, label))
        self.cal_ms.append(statistics.median(calibrate() for _ in range(CAL_REPS)))
        self.count += 1
        if label in ("traced", "memory"):
            self.tracer.op += 1
        _name, min_ops, share = self.phases[self.index]
        if (self.count < min_ops or now - self.t_phase < share
                or (paired and self.count % 2)):
            if paired and self.count % 2:
                self.probes.install_probes(self.tracer)
            elif paired:
                self.tracer.restore()
            return True
        self.index += 1
        self.count = 0
        self.t_phase = now
        if self.index == len(self.phases):
            return False
        if self.phase == "paired":
            self.tracer.op = 0
        elif self.phase == "memory":
            self.tracer.restore()
            self.probes.install_probes(self.tracer, memory=True)
        return True

    def ms(self, phase: str) -> list:
        return [ms for ms, ph in self.ops if ph == phase]


# -- training ---------------------------------------------------------------


def setup_train(spec: dict, data_dir: str, variant: int):
    """What `gpgait train --threads 1` does before its first iteration,
    through the CLI's own set-up helpers. The preset's checkpoint
    interval is kept; only logging happens every iteration."""
    p, k, length = spec["batch"]
    run_cfg = build_run_config(preset=spec["preset"], overrides={
        "seed": variant, "iterations": TRAIN_ITERATIONS, "log_interval": 1,
        "subjects_per_batch": p, "samples_per_subject": k,
        "sequence_length": length})
    _manifest, with_roles = cli._load_with_roles(os.path.join(data_dir, MANIFEST))
    train_set = train.TrainSet.build(
        cli._unify(cli._train_entries(with_roles), run_cfg, 1))
    net_cfg = run_cfg.network_config(num_classes=train_set.num_classes)
    train_cfg = run_cfg.train_config()
    model = pagcn.init_model(net_cfg, seed=train_cfg.seed)
    return run_cfg, train_set, net_cfg, train_cfg, model


def _parse_loss_line(line: str):
    fields = line.split("\t")
    values = dict(zip(fields[0::2], fields[1::2]))
    return [float(values["triplet"]), float(values["ce"]), float(values["total"])]


def measure_train(spec, data_dir, variant, seconds, trace):
    probes = tracer = None
    if trace:       # set-up layers (manifest load, HOT) are timed too
        import probes
        tracer = probes.Tracer()
        probes.install_probes(tracer)
    run_cfg, train_set, net_cfg, train_cfg, model = setup_train(spec, data_dir, variant)
    if tracer:
        tracer.restore()
    # train_loop starts from a fresh optimizer state when given none;
    # passing one keeps it at hand for the traced run's checkpoint save
    state = train.OptimizerState()
    setup_s = time.process_time()
    setup_cal_ms = None if trace else setup_calibration()

    loop = Loop(seconds, spec["warmup"], max(1, spec["check_ops"] - spec["warmup"]),
                tracer, probes, min_traced=3)
    losses, walls = [], []
    t_prev = [time.process_time(), time.perf_counter()]

    def log_fn(line):
        cpu, now = time.process_time(), time.perf_counter()
        losses.append(_parse_loss_line(line))
        walls.append((now - t_prev[1]) * 1e3)
        if not loop.record((cpu - t_prev[0]) * 1e3, now):
            raise _Stop
        t_prev[:] = [time.process_time(), time.perf_counter()]

    failure = None
    try:
        train.train_loop(train_set, net_cfg, train_cfg, os.path.join(data_dir, "run"),
                         run_config=run_cfg.echo(), model=model, state=state,
                         log_fn=log_fn)
    except _Stop:
        pass
    except Exception as e:  # reported as a failed op
        failure = f"{type(e).__name__}: {e}"
    finally:
        if tracer:
            tracer.restore()
    result = {"setup_s": setup_s, "setup_cal_ms": setup_cal_ms, "ops": loop.ops,
              "cal_ms": loop.cal_ms, "wall_ms": walls,
              "seqs_per_op": spec["batch"][0] * spec["batch"][1],
              "losses": losses, "failure": failure}
    if tracer and failure is None:
        config = dict(run_cfg.echo(), network=net_cfg.to_dict(),
                      train=train_cfg.to_dict())
        result.update(probes.train_layers(
            tracer, loop, spec, variant, train_set, net_cfg, model,
            config, train.training_tensors(model, state),
            os.path.join(data_dir, "probe.gpgw")))
    return result


# -- evaluation -----------------------------------------------------------


def eval_pass(data_dir: str, out_path: str) -> int:
    """What `gpgait eval` does: manifest load to results file."""
    manifest, with_roles = cli._load_with_roles(os.path.join(data_dir, MANIFEST))
    result = eval_mod.cross_domain_eval(os.path.join(data_dir, CHECKPOINT),
                                        with_roles, manifest.protocol)
    eval_mod.write_results(out_path, result)
    return len(with_roles)


def measure_eval(spec, data_dir, variant, seconds, trace):
    probes = tracer = None
    if trace:
        import probes
        tracer = probes.Tracer()
    setup_s = time.process_time()
    setup_cal_ms = None if trace else setup_calibration()
    loop = Loop(seconds, spec["warmup"], spec["check_ops"], tracer, probes)
    texts, walls = [], []
    failure = None
    seqs = 0
    out_path = os.path.join(data_dir, "results.tsv")
    try:
        while True:
            cpu0, t0 = time.process_time(), time.perf_counter()
            seqs = eval_pass(data_dir, out_path)
            cpu, now = time.process_time(), time.perf_counter()
            walls.append((now - t0) * 1e3)
            with open(out_path, encoding="utf-8") as fh:
                texts.append(fh.read())
            if not loop.record((cpu - cpu0) * 1e3, now):
                break
    except Exception as e:  # reported as a failed op
        failure = f"{type(e).__name__}: {e}"
    finally:
        if tracer:
            tracer.restore()
    result = {"setup_s": setup_s, "setup_cal_ms": setup_cal_ms, "ops": loop.ops,
              "cal_ms": loop.cal_ms, "wall_ms": walls, "seqs_per_op": seqs,
              "results": texts, "failure": failure}
    if tracer and failure is None:
        result.update(probes.eval_layers(tracer, loop, EVAL_DATA["frames"]))
    return result


# -- entry point ------------------------------------------------------------


def setup_calibration() -> float:
    """Median CPU ms of the calibration loop right after set-up, which
    scales that set-up's time."""
    return statistics.median(calibrate() for _ in range(SETUP_CAL_REPS))


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads_pin": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("gen", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    if args.mode == "gen":
        if spec["kind"] == "train":
            generate_train(args.dir, args.variant)
        else:
            generate_eval(args.dir, args.variant)
        print(json.dumps({"inputs": args.dir}))
        return 0
    if args.mode == "setup":
        if spec["kind"] == "train":
            setup_train(spec, args.dir, args.variant)
        setup_s = time.process_time()
        print(json.dumps({"setup_s": setup_s, "setup_cal_ms": setup_calibration()}))
        return 0

    measure = measure_train if spec["kind"] == "train" else measure_eval
    result = measure(spec, args.dir, args.variant, args.seconds, args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    spans = result.pop("spans", None)
    if spans is not None and args.spans:
        import tracing
        tracing.dump(spans, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
