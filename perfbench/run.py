"""gpgait benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports ``src/gpgait``).
Inputs are generated from the seed into ``.perfbench/`` in a separate
process, the program's set-up is timed in ``SETUP_SAMPLES`` fresh
processes, and one further process runs the closed loop. BLAS is pinned
to one thread; times are the measured process's CPU time, scaled to a
reference host speed by a calibration loop (``scales``).
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under ``--trace 0`` and
the per-layer metrics under ``--trace 1``. Outputs are checked against
``reference.json``; a mismatch counts as a failed operation and the
exit code is 1. Without a gpgait source tree the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (EVAL_CELLS, LOSS_ATOL, LOSS_RTOL, REF_CAL_MS,  # noqa: E402
                       SETUP_SAMPLES, VARIANTS, WORKLOADS)

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
# one run's child processes must end within this plus twice --seconds
CHILD_TIMEOUT_S = 100


class BenchError(Exception):
    pass


# -- child processes --------------------------------------------------------


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "GPGAIT_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
    })
    return env


def run_worker(root: str, args: list, timeout: float) -> dict:
    """Start the worker, wait for it, return its last stdout line."""
    cmd = [sys.executable, WORKER] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f}s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def collect(root: str, workload: str, seed: int, seconds: float, trace: int,
            setup_samples: int = SETUP_SAMPLES) -> tuple:
    """Generate inputs, time set-up, run the loop. Returns (worker
    result, set-up samples as (CPU s, calibration ms)). The work
    directory is removed after."""
    variant = seed % VARIANTS
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"{workload}-{seed}-{os.getpid()}")
    common = ["--workload", workload, "--variant", str(variant), "--dir", work]
    budget = CHILD_TIMEOUT_S + 2 * seconds
    deadline = time.monotonic() + budget
    try:
        os.makedirs(work)
        # input generation also leaves the bytecode of the program's
        # modules cached, as an installed program has it, before set-up
        # is timed
        run_worker(root, ["gen"] + common, budget)
        samples = []
        for _ in range(setup_samples - 1):
            out = run_worker(root, ["setup"] + common, deadline - time.monotonic())
            samples.append((out["setup_s"], out["setup_cal_ms"]))
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            extra += ["--spans", os.path.join(base, f"spans-{workload}-{seed}.jsonl")]
        result = run_worker(root, ["measure"] + common + extra,
                            max(1.0, deadline - time.monotonic()))
        samples.append((result["setup_s"], result["setup_cal_ms"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, samples


# -- correctness gate ---------------------------------------------------------


def load_reference(path: str = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_results(text: str) -> tuple:
    """(cells, warnings) of a results file written by eval.write_results."""
    cells, warnings = [], []
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "cell":
            cells.append(fields[1:])
        elif fields[0] == "warning":
            warnings.append(fields[1:])
    return cells, warnings


def check(workload: str, variant: int, result: dict, reference: dict) -> list:
    """Indices of failed operations (with a reason each)."""
    failures = []
    want = reference.get(workload, {}).get(str(variant))
    if want is None:
        failures.append((0, f"reference.json has no {workload} variant {variant}"))
    elif WORKLOADS[workload]["kind"] == "train":
        losses = result["losses"]
        for i, row in enumerate(losses):
            if not all(math.isfinite(v) for v in row):
                failures.append((i, "non-finite loss"))
            elif i < len(want) and any(
                    abs(g - w) > LOSS_ATOL + LOSS_RTOL * abs(w)
                    for g, w in zip(row, want[i])):
                failures.append((i, f"losses {row} != reference {want[i]}"))
        for i in range(len(losses), len(want)):
            failures.append((i, "iteration not reached"))
    else:
        for i, text in enumerate(result["results"]):
            cells, warnings = parse_results(text)
            if len(cells) != EVAL_CELLS or warnings:
                failures.append((i, f"{len(cells)} cells, {len(warnings)} warnings"))
            elif cells != want:
                failures.append((i, f"cells {cells} != reference {want}"))
    if result.get("failure"):
        failures.append((len(result["ops"]), result["failure"]))
    return failures


# -- metrics -----------------------------------------------------------------


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples). Below 21 samples that percentile would
    not exceed the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def scales(cal_ms: list) -> list:
    """Per op, the factor that turns its CPU time into CPU time at the
    reference speed: REF_CAL_MS over the mean of the calibration loop's
    times just before and just after the op."""
    return [2 * REF_CAL_MS / (cal_ms[max(i - 1, 0)] + cal_ms[i]) for i in range(len(cal_ms))]


def end_to_end(result: dict, setup_samples: list) -> tuple:
    # the host's speed moves the CPU time of the program and of the
    # reference loop alike, so each op is scaled by the loop timed
    # beside it in the same process
    ops = result["ops"]
    factors = [f for f, (_ms, phase) in zip(scales(result["cal_ms"]), ops)
               if phase == "timed"]
    cpu = [ms for ms, phase in ops if phase == "timed"]
    timed = [ms * f for ms, f in zip(cpu, factors)]
    setups = [s * REF_CAL_MS / cal for s, cal in setup_samples]
    value, pct, n = tail(timed)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (statistics.median(timed), "ms"),
        "op_ms_tail": (value, "ms"),
        "seq_per_s": (result["seqs_per_op"] * len(timed) / (sum(timed) / 1e3), "seq/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    walls = [wall for wall, (_ms, phase) in zip(result["wall_ms"], result["ops"])
             if phase == "timed"]
    details = {"op_ms_tail_percentile": pct, "timed_ops": n,
               "scale_p50": statistics.median(factors),
               "cpu_op_ms_p50": statistics.median(cpu),
               "wall_op_ms_p50": statistics.median(walls),
               "warmup_cpu_ms": [ms for ms, ph in result["ops"] if ph == "warm"],
               "setup_samples_s": setups,
               "setup_cpu_s": [s for s, _cal in setup_samples]}
    return metrics, details


def per_layer(result: dict, units: dict) -> tuple:
    # the overhead compares ops at the reference speed; span times and
    # the shares taken from them are not scaled
    factors = scales(result["cal_ms"])
    untraced = [ms * f for f, (ms, phase) in zip(factors, result["ops"]) if phase == "timed"]
    traced = [ms * f for f, (ms, phase) in zip(factors, result["ops"]) if phase == "traced"]
    layers = dict(result["layers"])
    # the ops alternate untraced, traced: each difference is taken
    # between neighbours, so slow drifts of the host's speed cancel
    overhead = statistics.median([t - u for u, t in zip(untraced, traced)])
    layers["trace.overhead_ms"] = overhead
    layers["trace.overhead_frac"] = overhead / statistics.median(untraced)
    texts = [text for text, (_ms, phase) in zip(result.get("results", []), result["ops"])
             if phase == "traced"]
    cells, warnings = parse_results(texts[-1]) if texts else ([], [])
    layers["eval.cells"] = len(cells)
    layers["eval.warnings"] = len(warnings)
    metrics = {name: (layers[name], units[name]) for name in units if name in layers}
    memory = [ms * f for f, (ms, phase) in zip(factors, result["ops"]) if phase == "memory"]
    details = {"missing": sorted(set(units) - set(layers)),
               "stages_within_overhead": stages_within_overhead(layers),
               "untraced_ops": len(untraced), "traced_ops": len(traced),
               "memory_ops": len(memory),
               "memory_overhead_ms": statistics.median(memory) - statistics.median(untraced),
               "blocks": result.get("blocks", [])}
    return metrics, details


def stages_within_overhead(layers: dict):
    """Whether the stage spans account for a training iteration: the
    share no stage covers is at most the tracing overhead. None where
    there are no training stages (evaluation)."""
    if not layers.get("train.share.sample"):
        return None
    return layers["train.share.other"] <= layers["trace.overhead_frac"]


def benchmark_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gpgait benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops and waits for its worker: subprocess.run
    # kills the child when the wait is interrupted by an exception
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gpgait", "__init__.py")):
        print("error: run from a gpgait checkout (src/gpgait not found)",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    reference = load_reference()
    samples = 1 if args.trace else SETUP_SAMPLES
    try:
        result, setup_samples = collect(root, args.workload, args.seed,
                                        args.seconds, args.trace, samples)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failures = check(args.workload, args.seed % VARIANTS, result, reference)
    attempted = max(1, len(result["ops"]) + (1 if result.get("failure") else 0))
    failed_ops = len({i for i, _why in failures})
    if result.get("failure") or not any(ph == "timed" for _ms, ph in result["ops"]):
        metrics, details = {}, {}
    elif args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, details = per_layer(result, units)
    else:
        metrics, details = end_to_end(result, setup_samples)

    print(f"workload {args.workload} seed {args.seed} (inputs variant "
          f"{args.seed % VARIANTS}) trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed_ops / attempted:.6g} ({failed_ops} of {attempted} ops)")
    for i, why in failures:
        print(f"FAILED op {i}: {why}")
    print("environment " + json.dumps(result["environment"]))
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
