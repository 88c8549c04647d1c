"""Paired benchmark runs of two source checkouts, summarized per metric.

    python3 tools/bench_pairs.py --tree parent=../parent --tree change=. \
        --workload train_toy --seeds 1001-1010 > BENCH_name.json

Each ``--tree NAME=PATH`` names a source checkout with a ``perfbench/``
directory; there are exactly two, the base first and the change second.
For every workload and seed (``--seeds`` takes numbers and ranges, as in
``1,4,10-19``) one pair runs

    python3 perfbench/run.py --workload W --seed S --seconds X --trace 0

in each checkout, ``X`` being ``BENCHMARK.json``'s ``run_seconds``, one
after the other. Which side runs first alternates
from pair to pair: the base on a workload's even pairs, the change on
its odd ones. Nothing but ``run.py`` is called, and nothing under
``perfbench/`` is read except what ``run.py`` prints.

Each run's result line goes to stderr as it finishes. The report is one
JSON document on stdout: the command, the seeds, each tree's commit
(``git describe``, when the checkout is a git work tree) and, per
workload, every run in the order it ran (``runs``) and a ``summary``.
The summary holds per side the failed operations of each run and
whether every run was correct, and per metric of the result lines
(keys named after the trees, here ``parent`` and ``change``):

- each side's values in seed order, their median and quartiles;
- ``parent_iqr``, the spread between the base's quartiles;
- ``change_vs_parent``, the change's median relative to the base's;
- ``change_wins``, the pairs whose change value is better than its
  base value, better as ``BENCHMARK.json`` (next to this directory)
  says for the metric;
- ``resolved``, whether the medians differ by more than the base's
  quartile spread;
- its ``bound`` and ``within_bound``: the change's median is not worse
  than the base's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")


def parse_seeds(text: str) -> list:
    """``1,4,10-12`` -> [1, 4, 10, 11, 12]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def benchmark_spec(path: str = BENCHMARK) -> dict:
    with open(path) as fh:
        return json.load(fh)


def metric_rules(spec: dict) -> tuple:
    """({metric: "lower" or "higher"}, {metric: bound}) of a
    ``BENCHMARK.json``'s end-to-end metrics."""
    metrics = spec["end_to_end"]
    return ({m["name"]: m["better"] for m in metrics},
            {m["name"]: m["bound"] for m in metrics})


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def summarize(runs: list, names: tuple, better: dict, bounds: dict) -> dict:
    """The summary of one workload's ``runs``: dicts with ``seed``,
    ``side`` (one of the two ``names``, base first) and ``result`` (the
    line ``run.py`` printed, its metrics ``{name: {"value": ..., "unit":
    ...}}``, or None when it printed none). A pair is
    the two sides' runs of one seed; a metric is summarized over the
    pairs whose both lines hold it."""
    base, change = names
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [(sides.get(base), sides.get(change)) for sides in by_seed.values()]
    out = {"pairs": len(pairs), "failed": {}, "correct": {}, "metrics": {}}
    for name, i in ((base, 0), (change, 1)):
        lines = [p[i] for p in pairs]
        out["failed"][name] = [line["failed"] if line else None for line in lines]
        out["correct"][name] = all(line and line["correct"] for line in lines)
    metrics = []
    for b, c in pairs:
        for m in (b or {}).get("metrics", {}):
            if m not in metrics:
                metrics.append(m)
    for m in metrics:
        held = [(b["metrics"][m]["value"], c["metrics"][m]["value"]) for b, c in pairs
                if b and c and m in c["metrics"]
                and None not in (b["metrics"][m]["value"], c["metrics"][m]["value"])]
        if not held:
            continue
        xs, ys = [p[0] for p in held], [p[1] for p in held]
        qx, qy = _quartiles(xs), _quartiles(ys)
        iqr = qx[2] - qx[0]
        mx, my = statistics.median(xs), statistics.median(ys)
        rel = (my - mx) / mx if mx else None
        row = {base: xs, change: ys,
               f"{base}_median": mx, f"{change}_median": my,
               f"{base}_quartiles": qx, f"{change}_quartiles": qy,
               f"{base}_iqr": iqr, f"{change}_vs_{base}": rel,
               f"{change}_wins": sum(_better(y, x, better[m]) for x, y in held),
               "pairs": len(held), "resolved": abs(my - mx) > iqr,
               "bound": bounds[m]}
        if rel is not None:
            worse = rel if better[m] == "lower" else -rel
            row["within_bound"] = worse <= bounds[m]
        out["metrics"][m] = row
    return out


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its exit code, its last
    stdout line (the result) and its ``details`` line, as JSON (None
    when it printed none)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    details = [json.loads(ln[len("details "):]) for ln in lines
               if ln.startswith("details ")]
    out = {"exit": proc.returncode, "result": result,
           "details": details[-1] if details else None}
    if result is None:
        out["stderr"] = proc.stderr.strip()[-400:]
    return out


def _commit(path: str):
    try:
        return subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], required=True,
                        help="NAME=PATH of a source checkout (twice: base, change)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)
    if any("=" not in t for t in args.tree):
        parser.error("each --tree is NAME=PATH")
    trees = dict(t.split("=", 1) for t in args.tree)
    if len(trees) != 2:
        parser.error("give exactly two --tree NAME=PATH")
    if len(set(args.seeds)) != len(args.seeds):
        parser.error("--seeds repeats a seed; a pair is one seed's two runs")
    names = tuple(trees)
    spec = benchmark_spec()
    better, bounds = metric_rules(spec)
    seconds = spec["run_seconds"]
    report = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "trees": {name: {"commit": _commit(path)} for name, path in trees.items()},
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i, seed in enumerate(args.seeds):
            for position, side in enumerate(names if i % 2 == 0 else names[::-1]):
                run = run_once(os.path.abspath(trees[side]), workload, seed, seconds)
                run = {"seed": seed, "side": side, "position": position, **run}
                print(json.dumps(run), file=sys.stderr, flush=True)
                runs.append(run)
        report["workloads"][workload] = {
            "summary": summarize(runs, names, better, bounds), "runs": runs}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
