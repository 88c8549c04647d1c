"""Tests of the benchmark itself (not part of the repository's suite).

    python -m pytest perfbench/tests -q

The end-to-end cases start the benchmark from the root of a copied
checkout, with ``--seconds 0`` (warm-up plus the ops the
correctness gate compares); together they take about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def printed_metrics(lines):
    """name -> unit from the ``metric NAME = VALUE UNIT`` lines."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _tag, name, _eq, _value, unit = line.split()
            out[name] = unit
    return out


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of a source checkout: sources, benchmark, BENCHMARK.json."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    return root


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload, checkout):
    proc, lines = bench(["--workload", workload, "--seed", "1",
                         "--seconds", "0", "--trace", "0"], cwd=checkout)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    out = result_of(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert printed_metrics(lines) == want
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


# allowance for host timing noise in trace.overhead_frac, which a short
# run estimates from about ten pairs of ops
OVERHEAD_NOISE = 0.03


def test_smoke_traced_prints_every_per_layer_metric(checkout):
    proc, lines = bench(["--workload", "train_toy", "--seed", "1",
                         "--seconds", "6", "--trace", "1"], cwd=checkout)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    out = result_of(lines)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert printed_metrics(lines) == want
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    # the toy network has three blocks per branch, all exercised
    for j in range(3):
        assert metrics[f"pagcn.block{j}.fwd_ms"] > 0
        assert metrics[f"pagcn.block{j}.bwd_ms"] > 0
    assert metrics["autodiff.graph_nodes"] > 0
    assert metrics["checkpoint.save_ms"] > 0
    # the stages account for the iteration: what no stage span covers
    # is within the tracing overhead
    assert 0.0 <= metrics["train.share.other"] <= (
        metrics["trace.overhead_frac"] + OVERHEAD_NOISE)
    details = json.loads(next(ln for ln in lines if ln.startswith("details "))[8:])
    assert details["stages_within_overhead"] == (
        metrics["train.share.other"] <= metrics["trace.overhead_frac"])
    assert os.path.exists(checkout / ".perfbench" / "spans-train_toy-1.jsonl")


def test_seed_changes_inputs_but_not_metric_names(checkout, tmp_path):
    digests = []
    for seed in (1, 2):
        work = tmp_path / f"seed{seed}"
        subprocess.run([sys.executable, "perfbench/worker.py", "gen",
                        "--workload", "train_toy", "--variant", str(seed % VARIANTS),
                        "--dir", str(work)], cwd=checkout, check=True,
                       env=run.child_env(str(checkout)), capture_output=True)
        files = sorted(os.listdir(work))
        digests.append({f: (work / f).read_bytes() for f in files})
    assert digests[0].keys() == digests[1].keys()
    assert digests[0] != digests[1]

    names = []
    for seed in (1, 2):
        proc, lines = bench(["--workload", "train_toy", "--seed", str(seed),
                             "--seconds", "0", "--trace", "0"], cwd=checkout)
        assert proc.returncode == 0, proc.stderr
        names.append(sorted(result_of(lines)["metrics"]))
    assert names[0] == names[1]


def test_corrupted_reference_trips_the_gate(checkout, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(checkout, broken, ignore=shutil.ignore_patterns(".perfbench"))
    ref_path = broken / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["train_toy"]["1"][2][2] += 0.01
    ref_path.write_text(json.dumps(reference))
    proc, lines = bench(["--workload", "train_toy", "--seed", "1",
                         "--seconds", "0", "--trace", "0"], cwd=broken)
    assert proc.returncode == 1
    out = result_of(lines)
    assert out["correct"] is False and out["failed"] == 1
    assert any(line.startswith("FAILED op 2:") for line in lines)


def test_gate_on_eval_results():
    reference = run.load_reference()
    want = reference["eval_casiab_xview"]["0"]
    text = "protocol\tcasiab\n" + "".join(
        "cell\t" + "\t".join(cell) + "\n" for cell in want)
    good = {"results": [text, text], "ops": [(1.0, "warm"), (1.0, "timed")]}
    assert run.check("eval_casiab_xview", 0, good, reference) == []
    flipped = text.replace(want[0][3], "0.123456", 1)
    bad = {"results": [text, flipped], "ops": good["ops"]}
    assert [i for i, _why in run.check("eval_casiab_xview", 0, bad, reference)] == [1]
    warned = {"results": [text + "warning\tmissing gallery view 090\n"],
              "ops": [(1.0, "warm")]}
    assert len(run.check("eval_casiab_xview", 0, warned, reference)) == 1


def test_reference_covers_every_variant():
    reference = run.load_reference()
    for workload, spec in WORKLOADS.items():
        entries = reference[workload]
        assert sorted(entries, key=int) == [str(v) for v in range(VARIANTS)]
        if spec["kind"] == "train":
            assert all(len(rows) == spec["check_ops"] for rows in entries.values())


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc, lines = bench(["--workload", "train_toy", "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_percentile():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)
    assert run.tail(list(range(20))) == (19, 100.0, 20)
    values = list(range(1, 101))
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_times_are_scaled_by_the_calibration_loop():
    ref = run.REF_CAL_MS
    ops = [(400.0, "warm"), (200.0, "timed"), (300.0, "timed"), (250.0, "timed")]
    # the loop's time after each op: the host is twice as slow as the
    # reference around the first two timed ops, as fast around the last
    result = {"ops": ops, "cal_ms": [2 * ref, 2 * ref, 2 * ref, ref],
              "wall_ms": [1.0] * 4, "seqs_per_op": 8, "peak_rss_mb": 100.0}
    setups = [(0.6, ref), (1.0, 2 * ref), (2.0, ref)]
    metrics, _details = run.end_to_end(result, setups)
    timed = [100.0, 150.0, 250.0 / 1.5]
    assert metrics["op_ms_p50"] == (150.0, "ms")
    assert metrics["op_ms_tail"] == (pytest.approx(timed[2]), "ms")
    assert metrics["seq_per_s"][0] == pytest.approx(3 * 8 / (sum(timed) / 1e3))
    assert metrics["setup_s"] == (0.6, "s")
    assert metrics["peak_rss_mb"] == (100.0, "MB")


def test_stage_check_fails_when_stages_leave_time_uncovered():
    covered = {"train.share.sample": 0.1, "train.share.other": 0.01,
               "trace.overhead_frac": 0.04}
    assert run.stages_within_overhead(covered) is True
    assert run.stages_within_overhead(dict(covered, **{"train.share.other": 0.3})) is False
    assert run.stages_within_overhead({"train.share.sample": 0.0}) is None


def test_tracer_spans_self_time_and_restore():
    import types

    module = types.ModuleType("gpgait._perfbench_probe")

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = tracing.Tracer()
        tracer.op = 0
        tracer.patch_function(inner, "inner", after=lambda r: {"value": r})
        tracer.patch_function(outer, "outer")
        assert module.outer() == 2
        tracer.restore()
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["counts"] == {"value": 1}
    assert tracing.self_time(spans["outer"]) == pytest.approx(
        tracing.duration(spans["outer"]) - tracing.duration(spans["inner"]))
    with pytest.raises(LookupError):
        tracing.Tracer().patch_function(lambda: None, "unbound")
