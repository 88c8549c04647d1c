import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(HERE, "..", "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

NAMES = ("parent", "change")


def line(op_ms, rss, failed=0, correct=True):
    """A result line as ``perfbench/run.py`` prints it."""
    values = {"op_ms_p50": (op_ms, "ms"), "seq_per_s": (1000.0 / op_ms, "seq/s"),
              "peak_rss_mb": (rss, "MB")}
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def runs(pairs):
    """Runs in the order the tool makes them, each pair's first side
    alternating."""
    out = []
    for i, (seed, parent, change) in enumerate(pairs):
        sides = [("parent", parent), ("change", change)]
        for side, result in sides if i % 2 == 0 else sides[::-1]:
            out.append({"seed": seed, "side": side, "result": result})
    return out


def test_seed_ranges():
    assert bench_pairs.parse_seeds("1,4,10-12") == [1, 4, 10, 11, 12]
    assert bench_pairs.parse_seeds("7") == [7]


def test_summary_of_canned_lines():
    """Medians, quartiles, wins by each metric's direction and the bound
    check, on four pairs whose change is faster on three and uses more
    memory."""
    better, bounds = bench_pairs.metric_rules(bench_pairs.benchmark_spec())
    pairs = [(1, line(100.0, 50.0), line(90.0, 60.0)),
             (2, line(104.0, 50.0), line(95.0, 60.0)),
             (3, line(96.0, 51.0), line(98.0, 61.0)),
             (4, line(102.0, 49.0), line(91.0, 59.0))]
    summary = bench_pairs.summarize(runs(pairs), NAMES, better, bounds)
    assert summary["pairs"] == 4
    assert summary["failed"] == {"parent": [0] * 4, "change": [0] * 4}
    assert summary["correct"] == {"parent": True, "change": True}
    op = summary["metrics"]["op_ms_p50"]
    assert op["parent"] == [100.0, 104.0, 96.0, 102.0]
    assert op["change"] == [90.0, 95.0, 98.0, 91.0]
    assert op["parent_median"] == 101.0 and op["change_median"] == 93.0
    assert op["parent_quartiles"] == [99.0, 101.0, 102.5]
    assert op["parent_iqr"] == 3.5
    assert op["change_vs_parent"] == pytest.approx(-8.0 / 101.0)
    assert op["change_wins"] == 3 and op["resolved"]
    assert op["bound"] == 0.25 and op["within_bound"]
    # higher is better: the faster change wins the same pairs
    assert summary["metrics"]["seq_per_s"]["change_wins"] == 3
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["resolved"]
    assert rss["change_vs_parent"] == pytest.approx(0.2)
    assert rss["bound"] == 0.05 and not rss["within_bound"]


def test_failed_and_missing_runs():
    """A run that printed no line counts as not correct and holds no
    metric; a failed operation is reported per run."""
    better, bounds = bench_pairs.metric_rules(bench_pairs.benchmark_spec())
    pairs = [(1, line(100.0, 50.0), line(99.0, 50.0, failed=2, correct=False)),
             (2, line(101.0, 50.0), None)]
    summary = bench_pairs.summarize(runs(pairs), NAMES, better, bounds)
    assert summary["failed"] == {"parent": [0, 0], "change": [2, None]}
    assert summary["correct"] == {"parent": True, "change": False}
    op = summary["metrics"]["op_ms_p50"]
    assert op["pairs"] == 1 and op["parent"] == [100.0] and op["change"] == [99.0]
    assert op["parent_iqr"] == 0.0 and op["resolved"]


@pytest.mark.parametrize("argv", [
    ["--tree", "parent=a", "--tree", "change", "--workload", "w", "--seeds", "1-3"],
    ["--tree", "parent=a", "--tree", "change=b", "--workload", "w", "--seeds", "1-3,2"],
    ["--tree", "parent=a", "--tree", "parent=b", "--workload", "w", "--seeds", "1"],
])
def test_bad_arguments_are_usage_errors(argv, capsys):
    """A ``--tree`` without ``=``, a repeated seed (its pair would be
    overwritten) or a repeated tree name stops with a usage error
    before anything runs."""
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(argv)
    assert stop.value.code == 2
    assert "usage:" in capsys.readouterr().err
