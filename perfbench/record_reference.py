"""Record the expected outputs of every input variant into reference.json.

    python3 perfbench/record_reference.py [--workload W ...] [--variants N]

Run from the root of a gpgait checkout whose outputs are known good.
For training workloads it stores the losses of the first ``check_ops``
iterations; for evaluation, the cells of the results file. Entries for
workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import REFERENCE, collect, parse_results  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402


def record(root: str, workload: str, variant: int):
    spec = WORKLOADS[workload]
    result, _setup = collect(root, workload, variant, seconds=0, trace=0,
                             setup_samples=1)
    if result.get("failure"):
        raise SystemExit(f"{workload} variant {variant}: {result['failure']}")
    if spec["kind"] == "train":
        return result["losses"][:spec["check_ops"]]
    texts = set(result["results"])
    if len(texts) != 1:
        raise SystemExit(f"{workload} variant {variant}: passes disagree")
    return parse_results(texts.pop())[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--variants", type=int, default=VARIANTS)
    args = parser.parse_args(argv)
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    for workload in args.workload or sorted(WORKLOADS):
        entries = {}
        for variant in range(args.variants):
            entries[str(variant)] = record(os.getcwd(), workload, variant)
            print(f"{workload} variant {variant} recorded", flush=True)
        reference[workload] = entries
        write_reference(reference)
    return 0


def write_reference(reference: dict):
    """One line per (workload, variant), so a re-recording diffs cleanly."""
    blocks = []
    for workload in sorted(reference):
        rows = ",\n".join(f'  "{variant}": {json.dumps(value)}'
                          for variant, value in sorted(reference[workload].items(),
                                                       key=lambda kv: int(kv[0])))
        blocks.append(f' "{workload}": {{\n{rows}\n }}')
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
