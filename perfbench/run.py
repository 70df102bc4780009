"""normmon benchmark: per-tick monitor latency end to end, per-layer split
when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload office-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The workloads, metric names, units and bounds are declared in
``BENCHMARK.json`` at the root. The program under test is imported from
``src/`` of the same checkout; without it the benchmark exits with status 2
before printing a result.

Output: one JSON report line (environment, sample counts, input properties,
every value measured, problems found), then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count monitor calls; ``metrics`` holds the ``end_to_end`` metrics
of ``BENCHMARK.json`` untraced (``--trace 0``) and its ``per_layer`` metrics
traced (``--trace 1``). A traced run also writes its spans to
``.perfbench-out/``. The exit status is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(names) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_all(args, names) -> int:
    """Run each workload in its own process, so each reports its own peak
    memory."""
    status = 0
    for name in names:
        child = ["--workload", name, "--seed", str(args.seed)]
        child += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + child)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    if not os.path.isfile(os.path.join(SRC, "normmon", "__init__.py")):
        print(f"perfbench: no normmon sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import normmon
    import workloads

    import_s = time.perf_counter() - start
    if not os.path.abspath(normmon.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported normmon from {normmon.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        if args.trace:
            spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
            result = workloads.measure_traced(
                workload, args.seed, args.seconds, import_s, scratch, spans
            )
            declared = spec["per_layer"]
        else:
            result = workloads.measure(workload, args.seed, args.seconds, import_s, scratch)
            declared = spec["end_to_end"]

    metrics = {}
    for entry in declared:
        value, unit = result.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    report = {
        "workload": args.workload,
        "why": why,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": workloads.environment(ROOT, args.seed),
        **result.report,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(result.metrics.items())},
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
