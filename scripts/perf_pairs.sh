#!/bin/sh
# Alternating perfbench pairs of two source trees, the protocol for a speed
# claim.
#
# Usage: scripts/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD N
#
# Each tree is a checkout of this repository (for example the parent commit,
# made with `git archive`, and the working tree). In each tree the script
# runs `perfbench/run.py --workload WORKLOAD --seed 1 --seconds 20 --trace 0`
# N times, the two trees in turn: pair k runs the parent first when k is odd
# and the change first when it is even. It prints, for each end-to-end
# metric, each side's median with its quartiles, and in how many pairs the
# change read lower, higher and the same. A run that is not correct or has
# failed calls is named, and makes the script exit non-zero.
set -eu
if [ $# -ne 4 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD N" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=$4
results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT

k=1
while [ "$k" -le "$n" ]; do
    if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
        # The last line of a run is its result; a failed check still prints it.
        (cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 20 --trace 0 || true) | tail -n 1 > "$results/$side.$k.json"
    done
    k=$((k + 1))
done

python3 - "$results" "$n" "$workload" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

results, n, workload = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
runs = {
    side: [json.loads((results / f"{side}.{k}.json").read_text()) for k in range(1, n + 1)]
    for side in ("parent", "change")
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print(f"{workload}: {n} pairs, medians with [first quartile, third quartile]")
print(f"{'metric':40s} {'parent':>28s} {'change':>28s}  change lower/higher/same")
for name, first in runs["parent"][0]["metrics"].items():
    a = [run["metrics"][name]["value"] for run in runs["parent"]]
    b = [run["metrics"][name]["value"] for run in runs["change"]]
    lower = sum(y < x for x, y in zip(a, b))
    higher = sum(y > x for x, y in zip(a, b))
    sides = [
        "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(values)) for values in (a, b)
    ]
    label = f"{name} ({first['unit']})"
    print(f"{label:40s} {sides[0]:>28s} {sides[1]:>28s}  {lower}/{higher}/{n - lower - higher}")
bad = [
    f"{side} run {k}"
    for side, side_runs in runs.items()
    for k, run in enumerate(side_runs, 1)
    if not run["correct"] or run["failed"]
]
if bad:
    print("not correct or with failed calls: " + ", ".join(bad))
    sys.exit(1)
EOF
