#!/bin/sh
# Alternating runs of acceptance criterion 7 in two source trees: the ratio
# of the full route's cost per reconstructing tick to the approximate one's.
#
# Usage: scripts/criterion7_pairs.sh PARENT_TREE CHANGE_TREE N
#
# Each tree is a checkout of this repository (for example the parent commit,
# made with `git archive`, and the working tree). In each tree the script
# runs `python -m pytest -q -s tests/test_acceptance.py -k Criterion7` N
# times, the two trees in turn: pair k runs the parent first when k is odd
# and the change first when it is even. It reads the regime from the test
# itself and keeps each run's `criterion 7:` line. It prints every line, then
# each side's median full ms/tick, approximate ms/tick and ratio, and in how
# many pairs the change's ratio read lower. A run that prints no such line
# is named, and makes the script exit non-zero.
set -eu
if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE N" >&2
    exit 2
fi
parent=$1 change=$2 n=$3
results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT

k=1
while [ "$k" -le "$n" ]; do
    if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
        # A failing criterion still prints its line.
        (cd "$tree" && PYTHONPATH=src python -m pytest -q -s -p no:cacheprovider \
            tests/test_acceptance.py -k Criterion7 || true) \
            | grep "^criterion 7:" > "$results/$side.$k.txt" || true
    done
    k=$((k + 1))
done

python3 - "$results" "$n" <<'EOF'
import re
import statistics
import sys
from pathlib import Path

results, n = Path(sys.argv[1]), int(sys.argv[2])
line = re.compile(r"full ([0-9.]+) ms/tick vs approximate ([0-9.]+) ms/tick \(([0-9.]+)x")
runs, missing = {}, []
for side in ("parent", "change"):
    runs[side] = []
    for k in range(1, n + 1):
        text = (results / f"{side}.{k}.txt").read_text().strip()
        print(f"{side} {k}: {text or '(no criterion 7 line)'}")
        found = line.search(text)
        if found is None:
            missing.append(f"{side} run {k}")
            continue
        runs[side].append(tuple(map(float, found.groups())))
print(f"{'median':10s} {'full ms/tick':>14s} {'approx ms/tick':>16s} {'ratio':>8s}")
for side, values in runs.items():
    if values:
        full, approx, ratio = (statistics.median(column) for column in zip(*values))
        print(f"{side:10s} {full:14.3f} {approx:16.3f} {ratio:7.1f}x")
if len(runs["parent"]) == len(runs["change"]) == n:
    lower = sum(c[2] < p[2] for p, c in zip(runs["parent"], runs["change"]))
    print(f"change's ratio lower in {lower} of {n} pairs")
if missing:
    print("no criterion 7 line: " + ", ".join(missing))
    sys.exit(1)
EOF
