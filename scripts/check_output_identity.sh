#!/bin/sh
# Byte-compare the CLI's CSV and trace output of two source trees.
#
# Usage: scripts/check_output_identity.sh BEFORE_TREE AFTER_TREE OUT_DIR
#
# Each tree is a checkout of this repository (for example the parent commit,
# made with `git archive`, and the working tree). The runs use fixed seeds
# and PYTHONHASHSEED=0; the script prints one line per compared file and
# exits non-zero if any pair differs.
set -eu
before=$1 after=$2 out=$3
export PYTHONHASHSEED=0

run() {  # run TREE NAME ARGS...: outputs go to OUT_DIR/TREE_LABEL/NAME.*
    tree=$1 dir=$2 name=$3
    shift 3
    mkdir -p "$dir"
    PYTHONPATH="$tree/src" python -m normmon.cli "$@" --out "$dir/$name.csv" > /dev/null
}

for side in before after; do
    if [ "$side" = before ]; then tree=$before; else tree=$after; fi
    dir=$out/$side
    run "$tree" "$dir" sweep case-study --sweep --reps 10 --steps 50 --seed 3
    for v in full approximate; do
        run "$tree" "$dir" "case-$v" case-study --camera-ratio 0.4 --reps 8 --steps 60 \
            --seed 3 --variant "$v" --trace "$dir/case-$v.trace"
        run "$tree" "$dir" "random-$v" random --agents-min 1 --agents-max 4 --obs-prob 0.3 \
            --reps 30 --steps 40 --seed 5 --variant "$v" --trace "$dir/random-$v.trace"
    done
done

status=0
for f in $(cd "$out/before" && ls); do
    if cmp -s "$out/before/$f" "$out/after/$f"; then
        echo "identical $f"
    else
        echo "DIFFERS   $f"
        status=1
    fi
done
exit $status
