#!/bin/sh
# Byte-compare the CLI's CSV, trace and standard output of two source trees.
#
# Usage: scripts/check_output_identity.sh BEFORE AFTER_TREE OUT_DIR
#
# Each tree is a checkout of this repository (for example the parent commit,
# made with `git archive`, and the working tree). BEFORE may also be a git
# revision of the repository the script is in, such as HEAD: it is then
# archived into a temporary tree, removed on exit. The runs use fixed seeds
# and PYTHONHASHSEED=0. Each run's standard output is kept next to its CSV,
# as is that of `normmon replay` on the bundled running-example trace.
# `replay-invalid.out` holds what `normmon replay` prints, on standard output
# and standard error, for two scenario files that break the schema (fig1 with
# `agents` as a string, and fig1 with an unknown top-level key), so that the
# wording of a rejection is compared too.
# Ground truth is compared directly too: `simulate.out` lists, for a few
# office and random scenarios and an office variant with no two robots in
# one office (a rule over two agents' positions, which the simulator
# repairs, and whose commits refilter the other robots' rows), each tick's
# executed and observed actions and the true state after it, so a change in
# the simulator's use of its random stream, in its action order or in its
# rule check shows up even where the scores do not move. `oracle.out`
# lists, for the same scenarios, every event of the omniscient judge
# (`harness.oracle_events`): tick, norm, controlled action, residual
# constraints, status and offender, which the score CSVs show only as
# counts. `rows.out` lists, for the same runs, the candidate row of each
# agent that the full and the approximate monitor build on each
# reconstructing tick, and the approximate fixpoint's table and commits.
# The exhaustive search runs that fixpoint too, so where a scenario is not
# decomposable the full variant's block also lists a table and its commits
# for each reconstructing tick; a change in which route runs the fixpoint
# shows up in `rows.out` alone. `outcomes.out`
# lists, for the same runs, one line per call of the full route: the tick,
# R, then the solution count and the cap-hit and no-completion flags.
# The script prints one line per compared file and exits non-zero if any
# pair differs.
set -eu
before=$1 after=$2 out=$3
export PYTHONHASHSEED=0

if [ ! -d "$before" ]; then
    repo=$(cd "$(dirname "$0")/.." && pwd)
    rev=$(git -C "$repo" rev-parse --verify --quiet "$before^{commit}") || {
        echo "$0: $before is neither a directory nor a git revision" >&2
        exit 2
    }
    before=$(mktemp -d)
    trap 'rm -rf "$before"' EXIT
    git -C "$repo" archive "$rev" | tar -x -C "$before"
fi

run() {  # run NAME ARGS...: in the current side's directory, outputs NAME.*
    name=$1
    shift
    python -m normmon.cli "$@" --out "$name.csv" > "$name.out"
}

mkdir -p "$out/before" "$out/after"
out=$(cd "$out" && pwd)
for side in before after; do
    if [ "$side" = before ]; then tree=$before; else tree=$after; fi
    # Outputs are named relative to the side's directory, so that the paths
    # the CLI reports are the same on both sides.
    export PYTHONPATH="$(cd "$tree" && pwd)/src"
    fixtures=$PYTHONPATH/normmon/fixtures
    cd "$out/$side"
    run sweep case-study --sweep --reps 10 --steps 50 --seed 3
    for v in full approximate; do
        run "case-$v" case-study --camera-ratio 0.4 --reps 8 --steps 60 \
            --seed 3 --variant "$v" --trace "case-$v.trace"
        run "random-$v" random --agents-min 1 --agents-max 4 --obs-prob 0.3 \
            --reps 30 --steps 40 --seed 5 --variant "$v" --trace "random-$v.trace"
        # Dense observation: singleton rows and cascading commits are common.
        run "case-dense-$v" case-study --camera-ratio 0.8 --reps 8 --steps 60 \
            --seed 3 --variant "$v" --trace "case-dense-$v.trace"
        run "random-dense-$v" random --agents-min 1 --agents-max 5 --obs-prob 0.7 \
            --reps 30 --steps 40 --seed 5 --variant "$v" --trace "random-dense-$v.trace"
    done
    python - <<'PY'
import random

from normmon import monitor as monitor_module, reconstruction
from normmon.harness import (
    CaseStudyConfig, RandomConfig, generate_case_study, generate_random, oracle_events, simulate,
)
from normmon.logic import atom_text
from normmon.monitor import NormMonitor
from normmon.scenario import constraint_text, scenario_from_dict, scenario_to_dict


def crowded(cfg, rng):
    """An office scenario with no two robots in one office."""
    data = scenario_to_dict(generate_case_study(cfg, rng))
    data["rules"].append({"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]})
    data["initial_state"] = [f"in({r},o{k})" for k, r in enumerate(data["agents"], 1)]
    return scenario_from_dict(data)


runs = []  # (kind, seed, scenario, observed actions per tick), for rows.out
with open("simulate.out", "w") as sim, open("oracle.out", "w") as oracle:
    for kind, generate, cfg, seeds in (
        ("office", generate_case_study, CaseStudyConfig(camera_ratio=0.4), range(4)),
        ("random", generate_random, RandomConfig(agents=4, observation_probability=0.5), range(4)),
        ("crowded", crowded, CaseStudyConfig(offices_min=6, offices_max=8, robots_min=4,
                                             robots_max=5, camera_ratio=0.3), (3, 6, 7)),
    ):
        for seed in seeds:
            rng = random.Random(seed)
            scenario = generate(cfg, rng)
            log = simulate(scenario, 40, rng)
            runs.append((kind, seed, scenario, log.observed))
            print(kind, seed, *sorted(map(atom_text, log.states[0])), file=sim)
            for t, (executed, observed) in enumerate(zip(log.executed, log.observed)):
                print(t, "executed", *executed, file=sim)
                print(t, "observed", *observed, file=sim)
                print(t, "state", *sorted(map(atom_text, log.states[t + 1])), file=sim)
            print(kind, seed, file=oracle)
            for e in oracle_events(scenario, log):
                residuals = ",".join(map(constraint_text, e.constraints)) or "-"
                print(e.tick, e.norm_id, atom_text(e.action), residuals, e.status, e.offender, file=oracle)

rows, fixpoint = reconstruction.candidate_actions, reconstruction.approximate_search
full = monitor_module.full_reconstruct
with open("rows.out", "w") as out, open("outcomes.out", "w") as outcomes:
    tick = [None]

    def listed_row(scenario, agent, i, f):
        row = rows(scenario, agent, i, f)
        print(tick[0], "row", agent, *row, file=out)
        return row

    def listed_fixpoint(scenario, i, f, targets):
        table, committed = fixpoint(scenario, i, f, targets)
        for agent, row in table.items():
            print(tick[0], "table", agent, *row, file=out)
        print(tick[0], "commits", *committed, file=out)
        return table, committed

    def listed_outcome(scenario, i, f, observed, targets):
        outcome, acts = full(scenario, i, f, observed, targets)
        print(tick[0], *outcome.reconstructed, "|", outcome.solution_count,
              outcome.cap_hit, outcome.no_completion, file=outcomes)
        return outcome, acts

    reconstruction.candidate_actions = listed_row
    reconstruction.approximate_search = listed_fixpoint
    monitor_module.full_reconstruct = listed_outcome
    for kind, seed, scenario, observed in runs:
        print(kind, seed, file=outcomes)
        for variant in ("full", "approximate"):
            print(kind, seed, variant, file=out)
            monitor = NormMonitor(scenario, variant=variant)
            # Each call closes, and reconstructs, the tick before.
            for t, acts in enumerate(observed):
                tick[0] = t - 1
                monitor.advance(acts)
            tick[0] = len(observed) - 1
            monitor.finish()
PY
    # A replay mismatch exits 1; its report is part of the compared output.
    python -m normmon.cli replay "$fixtures/running-example.trace" "$fixtures/fig1.json" \
        > replay.out || true
    python - "$fixtures/fig1.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    fig1 = json.load(fh)
for name, spoil in (("agents-as-string", {"agents": "r1"}), ("unknown-key", {"colour": "red"})):
    with open(f"invalid-{name}.json", "w") as fh:
        json.dump({**fig1, **spoil}, fh, indent=2, sort_keys=True)
PY
    for f in invalid-agents-as-string.json invalid-unknown-key.json; do
        echo "== $f"
        python -m normmon.cli replay "$fixtures/running-example.trace" "$f" 2>&1 || true
    done > replay-invalid.out
    cd - > /dev/null
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
