"""Shared heavy-duty checkers used by the soundness and acceptance suites.

Both runners draw batches of small random domains, run the monitors against
ground truth, and collect counterexample descriptions instead of asserting,
so callers can report totals in a single place.
"""

import itertools
import random
from typing import Dict, Iterator, List, Optional, Tuple

import normmon.monitor as monitor
import normmon.reconstruction as reconstruction
from normmon.harness import (
    CaseStudyConfig,
    GroundTruthLog,
    RandomConfig,
    applicable_actions,
    generate_case_study,
    generate_random,
    oracle_events,
    simulate,
)
from normmon.logic import consistent_with
from normmon.actions import concurrent_condition_satisfied, joint_post, joint_pre
from normmon.monitor import NormMonitor
from normmon.norms import (
    FULFILLED,
    IDENTIFIED,
    OBLIGATION,
    PROHIBITION,
    VIOLATED,
    instance_matches,
    matched_by,
    relevant_instances_closed,
)
from normmon.scenario import Scenario, scenario_from_dict, scenario_to_dict

# No two robots in one office: a rule that joins two agents' atoms, so a
# scenario that carries it is not decomposable.
CROWDED_RULE = {"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]}
# No three robots in one office: a rule of three body literals.
TRIO_RULE = {
    "body": ["in(R1,O)", "in(R2,O)", "in(R3,O)"],
    "constraints": ["R1!=R2", "R1!=R3", "R2!=R3"],
}


def office_with_rule(cfg: CaseStudyConfig, rng: random.Random, rule: Dict) -> Scenario:
    """A case-study scenario with one more integrity rule, each robot
    starting in an office of its own (the config must have no more robots
    than offices)."""
    data = scenario_to_dict(generate_case_study(cfg, rng))
    data["rules"].append(rule)
    data["initial_state"] = [f"in({r},o{k})" for k, r in enumerate(data["agents"], 1)]
    return scenario_from_dict(data)


def crowded_office(seed: int, cfg: Optional[CaseStudyConfig] = None) -> Scenario:
    """An office scenario with no two robots in one office, built as
    ``scripts/check_output_identity.sh`` builds it: by default 6-8 offices
    and 4-5 robots."""
    if cfg is None:
        cfg = CaseStudyConfig(offices_min=6, offices_max=8, robots_min=4, robots_max=5, camera_ratio=0.3)
    return office_with_rule(cfg, random.Random(seed), CROWDED_RULE)


def rule_runs(n: int, steps: int) -> Iterator[Tuple[str, Scenario, GroundTruthLog]]:
    """Ground-truth runs of scenarios with integrity rules, n of each kind,
    labelled: office runs with cameras (ratios 0.2 to 0.8), crowded-office
    runs and office runs under a rule of three body literals. Random
    domains carry no rules, so these are the runs on which the rule paths
    meet the soundness checks."""
    for idx in range(n):
        ratio = 0.2 * (1 + idx % 4)
        rng = random.Random(idx)
        cfg = CaseStudyConfig(offices_max=6, robots_max=3, camera_ratio=ratio)
        scenario = generate_case_study(cfg, rng)
        yield f"office{idx}", scenario, simulate(scenario, steps, rng)
        rng = random.Random(100 + idx)
        cfg = CaseStudyConfig(offices_min=4, offices_max=5, robots_min=3, robots_max=4, camera_ratio=ratio)
        scenario = office_with_rule(cfg, rng, CROWDED_RULE)
        yield f"crowded{idx}", scenario, simulate(scenario, steps, rng)
        rng = random.Random(200 + idx)
        cfg = CaseStudyConfig(offices_min=3, offices_max=4, robots_min=3, robots_max=3, camera_ratio=ratio)
        scenario = office_with_rule(cfg, rng, TRIO_RULE)
        yield f"trio{idx}", scenario, simulate(scenario, steps, rng)


def joint_consistent(scenario: Scenario, joint, before, after) -> bool:
    """The reference joint check, kept apart from the package's own: one
    action per agent, the joint preconditions consistent with the partial
    state ``before`` and the joint postconditions with ``after``, and every
    concurrency condition met."""
    actors = [a.actor for a in joint]
    if len(actors) != len(set(actors)) or set(actors) != set(scenario.agents):
        return False
    if not consistent_with(before, joint_pre(joint), scenario.rules):
        return False
    if not consistent_with(after, joint_post(joint), scenario.rules):
        return False
    return all(concurrent_condition_satisfied(a, joint) for a in joint)


def _soundness_config(idx: int) -> RandomConfig:
    return RandomConfig(
        agents=1,
        agents_max=5,
        actions=2 + idx % 7,
        observation_probability=(idx % 5) / 4.0,
        steps=8,
        repetitions=1,
        seed=idx,
    )


def _incomplete_ticks(scenario: Scenario, log: GroundTruthLog) -> List[int]:
    return [
        t
        for t, obs in enumerate(log.observed)
        if len(obs) < len(scenario.agents)
    ]


class _Recorder:
    """Wraps the monitor's full reconstruction and the approximate search and
    records, per call, what the soundness properties need: the consistent
    joint solutions of each incomplete tick and the per-agent candidate
    table of the approximate route.

    The full route may take its product-form shortcut and never search, so
    the reference solution set is computed here, by ``search`` plus
    :func:`joint_consistent` on copies of the states after folding the
    observed actions in, for every incomplete tick of either form."""

    def __init__(self):
        self.full_calls = []
        self.approx_calls = []
        self._full = monitor.full_reconstruct
        self._approx = reconstruction.approximate_search

    def __enter__(self):
        def full_spy(scenario, i, f, observed, targets, cap=reconstruction.DEFAULT_SOLUTION_CAP):
            i2, f2 = i.copy(), f.copy()
            reconstruction._fold_observed(scenario, i2, f2, observed)
            sols, _ = reconstruction.search(scenario, i2, f2, observed, targets, cap)
            consistent = [s for s in sols if joint_consistent(scenario, [*observed, *s], i2, f2)]
            self.full_calls.append((tuple(sorted(targets)), consistent))
            return self._full(scenario, i, f, observed, targets, cap=cap)

        def approx_spy(scenario, i, f, targets):
            table, committed = self._approx(scenario, i, f, targets)
            self.approx_calls.append(
                (tuple(sorted(targets)), {t: list(row) for t, row in table.items()})
            )
            return table, committed

        monitor.full_reconstruct = full_spy
        reconstruction.approximate_search = approx_spy
        return self

    def __exit__(self, *exc):
        monitor.full_reconstruct = self._full
        reconstruction.approximate_search = self._approx
        return False


def _check_tick_records(scenario, log, records, events, label, failures):
    """Properties (a)-(d) over one monitor run."""
    keys = {e.key() for e in events}
    dynamic = scenario.dynamic_predicates
    for rec in records:
        truth = log.states[rec.tick]
        executed = set(log.executed[rec.tick])
        by_actor = {a.actor: a for a in log.executed[rec.tick]}
        for atom, sign in rec.state_snapshot:
            holds = atom in truth if atom[0] in dynamic else atom in scenario.statics
            if holds != sign:
                failures.append(
                    f"{label} tick {rec.tick}: partial state holds {atom}={sign}, ground truth disagrees"
                )
        for a in rec.reconstructed:
            if a not in executed:
                failures.append(f"{label} tick {rec.tick}: reconstructed {a} never executed")
        instances = relevant_instances_closed(scenario.norms, truth, scenario.statics)
        prohibitions = [n for n in instances if n.norm.deontic == PROHIBITION]
        obligations = [n for n in instances if n.norm.deontic == OBLIGATION]
        for v in rec.verdicts:
            if v.mode == IDENTIFIED:
                key = (
                    rec.tick,
                    v.instance.norm_id,
                    v.instance.action,
                    v.instance.constraints,
                    v.status,
                )
                if key not in keys:
                    failures.append(
                        f"{label} tick {rec.tick}: identified verdict {v!r} has no oracle event"
                    )
                continue
            act = by_actor.get(v.culprit)
            if act is None:
                failures.append(f"{label} tick {rec.tick}: culprit {v.culprit} executed nothing")
                continue
            if not matched_by(prohibitions if v.status == VIOLATED else obligations, act):
                failures.append(
                    f"{label} tick {rec.tick}: discovered {v.status} culprit {v.culprit} "
                    f"executed {act}, which matches no relevant instance"
                )


def _check_run(scenario: Scenario, log: GroundTruthLog, label: str, failures: List[str]) -> Tuple[int, int]:
    """Properties (a)-(e) over one ground-truth run and all variants: each
    variant's tick records (see :func:`_check_tick_records`), the executed
    completion among the consistent ones on every incomplete tick of the
    full route, and each executed action in its agent's candidate row of
    the approximate route. Returns the numbers of full and approximate
    reconstructions inspected."""
    events = oracle_events(scenario, log)
    incomplete = _incomplete_ticks(scenario, log)
    truth_by_tick = [{a.actor: a for a in acts} for acts in log.executed]

    records = NormMonitor(scenario, variant="traditional").run(log.observed)
    _check_tick_records(scenario, log, records, events, f"{label}/traditional", failures)

    with _Recorder() as rec:
        records = NormMonitor(scenario, variant="full").run(log.observed)
    _check_tick_records(scenario, log, records, events, f"{label}/full", failures)
    full_calls = len(rec.full_calls)
    if len(rec.full_calls) != len(incomplete):
        failures.append(f"{label}/full: {len(rec.full_calls)} reconstructions for {len(incomplete)} incomplete ticks")
    else:
        for t, (targets, consistent) in zip(incomplete, rec.full_calls):
            true_joint = tuple(truth_by_tick[t][g] for g in targets)
            if true_joint not in consistent:
                failures.append(f"{label}/full tick {t}: executed completion not among consistent solutions")

    with _Recorder() as rec:
        records = NormMonitor(scenario, variant="approximate").run(log.observed)
    _check_tick_records(scenario, log, records, events, f"{label}/approximate", failures)
    approx_calls = len(rec.approx_calls)
    if len(rec.approx_calls) != len(incomplete):
        failures.append(
            f"{label}/approximate: {len(rec.approx_calls)} searches for {len(incomplete)} incomplete ticks"
        )
    else:
        for t, (targets, table) in zip(incomplete, rec.approx_calls):
            for g in targets:
                if truth_by_tick[t][g] not in table[g]:
                    failures.append(
                        f"{label}/approximate tick {t}: executed action of {g} missing from its candidates"
                    )
    return full_calls, approx_calls


def run_soundness_suite(n_scenarios: int = 200) -> Dict:
    """Properties (a)-(e) over a batch of random domains and all variants.

    Returns a report with the batch size, the number of reconstruction
    calls inspected, and the list of counterexample descriptions (empty on
    success).
    """
    failures: List[str] = []
    full_calls = approx_calls = 0
    for idx in range(n_scenarios):
        cfg = _soundness_config(idx)
        rng = random.Random(cfg.seed)
        scenario = generate_random(cfg, rng)
        log = simulate(scenario, cfg.steps, rng)
        full, approx = _check_run(scenario, log, f"s{idx}", failures)
        full_calls += full
        approx_calls += approx
    return {
        "scenarios": n_scenarios,
        "full_calls": full_calls,
        "approx_calls": approx_calls,
        "failures": failures,
    }


def run_rule_soundness_suite(n: int, steps: int) -> Dict:
    """The properties of :func:`run_soundness_suite` over :func:`rule_runs`.
    The report also counts the runs whose scenario is not decomposable and
    those with a rule of three or more body literals."""
    failures: List[str] = []
    full_calls = approx_calls = generic = joins = 0
    runs = list(rule_runs(n, steps))
    for label, scenario, log in runs:
        full, approx = _check_run(scenario, log, label, failures)
        full_calls += full
        approx_calls += approx
        generic += not scenario.decomposable
        joins += bool(scenario.rules.joins)
    return {
        "runs": len(runs),
        "not_decomposable": generic,
        "joins": joins,
        "full_calls": full_calls,
        "approx_calls": approx_calls,
        "failures": failures,
    }


def _brute_force_search(scenario, i, f, observed, targets):
    """Reference oracle: enumerate every joint assignment of ground actions
    to the target agents and keep the ones that, with the observed actions,
    pass :func:`joint_consistent` against the (observation-extended)
    partial states."""
    i = i.copy()
    f = f.copy()
    reconstruction._fold_observed(scenario, i, f, observed)
    rows = [scenario.ground_actions(t) for t in sorted(targets)]
    return [
        combo
        for combo in itertools.product(*rows)
        if joint_consistent(scenario, [*observed, *combo], i, f)
    ]


def _search_calls(scenario: Scenario, log: GroundTruthLog) -> List[Tuple]:
    """The calls a full monitor run over the log makes to ``search``, each
    as (scenario, i, f, observed, targets) with copies of the states."""
    calls = []
    real_search = reconstruction.search

    def spy(sc, i, f, observed, targets, cap=reconstruction.DEFAULT_SOLUTION_CAP):
        calls.append((sc, i.copy(), f.copy(), list(observed), tuple(sorted(targets))))
        return real_search(sc, i, f, observed, targets, cap)

    reconstruction.search = spy
    try:
        NormMonitor(scenario, variant="full").run(log.observed)
    finally:
        reconstruction.search = real_search
    return calls


def run_search_oracle(min_instances: int = 100, max_seeds: int = 1500, min_crowded: int = 0) -> Dict:
    """Compare search() with the brute-force oracle on naturally arising
    reconstruction instances (|targets| <= 3, <= 10 candidates per agent):
    ``min_instances`` from random domains, then ``min_crowded`` from small
    crowded offices, where a rule joining two agents prunes the rows.
    ``conditioned`` counts the compared instances in which an observed or
    ground action of a target has a concurrency condition."""
    report = {"instances": 0, "crowded": 0, "mismatches": [], "conditioned": 0}

    def compare(instances, label, counter, quota):
        while instances and report[counter] < quota:
            sc, i, f, observed, targets = instances.pop()
            if not 1 <= len(targets) <= 3:
                continue
            if any(len(sc.ground_actions(t)) > 10 for t in targets):
                continue
            got, cap_hit = reconstruction.search(sc, i, f, observed, targets)
            assert not cap_hit
            want = _brute_force_search(sc, i, f, observed, targets)
            if set(got) != set(want):
                report["mismatches"].append(
                    f"{label} targets {targets}: search found {len(got)}, oracle {len(want)}"
                )
            report[counter] += 1
            report["conditioned"] += any(
                a.con for a in [*observed, *(b for t in targets for b in sc.ground_actions(t))]
            )

    for idx in range(max_seeds):
        if report["instances"] >= min_instances:
            break
        cfg = RandomConfig(
            agents=2,
            agents_max=5,
            actions=2 + idx % 7,
            observation_probability=(idx % 4) / 4.0,
            steps=6,
            repetitions=1,
            seed=10_000 + idx,
        )
        rng = random.Random(cfg.seed)
        scenario = generate_random(cfg, rng)
        log = simulate(scenario, cfg.steps, rng)
        compare(_search_calls(scenario, log), f"seed {cfg.seed}", "instances", min_instances)
    small = CaseStudyConfig(offices_min=3, offices_max=4, robots_min=2, robots_max=3, camera_ratio=0.3)
    for seed in range(max_seeds):
        if report["crowded"] >= min_crowded:
            break
        scenario = crowded_office(seed, small)
        log = simulate(scenario, 10, random.Random(seed))
        compare(_search_calls(scenario, log), f"crowded seed {seed}", "crowded", min_crowded)
    return report


def _office_transitions(scenario: Scenario, log: GroundTruthLog, robot: str, camera_aware: bool) -> List[set]:
    """Per tick, the (from, to) office pairs of the robot's action that its
    own observation allows: the observed move; for an observed NOP, staying
    in an office with no corridor out (a robot takes NOP only when stuck);
    and with no observation, a move along any corridor, or with
    ``camera_aware`` only along one that no camera watches."""
    offices = [a[1] for a in scenario.statics.with_pred("office")]
    corridors = [a[1:] for a in scenario.statics.with_pred("corridor")]
    stuck = {(x, x) for x in offices if not any(c[0] == x for c in corridors)}
    out = []
    for observed in log.observed:
        seen = next((a for a in observed if a.actor == robot), None)
        if seen is None:
            out.append({(x, y) for x, y in corridors if not (camera_aware and scenario.watched(("move", robot, x, y)))})
        elif seen.name == "move":
            out.append({seen.args[1:]})
        else:
            out.append(stuck)
    return out


def window_violations(scenario: Scenario, log: GroundTruthLog, camera_aware: bool = True) -> set:
    """The office norm's violations identifiable when tick t closes, from
    each robot's own observations of ticks 0..t+1, as (tick, occupant,
    office). Office dynamics are independent per robot, so each robot's
    possible (from, to) pairs at tick t are those its forward set allows
    (reachable from its start through the ticks before) that leave it
    where its action at t+1 can start. A violation is identifiable when
    the occupant's office is certain and some other robot certainly moves
    into it. The caller checks that the independence holds."""
    home = {a[1]: a[2] for a in scenario.initial_state}
    offices = {a[1] for a in scenario.statics.with_pred("office")}
    ticks = len(log.executed)
    pairs = {}
    for robot in scenario.agents:
        allowed = _office_transitions(scenario, log, robot, camera_aware)
        reach, per_tick = {home[robot]}, []
        for t in range(ticks):
            ahead = {x for x, _ in allowed[t + 1]} if t + 1 < ticks else offices
            per_tick.append({(x, y) for x, y in allowed[t] if x in reach and y in ahead})
            reach = {y for x, y in allowed[t] if x in reach}
        pairs[robot] = per_tick
    found = set()
    for t in range(ticks):
        for occupant in scenario.agents:
            where = {x for x, _ in pairs[occupant][t]}
            if len(where) != 1:
                continue
            (office,) = where
            if any(
                other != occupant and pairs[other][t] and all(x != y == office for x, y in pairs[other][t])
                for other in scenario.agents
            ):
                found.add((t, occupant, office))
    return found


def office_independence(scenario: Scenario, log: GroundTruthLog) -> List[str]:
    """What breaks the per-robot independence :func:`window_violations`
    relies on, as messages: a scenario that is not decomposable, an action
    with a concurrency condition, or a NOP by a robot that could move."""
    problems = [] if scenario.decomposable else ["not decomposable"]
    problems += [f"{a} has a concurrency condition" for g in scenario.agents for a in scenario.ground_actions(g) if a.con]
    for t, executed in enumerate(log.executed):
        for a in executed:
            if a.name == "nop" and applicable_actions(scenario, a.actor, log.states[t]):
                problems.append(f"tick {t}: {a} although {a.actor} could move")
    return problems


def violation_key(tick: int, instance) -> Tuple[int, str, str]:
    """The office norm's violation at a tick as (tick, occupant, office),
    from a norm instance or an oracle event: its residual ``occupant != R2``
    and the office its move enters."""
    ((occupant, _, _),) = instance.constraints
    return tick, occupant, instance.action[3]
