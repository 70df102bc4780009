"""Shared heavy-duty checkers used by the soundness and acceptance suites.

Both runners draw batches of small random domains, run the monitors against
ground truth, and collect counterexample descriptions instead of asserting,
so callers can report totals in a single place.
"""

import itertools
import random
from typing import Dict, List

import normmon.monitor as monitor
import normmon.reconstruction as reconstruction
from normmon.harness import (
    GroundTruthLog,
    RandomConfig,
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
from normmon.scenario import Scenario


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
        events = oracle_events(scenario, log)
        incomplete = _incomplete_ticks(scenario, log)
        truth_by_tick = [{a.actor: a for a in acts} for acts in log.executed]

        records = NormMonitor(scenario, variant="traditional").run(log.observed)
        _check_tick_records(scenario, log, records, events, f"s{idx}/traditional", failures)

        with _Recorder() as rec:
            records = NormMonitor(scenario, variant="full").run(log.observed)
        _check_tick_records(scenario, log, records, events, f"s{idx}/full", failures)
        full_calls += len(rec.full_calls)
        if len(rec.full_calls) != len(incomplete):
            failures.append(f"s{idx}/full: {len(rec.full_calls)} reconstructions for {len(incomplete)} incomplete ticks")
        else:
            for t, (targets, consistent) in zip(incomplete, rec.full_calls):
                true_joint = tuple(truth_by_tick[t][g] for g in targets)
                if true_joint not in consistent:
                    failures.append(f"s{idx}/full tick {t}: executed completion not among consistent solutions")

        with _Recorder() as rec:
            records = NormMonitor(scenario, variant="approximate").run(log.observed)
        _check_tick_records(scenario, log, records, events, f"s{idx}/approximate", failures)
        approx_calls += len(rec.approx_calls)
        if len(rec.approx_calls) != len(incomplete):
            failures.append(
                f"s{idx}/approximate: {len(rec.approx_calls)} searches for {len(incomplete)} incomplete ticks"
            )
        else:
            for t, (targets, table) in zip(incomplete, rec.approx_calls):
                for g in targets:
                    if truth_by_tick[t][g] not in table[g]:
                        failures.append(
                            f"s{idx}/approximate tick {t}: executed action of {g} missing from its candidates"
                        )
    return {
        "scenarios": n_scenarios,
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


def run_search_oracle(min_instances: int = 100, max_seeds: int = 1500) -> Dict:
    """Compare search() with the brute-force oracle on naturally arising
    reconstruction instances (|targets| <= 3, <= 10 candidates per agent).
    ``conditioned`` counts the compared instances in which an observed or
    ground action of a target has a concurrency condition."""
    checked = conditioned = 0
    mismatches: List[str] = []
    instances = []

    real_search = reconstruction.search

    for idx in range(max_seeds):
        if checked >= min_instances:
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

        def spy(sc, i, f, observed, targets, cap=reconstruction.DEFAULT_SOLUTION_CAP):
            instances.append((sc, i.copy(), f.copy(), list(observed), tuple(sorted(targets))))
            return real_search(sc, i, f, observed, targets, cap)

        reconstruction.search = spy
        try:
            NormMonitor(scenario, variant="full").run(log.observed)
        finally:
            reconstruction.search = real_search

        while instances and checked < min_instances:
            sc, i, f, observed, targets = instances.pop()
            if not 1 <= len(targets) <= 3:
                continue
            if any(len(sc.ground_actions(t)) > 10 for t in targets):
                continue
            got, cap_hit = real_search(sc, i, f, observed, targets)
            assert not cap_hit
            want = _brute_force_search(sc, i, f, observed, targets)
            if set(got) != set(want):
                mismatches.append(
                    f"seed {cfg.seed} targets {targets}: search found {len(got)}, oracle {len(want)}"
                )
            checked += 1
            conditioned += any(
                a.con for a in [*observed, *(b for t in targets for b in sc.ground_actions(t))]
            )
        instances.clear()
    return {"instances": checked, "mismatches": mismatches, "conditioned": conditioned}
