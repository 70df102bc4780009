"""Property suites over batches of random domains and of scenarios with
integrity rules.

Every monitor claim must be backed by ground truth: literals held in
partial states, reconstructed actions, identified verdicts, discovered
culprits, and the membership of the truly executed actions in the solution
sets. The exhaustive search is additionally checked against a brute-force
enumerate-and-filter oracle, and on office runs what the monitors identify
against what each robot's own observations make certain.
"""

import random

from normmon.harness import CaseStudyConfig, generate_case_study, oracle_events, simulate
from normmon.monitor import NormMonitor
from normmon.norms import IDENTIFIED, VIOLATED
from support import office_independence, violation_key, window_violations


class TestSoundness:
    def test_no_counterexamples_across_200_random_scenarios(self, soundness_report):
        assert soundness_report["scenarios"] >= 200
        assert soundness_report["failures"] == []

    def test_every_incomplete_tick_was_inspected(self, soundness_report):
        # The recorder aligned one search per incomplete tick per variant;
        # a batch in which nothing was ever reconstructed would be vacuous.
        assert soundness_report["full_calls"] > 100
        assert soundness_report["approx_calls"] == soundness_report["full_calls"]


class TestRuleSoundness:
    """The same properties on runs of scenarios with integrity rules, which
    random domains lack: office runs with cameras, crowded offices (a rule
    joining two agents) and a rule of three body literals."""

    def test_no_counterexamples_on_rule_carrying_runs(self, rule_soundness_report):
        assert rule_soundness_report["failures"] == []

    def test_each_rule_path_was_inspected(self, rule_soundness_report):
        assert rule_soundness_report["runs"] == 36
        assert rule_soundness_report["not_decomposable"] >= 24
        assert rule_soundness_report["joins"] >= 12
        assert rule_soundness_report["full_calls"] > 500
        assert rule_soundness_report["approx_calls"] == rule_soundness_report["full_calls"]


class TestSearchOracle:
    def test_search_matches_brute_force_on_100_instances(self, search_oracle_report):
        assert search_oracle_report["instances"] >= 100
        assert search_oracle_report["mismatches"] == []
        # The leaf check decides concurrency conditions: some compared
        # instances must have them.
        assert search_oracle_report["conditioned"] >= 20

    def test_search_matches_brute_force_where_a_rule_joins_two_agents(self, search_oracle_report):
        assert search_oracle_report["crowded"] >= 100
        assert search_oracle_report["mismatches"] == []


class TestWindowCeiling:
    """On office runs no monitor can identify more than each robot's own
    observations up to tick t+1 make certain when tick t closes."""

    def test_identified_violations_lie_inside_the_window(self):
        inside = 0
        for idx in range(12):
            rng = random.Random(idx)
            scenario = generate_case_study(CaseStudyConfig(camera_ratio=0.2 * (1 + idx % 4)), rng)
            log = simulate(scenario, 100, rng)
            assert office_independence(scenario, log) == []
            aware = window_violations(scenario, log)
            unaware = window_violations(scenario, log, camera_aware=False)
            truth = {violation_key(e.tick, e) for e in oracle_events(scenario, log) if e.status == VIOLATED}
            # The ceiling is sound, and the cameras only add to it.
            assert unaware <= aware <= truth
            for variant in ("full", "approximate"):
                identified = {
                    violation_key(r.tick, v.instance)
                    for r in NormMonitor(scenario, variant=variant).run(log.observed)
                    for v in r.verdicts
                    if v.mode == IDENTIFIED and v.status == VIOLATED
                }
                # The monitor reads no camera list, so it stays inside the
                # camera-unaware window.
                assert identified <= unaware
                inside += len(identified)
        assert inside > 1000
