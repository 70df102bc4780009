"""Property suites over batches of random domains.

Every monitor claim must be backed by ground truth: literals held in
partial states, reconstructed actions, identified verdicts, discovered
culprits, and the membership of the truly executed actions in the solution
sets. The exhaustive search is additionally checked against a brute-force
enumerate-and-filter oracle.
"""


class TestSoundness:
    def test_no_counterexamples_across_200_random_scenarios(self, soundness_report):
        assert soundness_report["scenarios"] >= 200
        assert soundness_report["failures"] == []

    def test_every_incomplete_tick_was_inspected(self, soundness_report):
        # The recorder aligned one search per incomplete tick per variant;
        # a batch in which nothing was ever reconstructed would be vacuous.
        assert soundness_report["full_calls"] > 100
        assert soundness_report["approx_calls"] == soundness_report["full_calls"]


class TestSearchOracle:
    def test_search_matches_brute_force_on_100_instances(self, search_oracle_report):
        assert search_oracle_report["instances"] >= 100
        assert search_oracle_report["mismatches"] == []
        # The leaf check decides concurrency conditions: some compared
        # instances must have them.
        assert search_oracle_report["conditioned"] >= 20
