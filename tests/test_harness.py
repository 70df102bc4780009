import random
import sys

import pytest

from normmon import logic
from normmon.harness import (
    CaseStudyConfig,
    RandomConfig,
    applicable_actions,
    generate_case_study,
    generate_random,
    observe,
    oracle_events,
    repetition_seed,
    run_experiment,
    run_monitor,
    score_run,
    simulate,
)
from normmon.logic import is_consistent
from normmon.norms import FULFILLED, VIOLATED
from normmon.scenario import scenario_from_dict, scenario_hash, scenario_to_dict

from conftest import crowded_office, generated_scenarios


def case_study(seed=0, **kwargs):
    cfg = CaseStudyConfig(**kwargs)
    rng = random.Random(repetition_seed(cfg.seed, seed))
    return cfg, generate_case_study(cfg, rng), rng


class TestGenerators:
    def test_case_study_determinism(self):
        _, sc1, _ = case_study(seed=3, camera_ratio=0.5)
        _, sc2, _ = case_study(seed=3, camera_ratio=0.5)
        assert scenario_hash(sc1) == scenario_hash(sc2)

    def test_case_study_sizes_respect_the_intervals(self):
        for idx in range(20):
            _, sc, _ = case_study(seed=idx, camera_ratio=0.5)
            offices = [a for a in sc.statics.atoms if a[0] == "office"]
            assert 3 <= len(offices) <= 10
            assert 2 <= len(sc.agents) <= 5
            corridors = [a for a in sc.statics.atoms if a[0] == "corridor"]
            assert len(offices) <= len(corridors) <= len(offices) * (len(offices) - 1)

    def test_random_determinism(self):
        cfg = RandomConfig(agents=3, actions=4, observation_probability=0.5, seed=9)
        sc1 = generate_random(cfg, random.Random(1))
        sc2 = generate_random(cfg, random.Random(1))
        assert scenario_hash(sc1) == scenario_hash(sc2)

    def test_random_agent_interval(self):
        cfg = RandomConfig(agents=2, agents_max=6, actions=4)
        sizes = {
            len(generate_random(cfg, random.Random(i)).agents) for i in range(30)
        }
        assert sizes <= set(range(2, 7)) and len(sizes) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(camera_ratio=1.5)
        with pytest.raises(ValueError):
            CaseStudyConfig(offices_min=2)
        with pytest.raises(ValueError):
            RandomConfig(agents=0)
        with pytest.raises(ValueError):
            RandomConfig(agents=5, agents_max=3)


class TestSimulation:
    def test_states_follow_executed_actions(self):
        _, sc, rng = case_study(seed=1, camera_ratio=0.5)
        log = simulate(sc, 30, rng)
        assert len(log.states) == 31
        assert len(log.executed) == len(log.observed) == 30
        for t, acts in enumerate(log.executed):
            assert sorted(a.actor for a in acts) == sorted(sc.agents)
            # Positive literals of every executed action's precondition
            # hold in the ground-truth state it started from.
            for a in acts:
                for atom, sign in a.pre:
                    assert (atom in log.states[t]) == sign

    def test_observed_is_a_subset_of_executed(self):
        _, sc, rng = case_study(seed=2, camera_ratio=0.4)
        log = simulate(sc, 30, rng)
        for executed, observed in zip(log.executed, log.observed):
            assert set(observed) <= set(executed)

    def test_zero_ratio_observes_only_nops(self):
        _, sc, rng = case_study(seed=3, camera_ratio=0.0)
        log = simulate(sc, 30, rng)
        for observed in log.observed:
            assert all(a.name == "nop" for a in observed)

    def test_full_ratio_observes_everything(self):
        _, sc, rng = case_study(seed=4, camera_ratio=1.0)
        log = simulate(sc, 30, rng)
        for executed, observed in zip(log.executed, log.observed):
            assert set(observed) == set(executed)

    def test_the_crowded_office_runs_within_its_rules(self):
        # No two robots in one office: the repair must see the rule, which
        # joins the successor's atoms of two robots.
        moves = 0
        for seed in range(20):
            scenario = crowded_office(seed)
            log = simulate(scenario, 40, random.Random(seed))
            for state in log.states:
                closed = [(atom, atom in state) for atom in scenario.dynamic_atoms]
                assert is_consistent(closed, scenario.statics, scenario.rules)
            moves += sum(a.name == "move" for acts in log.executed for a in acts)
        assert moves > 100

    def test_zero_probability_observes_only_nops(self):
        cfg = RandomConfig(agents=3, actions=4, observation_probability=0.0, seed=5)
        rng = random.Random(repetition_seed(5, 0))
        sc = generate_random(cfg, rng)
        log = simulate(sc, 20, rng)
        for observed in log.observed:
            assert all(a.name == "nop" for a in observed)


class TestScoring:
    def test_oracle_event_keys_are_unique(self):
        _, sc, rng = case_study(seed=6, camera_ratio=0.5)
        log = simulate(sc, 40, rng)
        events = oracle_events(sc, log)
        keys = [e.key() for e in events]
        assert len(keys) == len(set(keys))

    def test_credit_never_exceeds_ground_truth(self):
        for idx in range(5):
            _, sc, rng = case_study(seed=idx, camera_ratio=0.4)
            log = simulate(sc, 40, rng)
            for variant in ("traditional", "full", "approximate"):
                records = run_monitor(sc, log, variant)
                s = score_run(sc, log, records)
                assert s.identified_violations + s.discovered_violations <= s.gt_violations
                assert (
                    s.identified_fulfilments + s.discovered_fulfilments
                    <= s.gt_fulfilments
                )

    def test_total_observation_matches_the_oracle_exactly(self):
        _, sc, rng = case_study(seed=7, camera_ratio=1.0)
        log = simulate(sc, 40, rng)
        for variant in ("traditional", "full", "approximate"):
            records = run_monitor(sc, log, variant)
            s = score_run(sc, log, records)
            assert s.identified_violations == s.gt_violations
            assert s.identified_fulfilments == s.gt_fulfilments
            assert s.discovered_violations == s.discovered_fulfilments == 0


class TestExperiment:
    def test_metrics_are_deterministic(self):
        cfg = CaseStudyConfig(camera_ratio=0.5, steps=15, repetitions=4, seed=11)
        m1 = run_experiment(cfg, ("traditional", "approximate"), generate_case_study)
        m2 = run_experiment(cfg, ("traditional", "approximate"), generate_case_study)
        assert m1.pooled == m2.pooled
        assert m1.per_run == m2.per_run

    def test_zero_steps_give_empty_metrics(self):
        cfg = CaseStudyConfig(camera_ratio=0.5, steps=0, repetitions=1, seed=0)
        m = run_experiment(cfg, ("traditional",), generate_case_study)
        assert m.pooled_rate("traditional", "identified_violations", "gt_violations") == 0.0

    def test_pooled_rate_bounds(self):
        cfg = CaseStudyConfig(camera_ratio=0.6, steps=20, repetitions=3, seed=13)
        m = run_experiment(cfg, ("traditional", "approximate"), generate_case_study)
        for variant in ("traditional", "approximate"):
            rate = m.pooled_rate(variant, "identified_violations", "gt_violations")
            assert 0.0 <= rate <= 100.0


class TestMatchingSkipsUnify:
    @pytest.mark.parametrize("kind", ["fig1", "office", "random"])
    def test_simulate_and_oracle_make_no_unify_calls(self, fig1, kind, monkeypatch):
        if kind == "fig1":
            # A scenario fresh from its file, so nothing is ground yet.
            scenario = scenario_from_dict(scenario_to_dict(fig1))
        elif kind == "office":
            _, scenario, _ = case_study(seed=2, camera_ratio=0.5)
        else:
            scenario = generate_random(RandomConfig(agents=4), random.Random(2))
        calls = []
        original = logic.unify
        for name, module in list(sys.modules.items()):
            if name.startswith("normmon") and getattr(module, "unify", None) is original:
                monkeypatch.setattr(module, "unify", lambda *a: calls.append(a) or original(*a))
        for agent in scenario.agents:
            scenario.ground_actions(agent)
        log = simulate(scenario, 30, random.Random(5))
        assert oracle_events(scenario, log)
        assert calls == []


class TestIndexedGroundTruth:
    def test_applicable_actions_agree_with_the_plain_filter(self):
        for k, scenario in enumerate(generated_scenarios()):
            log = simulate(scenario, 20, random.Random(k))
            for state in log.states:
                for agent in scenario.agents:
                    expected = [
                        a
                        for a in scenario.ground_actions(agent)
                        if all((atom in state) == sign for atom, sign in a.pre)
                    ]
                    assert applicable_actions(scenario, agent, state) == expected

    def test_observe_agrees_with_the_camera_patterns(self):
        seen = unseen = 0
        for k, scenario in enumerate(generated_scenarios()):
            if scenario.observability["mode"] != "cameras":
                continue
            log = simulate(scenario, 20, random.Random(k))
            for executed, observed in zip(log.executed, log.observed):
                for a in executed:
                    watched = any(c.matches(a.schema) for c in scenario.cameras)
                    is_nop = scenario.description(a.name).is_nop
                    assert (a in observed) == (is_nop or watched)
                    seen += watched
                    unseen += not (is_nop or watched)
        assert seen and unseen
