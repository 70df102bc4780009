import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmon import monitor as monitor_module
from normmon import reconstruction
from normmon.actions import effects, joint_post
from normmon.harness import CaseStudyConfig, RandomConfig, generate_case_study, generate_random, simulate
from normmon.monitor import (
    APPROXIMATE,
    COMPLETE,
    EMPTY,
    FULL,
    TRADITIONAL,
    VARIANTS,
    NormMonitor,
    SensorFault,
)
from normmon.logic import LiteralSet, survivors
from normmon.norms import DISCOVERED, IDENTIFIED, VIOLATED, relevant_instances
from normmon.reconstruction import KnowledgeFault
from normmon.scenario import scenario_from_dict, scenario_to_dict
from support import CROWDED_RULE, TRIO_RULE, office_with_rule


@pytest.fixture
def observations(inst):
    return [
        [inst("move(r1,a,b)")],
        [inst("move(r1,b,c)"), inst("move(r3,a,b)")],
    ]


class TestStateEvolution:
    def test_partially_observed_tick_keeps_only_derivable_literals(
        self, fig1, observations
    ):
        monitor = NormMonitor(fig1, variant=TRADITIONAL)
        monitor.advance(observations[0])
        monitor.advance(observations[1])
        # After both observation rounds, before any reconstruction: the
        # observed move's effects plus the retrospective precondition of
        # the next tick's observed moves.
        assert monitor.prev.snapshot() == frozenset(
            {
                (("in", "r1", "b"), True),
                (("in", "r1", "a"), False),
                (("in", "r3", "a"), True),
            }
        )

    def test_fully_observed_tick_carries_knowledge_forward(self, fig1, inst):
        monitor = NormMonitor(fig1, variant=TRADITIONAL)
        monitor.advance(
            [inst("move(r1,a,b)"), inst("move(r2,d,a)"), inst("move(r3,e,a)")]
        )
        # Complete joint action: unchanged literals persist alongside the
        # effects, so every robot's position stays known.
        assert monitor.curr.sign(("in", "r1", "b")) is True
        assert monitor.curr.sign(("in", "r2", "a")) is True
        assert monitor.curr.sign(("in", "r3", "a")) is True
        assert monitor.curr.sign(("in", "r1", "a")) is False

    def test_fully_observed_tick_computes_its_effects_once(self, fig1, inst, monkeypatch):
        calls = []
        effects = monitor_module.effects
        monkeypatch.setattr(
            monitor_module, "effects", lambda *a: calls.append(a) or effects(*a)
        )
        monitor = NormMonitor(fig1, variant=TRADITIONAL)
        monitor.advance(
            [inst("move(r1,a,b)"), inst("move(r2,d,a)"), inst("move(r3,e,a)")]
        )
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["office", "crowded", "trio", "rule-free"])
    def test_the_successor_is_the_invariant_part_plus_the_effects(self, kind):
        # Each tick feeds the executed actions or only the observed ones, so
        # the fully observed ticks start from states reconstruction refined.
        checked = 0
        for seed in range(4):
            rng = random.Random(seed)
            cfg = CaseStudyConfig(offices_min=4, offices_max=5, robots_min=3, robots_max=3, camera_ratio=0.5)
            if kind == "office":
                scenario = generate_case_study(cfg, rng)
            elif kind == "rule-free":
                scenario = generate_random(RandomConfig(agents=3, observation_probability=0.5), rng)
            else:
                scenario = office_with_rule(cfg, rng, CROWDED_RULE if kind == "crowded" else TRIO_RULE)
            assert bool(scenario.rules.joins) == (kind == "trio") and bool(scenario.rules) == (kind != "rule-free")
            log = simulate(scenario, 30, rng)
            rules = scenario.rules
            monitor = NormMonitor(scenario, variant=FULL)
            for executed, observed in zip(log.executed, log.observed):
                acts = executed if rng.random() < 0.5 else observed
                before = monitor.curr.copy()
                monitor.advance(acts)
                if len(acts) < len(scenario.agents):
                    continue
                eff = effects(acts, rules)
                expected = LiteralSet(rules, joint_post(acts))
                for lit in [*survivors(before, eff, (), rules), *eff]:
                    expected.add(lit)
                assert monitor.curr.snapshot() == expected.snapshot()
                assert monitor.curr.mask == expected.mask
                checked += 1
        assert checked > 20

    def test_empty_initial_knowledge(self, fig1, observations):
        monitor = NormMonitor(fig1, variant=FULL, initial_knowledge=EMPTY)
        assert monitor.curr.snapshot() == frozenset()
        record = None
        for obs in observations:
            record = monitor.advance(obs) or record
        # Nothing is known about r2 and r3 at the start, so nothing is
        # reconstructed and no violation can be identified.
        assert record.reconstructed == ()
        assert record.verdicts == ()


class TestVerdicts:
    def test_traditional_monitor_misses_the_violations(self, fig1, observations):
        monitor = NormMonitor(fig1, variant=TRADITIONAL)
        records = monitor.run(observations)
        assert records[0].verdicts == ()

    def test_full_monitor_identifies_r3(self, fig1, observations):
        monitor = NormMonitor(fig1, variant=FULL)
        records = monitor.run(observations)
        rec = records[0]
        assert [str(a) for a in rec.reconstructed] == ["move(r3,e,a)"]
        identified = [v for v in rec.verdicts if v.mode == IDENTIFIED]
        assert len(identified) == 1
        v = identified[0]
        assert v.status == VIOLATED
        assert v.culprit == "r3"
        assert v.instance.action == ("move", "R2", "L1", "a")
        assert str(v.witness) == "move(r3,e,a)"

    def test_approximate_monitor_additionally_discovers_r2(
        self, fig1, observations
    ):
        monitor = NormMonitor(fig1, variant=APPROXIMATE)
        records = monitor.run(observations)
        rec = records[0]
        assert [str(a) for a in rec.discovered] == ["move(r2,d,e)"]
        discovered = [v for v in rec.verdicts if v.mode == DISCOVERED]
        assert len(discovered) == 1
        assert discovered[0].status == VIOLATED
        assert discovered[0].culprit == "r2"
        assert discovered[0].instance.action == ("move", "R2", "L1", "e")

    def test_final_tick_is_judged_by_finish(self, fig1, inst):
        monitor = NormMonitor(fig1, variant=FULL)
        assert monitor.advance(
            [inst("move(r1,a,b)"), inst("move(r2,d,a)"), inst("move(r3,e,a)")]
        ) is None
        record = monitor.finish()
        assert record.tick == 0
        # r2 and r3 both moved into the office r1 occupied; that is one
        # violated instance (destination a), witnessed by the first match.
        violated = [v for v in record.verdicts if v.status == VIOLATED]
        assert len(violated) == 1
        assert violated[0].instance.action == ("move", "R2", "L1", "a")
        assert violated[0].culprit == "r2"


class TestReconstructingTicks:
    def test_records_flag_the_ticks_that_reconstructed(self):
        cfg = CaseStudyConfig(offices_max=5, robots_max=3, camera_ratio=0.5, steps=30)
        rng = random.Random(3)
        scenario = generate_case_study(cfg, rng)
        log = simulate(scenario, cfg.steps, rng)
        for variant in VARIANTS:
            records = NormMonitor(scenario, variant=variant).run(log.observed)
            for record in records:
                expected = variant != TRADITIONAL and len(record.observed) < len(scenario.agents)
                assert record.reconstruction_ran == expected
                assert record.reconstruction_ran == (record.reconstruction_seconds > 0)
            if variant != TRADITIONAL:
                assert any(r.reconstruction_ran for r in records)

    def test_approximate_tick_finds_the_relevant_instances_once(
        self, fig1, observations, monkeypatch
    ):
        calls = []
        for module in (monitor_module, reconstruction):
            found = module.relevant_instances
            monkeypatch.setattr(
                module,
                "relevant_instances",
                lambda *a, found=found, **k: calls.append(a) or found(*a, **k),
            )
        records = NormMonitor(fig1, variant=APPROXIMATE).run(observations)
        assert len(calls) == len(records)
        assert records[0].reconstruction_ran
        for record in records:
            assert record.verdicts
            # Each verdict judges an instance of the state the record closed
            # its tick with: the very object the norm interned for it.
            relevant = relevant_instances(
                fig1.norms, LiteralSet(fig1.rules, record.state_snapshot), fig1.statics
            )
            for v in record.verdicts:
                assert any(v.instance is inst for inst in relevant)


class TestSensorFaults:
    def test_contradicting_observation_is_rejected(self, fig1, inst):
        monitor = NormMonitor(fig1, variant=FULL)
        # r1 is in a, not b; r2's move fits.
        message = "observed action move(r1,b,c) contradicts the current state"
        with pytest.raises(SensorFault, match=re.escape(message)):
            monitor.advance([inst("move(r1,b,c)"), inst("move(r2,d,e)")])

    def test_jointly_inconsistent_preconditions_are_rejected(self, fig1, inst):
        # With no two robots in one office, r1 and r2 cannot both leave a,
        # though under empty knowledge each of them alone can.
        data = scenario_to_dict(fig1)
        data["rules"].append({"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]})
        monitor = NormMonitor(scenario_from_dict(data), variant=FULL, initial_knowledge=EMPTY)
        message = "observed actions have jointly inconsistent preconditions"
        with pytest.raises(SensorFault, match=re.escape(message)):
            monitor.advance([inst("move(r1,a,b)"), inst("move(r2,a,e)")])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_contradicting_postconditions_are_rejected(self, variant):
        # up(X) makes p true and down(X) makes it false: no tick runs both.
        agent = {"actor": "X", "params": ["X"], "pre": ["agent(X)"], "constraints": [], "con": []}
        scenario = scenario_from_dict(
            {
                "name": "up-and-down",
                "agents": ["a", "b"],
                "statics": ["agent(a)", "agent(b)"],
                "initial_state": [],
                "dynamic_atoms": ["p"],
                "rules": [],
                "action_descriptions": [
                    {**agent, "name": "up", "post": ["p"], "nop": False},
                    {**agent, "name": "down", "post": ["-p"], "nop": False},
                    {**agent, "name": "nop", "post": [], "nop": True},
                ],
                "norms": [],
                "observability": {"mode": "probability", "probability": 1.0},
            }
        )
        up, down = (scenario.instance_from_schema(s) for s in (("up", "a"), ("down", "b")))
        monitor = NormMonitor(scenario, variant=variant)
        monitor.advance([up, scenario.nop_instance("b")])
        before = (monitor.tick, monitor.prev.snapshot(), monitor.curr.snapshot(), monitor.prev_obs)
        message = "observed actions have contradicting postconditions"
        with pytest.raises(SensorFault, match=re.escape(message)):
            monitor.advance([up, down])
        assert (monitor.tick, monitor.prev.snapshot(), monitor.curr.snapshot(), monitor.prev_obs) == before

    def test_duplicate_actor_is_rejected(self, fig1, inst):
        monitor = NormMonitor(fig1, variant=FULL)
        with pytest.raises(SensorFault):
            monitor.advance([inst("move(r1,a,b)"), inst("move(r1,a,e)")])

    def test_finished_monitor_refuses_more_input(self, fig1, observations):
        monitor = NormMonitor(fig1, variant=FULL)
        monitor.run(observations)
        with pytest.raises(RuntimeError):
            monitor.advance([])


def _arbitrary_run(seed: int):
    """A generated scenario and 15 ticks of observations drawn without
    regard to what can happen: each agent is unobserved, observed at its NOP
    or observed at one of its ground actions. Even seeds give office runs
    (camera ratios 0, 0.4 and 0.8), odd ones random runs of 1 to 4 agents."""
    rng = random.Random(seed)
    if seed % 2 == 0:
        cfg = CaseStudyConfig(offices_max=6, robots_max=3, camera_ratio=(0.0, 0.4, 0.8)[seed // 2 % 3])
        scenario = generate_case_study(cfg, rng)
    else:
        scenario = generate_random(RandomConfig(agents=1, agents_max=4, actions=6), rng)
    ticks = []
    for _ in range(15):
        observed = []
        for agent in scenario.agents:
            choice = rng.randrange(3)
            if choice == 1:
                observed.append(scenario.nop_instance(agent))
            elif choice == 2 and scenario.ground_actions(agent):
                observed.append(rng.choice(scenario.ground_actions(agent)))
        ticks.append(observed)
    return scenario, ticks


class TestArbitraryObservations:
    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_a_run_ends_in_records_or_a_defined_fault(self, seed):
        # An impossible stream may be refused, as a SensorFault when an
        # observation contradicts what the monitor knows or a KnowledgeFault
        # when reconstruction finds its sound knowledge contradicted, but
        # never with any other error.
        scenario, ticks = _arbitrary_run(seed)
        for variant in VARIANTS:
            for knowledge in (COMPLETE, EMPTY):
                monitor = NormMonitor(scenario, variant=variant, initial_knowledge=knowledge)
                try:
                    records = monitor.run(ticks)
                except (SensorFault, KnowledgeFault):
                    continue
                assert len(records) == len(ticks)
