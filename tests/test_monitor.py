import random
import re

import pytest

from normmon import monitor as monitor_module
from normmon import reconstruction
from normmon.harness import CaseStudyConfig, generate_case_study, simulate
from normmon.monitor import (
    APPROXIMATE,
    EMPTY,
    FULL,
    TRADITIONAL,
    VARIANTS,
    NormMonitor,
    SensorFault,
)
from normmon.logic import LiteralSet
from normmon.norms import DISCOVERED, IDENTIFIED, VIOLATED, relevant_instances
from normmon.scenario import scenario_from_dict, scenario_to_dict


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
                fig1.norms, LiteralSet(record.state_snapshot), fig1.statics
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

    def test_duplicate_actor_is_rejected(self, fig1, inst):
        monitor = NormMonitor(fig1, variant=FULL)
        with pytest.raises(SensorFault):
            monitor.advance([inst("move(r1,a,b)"), inst("move(r1,a,e)")])

    def test_finished_monitor_refuses_more_input(self, fig1, observations):
        monitor = NormMonitor(fig1, variant=FULL)
        monitor.run(observations)
        with pytest.raises(RuntimeError):
            monitor.advance([])
