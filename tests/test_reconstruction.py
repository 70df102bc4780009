import dataclasses
import random
from collections import Counter

import pytest

from normmon.harness import (
    CaseStudyConfig,
    RandomConfig,
    generate_case_study,
    generate_random,
    simulate,
)
from normmon.logic import LiteralSet
from normmon.monitor import NormMonitor
from normmon.reconstruction import (
    approximate_reconstruct,
    candidate_actions,
    full_reconstruct,
    search,
)


def closed_state(scenario, truths):
    truths = set(truths)
    return LiteralSet(
        [(atom, atom in truths) for atom in sorted(scenario.dynamic_atoms)]
    )


def _unordered(records):
    """Records with their verdicts as a bag: verdict order can follow set
    iteration, which two routes need not share."""
    return [(dataclasses.replace(r, verdicts=()), Counter(r.verdicts)) for r in records]


@pytest.fixture
def worked_example(fig1, inst):
    """Knowledge just before the first reconstruction: complete knowledge of
    the start state, and the three literals derivable for the next state
    from the two observation rounds."""
    i = closed_state(
        fig1, [("in", "r1", "a"), ("in", "r2", "d"), ("in", "r3", "e")]
    )
    f = LiteralSet(
        [
            (("in", "r1", "b"), True),
            (("in", "r1", "a"), False),
            (("in", "r3", "a"), True),
        ]
    )
    observed = [inst("move(r1,a,b)")]
    return i, f, observed, ["r2", "r3"]


EXPECTED_F = {
    (("in", "r1", "b"), True),
    (("in", "r1", "a"), False),
    (("in", "r1", "c"), False),
    (("in", "r1", "d"), False),
    (("in", "r1", "e"), False),
    (("in", "r1", "f"), False),
    (("in", "r2", "b"), False),
    (("in", "r2", "c"), False),
    (("in", "r2", "f"), False),
    (("in", "r3", "a"), True),
    (("in", "r3", "b"), False),
    (("in", "r3", "c"), False),
    (("in", "r3", "d"), False),
    (("in", "r3", "e"), False),
    (("in", "r3", "f"), False),
}


class TestCandidates:
    def test_candidate_rows(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        rows = {
            t: sorted(str(a) for a in candidate_actions(fig1, t, i, f))
            for t in targets
        }
        # r3's moves to d and f clash with in(r3,a) under the
        # one-office-per-robot rule; r2's two moves both remain possible.
        assert rows == {
            "r2": ["move(r2,d,a)", "move(r2,d,e)"],
            "r3": ["move(r3,e,a)"],
        }


class TestSearch:
    def test_two_solutions(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        solutions, cap_hit = search(fig1, i, f, observed, targets)
        assert not cap_hit
        assert sorted(tuple(str(a) for a in s) for s in solutions) == [
            ("move(r2,d,a)", "move(r3,e,a)"),
            ("move(r2,d,e)", "move(r3,e,a)"),
        ]

    def test_inputs_are_not_mutated(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        before_i, before_f = i.snapshot(), f.snapshot()
        search(fig1, i, f, observed, targets)
        assert (i.snapshot(), f.snapshot()) == (before_i, before_f)

    def test_cap_reported(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        solutions, cap_hit = search(fig1, i, f, observed, targets, cap=1)
        assert cap_hit and len(solutions) == 1


class TestFullReconstruction:
    def test_worked_example(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        outcome, acts = full_reconstruct(fig1, i, f, observed, targets)
        assert [str(a) for a in outcome.reconstructed] == ["move(r3,e,a)"]
        assert sorted(str(a) for a in acts) == ["move(r1,a,b)", "move(r3,e,a)"]
        assert f.snapshot() == frozenset(EXPECTED_F)
        # The reconstructed action's precondition refines the start state...
        assert i.sign(("in", "r3", "e")) is True
        # ...and the outcome carries no discovered set (exhaustive mode).
        assert outcome.discovered == ()

    def test_generic_route_agrees_with_the_decomposable_shortcut(self, monkeypatch):
        # Small office scenarios keep the generic search below its cap;
        # single-agent random domains without concurrency conditions are
        # the random ones that derive as decomposable.
        runs = []
        for idx in range(8):
            cfg = CaseStudyConfig(
                offices_max=5, robots_max=3, camera_ratio=(idx % 4) / 4, steps=25
            )
            rng = random.Random(idx)
            scenario = generate_case_study(cfg, rng)
            runs.append((scenario, simulate(scenario, cfg.steps, rng)))
        seed = 0
        while len(runs) < 16:
            cfg = RandomConfig(agents=1, actions=4, observation_probability=0.25, steps=25)
            rng = random.Random(seed)
            scenario = generate_random(cfg, rng)
            if scenario.decomposable:
                runs.append((scenario, simulate(scenario, cfg.steps, rng)))
            seed += 1
        reconstructing = 0
        for scenario, log in runs:
            assert scenario.decomposable
            shortcut = NormMonitor(scenario, variant="full").run(log.observed)
            with monkeypatch.context() as m:
                m.setattr(scenario, "_decomposable", False)
                generic = NormMonitor(scenario, variant="full").run(log.observed)
            assert _unordered(shortcut) == _unordered(generic)
            reconstructing += sum(1 for r in shortcut if r.reconstruction_seconds > 0)
        assert reconstructing > 100


class TestApproximateReconstruction:
    def test_worked_example(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        outcome, acts = approximate_reconstruct(fig1, i, f, observed, targets)
        assert [str(a) for a in outcome.reconstructed] == ["move(r3,e,a)"]
        assert [str(a) for a in outcome.discovered] == ["move(r2,d,e)"]
        assert outcome.candidate_counts == {"r2": 2, "r3": 1}
        assert f.snapshot() == frozenset(EXPECTED_F)

    def test_identified_reconstructions_match_the_exhaustive_ones(
        self, fig1, worked_example
    ):
        i1, f1, observed, targets = worked_example
        i2, f2 = i1.copy(), f1.copy()
        full_out, _ = full_reconstruct(fig1, i1, f1, observed, targets)
        approx_out, _ = approximate_reconstruct(fig1, i2, f2, observed, targets)
        assert set(approx_out.reconstructed) <= set(full_out.reconstructed)
