import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmon.harness import (
    CaseStudyConfig,
    RandomConfig,
    generate_case_study,
    generate_random,
    simulate,
)
from normmon import logic, monitor, reconstruction
from normmon.actions import joint_post
from normmon.logic import LiteralSet
from normmon.monitor import VARIANTS, NormMonitor
from normmon.reconstruction import (
    KnowledgeFault,
    _assume_action,
    _extended_invariants,
    action_fits,
    approximate_reconstruct,
    approximate_search,
    candidate_actions,
    full_reconstruct,
    search,
)
from normmon.scenario import scenario_from_dict, scenario_to_dict


def closed_state(scenario, truths):
    truths = set(truths)
    return LiteralSet(
        scenario.rules, [(atom, atom in truths) for atom in sorted(scenario.dynamic_atoms)]
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
        fig1.rules,
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


def _with_jump(scenario):
    """The scenario plus an action whose precondition is inconsistent on its
    own under the one-office rule: a robot in two offices at once."""
    data = scenario_to_dict(scenario)
    data["action_descriptions"].append(
        {
            "name": "jump",
            "params": ["R", "O1", "O2"],
            "actor": "R",
            "pre": ["robot(R)", "office(O1)", "office(O2)", "in(R,O1)", "in(R,O2)"],
            "constraints": ["O1!=O2"],
            "con": [],
            "post": ["in(R,O2)", "-in(R,O1)"],
            "nop": False,
        }
    )
    return scenario_from_dict(data)


def _with_static_in_rule(scenario):
    """The scenario with its one-office rule read through the static
    ``robot(R)``: the same rule, of three body literals."""
    data = scenario_to_dict(scenario)
    data["rules"] = [{"body": ["robot(R)", "in(R,O1)", "in(R,O2)"], "constraints": ["O1!=O2"]}]
    return scenario_from_dict(data)


def _small_runs():
    """Small office scenarios, each also with a self-inconsistent action,
    one of them with its rule of three body literals, and small random ones
    (no rules), with ground-truth runs."""
    runs = []
    for idx in range(7):
        cfg = CaseStudyConfig(
            offices_max=5, robots_max=3, camera_ratio=(idx % 3) / 3, steps=20
        )
        rng = random.Random(idx)
        scenario = generate_case_study(cfg, rng)
        if idx % 2:
            scenario = _with_jump(scenario)
        if idx == 6:
            scenario = _with_jump(_with_static_in_rule(scenario))
        runs.append((scenario, simulate(scenario, cfg.steps, rng)))
    for idx in range(4):
        cfg = RandomConfig(agents=1, agents_max=4, actions=6, observation_probability=0.3, steps=20)
        rng = random.Random(100 + idx)
        scenario = generate_random(cfg, rng)
        runs.append((scenario, simulate(scenario, cfg.steps, rng)))
    return runs


def _recomputing_fixpoint(scenario, i, f, targets):
    """The approximate fixpoint building every row again from the ground
    actions after each round of commits."""
    remaining = sorted(targets)
    table = {t: [] for t in remaining}
    committed = []
    progress = True
    while progress and remaining:
        progress = False
        rows = {
            t: [a for a in scenario.ground_actions(t) if action_fits(a, i, f, scenario)]
            for t in remaining
        }
        for t in list(remaining):
            if len(rows[t]) == 1:
                table[t] = rows[t]
                _assume_action(scenario, i, f, rows[t][0], "committed action")
                remaining.remove(t)
                committed.append(t)
                progress = True
        if not progress:
            for t in remaining:
                table[t] = rows[t]
    return table, committed


def _crowded(fig1):
    """fig1 with no two robots in one office."""
    data = scenario_to_dict(fig1)
    data["rules"].append({"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]})
    return scenario_from_dict(data)


class TestPairwiseCore:
    """The pairwise paths against the per-literal reference, on whole runs."""

    def test_candidate_table_agrees_with_per_action_checks(self, monkeypatch):
        calls = []
        original = reconstruction.candidate_actions

        def checked(scenario, agent, i, f):
            row = original(scenario, agent, i, f)
            reference = [
                a for a in scenario.ground_actions(agent) if action_fits(a, i, f, scenario)
            ]
            assert row == reference
            calls.append((bool(scenario.rules) and not scenario.rules.joins, len(row)))
            return row

        monkeypatch.setattr(reconstruction, "candidate_actions", checked)
        jumps = 0
        for scenario, log in _small_runs():
            for agent in scenario.agents:
                coherent = scenario.coherent_actions(agent)
                jumping = [a for a in scenario.ground_actions(agent) if a.name == "jump"]
                assert not set(coherent) & set(jumping)
                jumps += len(jumping)
            for variant in VARIANTS:
                NormMonitor(scenario, variant=variant).run(log.observed)
            # The generic full route builds its rows in the fixpoint search runs.
            with monkeypatch.context() as m:
                m.setattr(scenario, "_decomposable", False)
                NormMonitor(scenario, variant="full").run(log.observed)
        assert jumps > 0
        assert sum(1 for pairwise, _ in calls if pairwise) > 200
        assert sum(1 for pairwise, _ in calls if not pairwise) > 50

    def test_refiltering_fixpoint_agrees_with_recomputing_every_round(self, monkeypatch):
        rounds = []
        original = reconstruction.approximate_search

        def checked(scenario, i, f, targets):
            i2, f2 = i.copy(), f.copy()
            expected = _recomputing_fixpoint(scenario, i2, f2, targets)
            table, committed = original(scenario, i, f, targets)
            assert (table, committed) == expected
            assert list(table) == list(expected[0])
            assert (i.snapshot(), f.snapshot()) == (i2.snapshot(), f2.snapshot())
            rounds.append(len(committed))
            return table, committed

        monkeypatch.setattr(reconstruction, "approximate_search", checked)
        for scenario, log in _small_runs():
            NormMonitor(scenario, variant="approximate").run(log.observed)
        assert sum(1 for n in rounds if n > 1) > 10

    def test_a_commit_cascades_through_a_refiltered_row(self, fig1):
        # No two robots in one office: r3's only move, into b, leaves r2
        # the move into e once r3 has committed.
        crowded = _crowded(fig1)
        i = closed_state(crowded, [("in", "r1", "d"), ("in", "r2", "a"), ("in", "r3", "c")])
        f = LiteralSet(crowded.rules, [(("in", "r1", "a"), True), (("in", "r1", "d"), False)])
        i2, f2 = i.copy(), f.copy()
        assert len(candidate_actions(crowded, "r2", i, f)) == 2
        table, committed = approximate_search(crowded, i, f, ["r2", "r3"])
        assert committed == ["r3", "r2"]
        assert [str(a) for a in table["r2"]] == ["move(r2,a,e)"]
        assert (table, committed) == _recomputing_fixpoint(crowded, i2, f2, ["r2", "r3"])
        assert (i.snapshot(), f.snapshot()) == (i2.snapshot(), f2.snapshot())

    def test_extended_invariants_make_no_per_literal_check_on_pairwise_rules(
        self, fig1, worked_example, monkeypatch
    ):
        i, f, observed, targets = worked_example
        post_sets = [a.post for t in targets for a in candidate_actions(fig1, t, i, f)]
        small = LiteralSet(fig1.rules, [l for l in i.literals() if l[1]])
        assert len(small) < len(i)
        counts, results = [], []
        for state in (small, i):
            calls = []
            monkeypatch.setattr(
                logic,
                "consistent_with",
                lambda *a, calls=calls, check=logic.consistent_with: calls.append(a) or check(*a),
            )
            results.append(_extended_invariants(fig1, state, observed, post_sets))
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1]
        # The same literals as one consistent_with check per literal.
        base = joint_post(observed)
        unions = [LiteralSet(fig1.rules, base)] + [LiteralSet(fig1.rules, [*base, *p]) for p in post_sets]
        assert results[1] == [
            l
            for l in i.literals()
            if all(logic.consistent_with(u, [l], fig1.rules) for u in unions)
        ]


@pytest.fixture(scope="module")
def row_scenarios(fig1):
    """Four scenarios whose rows the kernel builds differently, each as its
    dict and as a scenario built once, whose kill masks fill over the
    examples: an office one (a pairwise rule within one agent), a random
    one (no rules), fig1 with no two robots in one office (a pairwise rule
    joining two agents, so commits refilter the other rows) and fig1 with
    no three (a rule of three body literals, checked action by action)."""
    data = scenario_to_dict(fig1)
    crowded = {"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]}
    trio = {
        "body": ["in(R1,O)", "in(R2,O)", "in(R3,O)"],
        "constraints": ["R1!=R2", "R1!=R3", "R2!=R3"],
    }
    office = generate_case_study(CaseStudyConfig(offices_max=5, robots_max=3), random.Random(3))
    rand = generate_random(RandomConfig(agents=3, actions=6), random.Random(4))
    dicts = {
        "office": scenario_to_dict(office),
        "random": scenario_to_dict(rand),
        "crowded": {**data, "rules": data["rules"] + [crowded]},
        "three-literal": {**data, "rules": data["rules"] + [trio]},
    }
    return {name: (d, scenario_from_dict(d)) for name, d in dicts.items()}


def _partial_state(scenario, atoms, draws):
    """The drawn literals over ``atoms`` that keep the state consistent,
    added one at a time."""
    state = LiteralSet(scenario.rules)
    for k, sign in draws:
        literal = (atoms[k % len(atoms)], sign)
        if logic.consistent_with(state, [literal], scenario.rules):
            state.add(literal)
    return state


draws = st.lists(st.tuples(st.integers(0, 200), st.booleans()), max_size=14)


class TestRowKernel:
    """Candidate rows built from the kill masks against the per-action
    check, on random partial states."""

    @pytest.mark.parametrize("name", ["office", "random", "crowded", "three-literal"])
    @given(i_draws=draws, f_draws=draws)
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_per_action_checks(self, row_scenarios, name, i_draws, f_draws):
        data, warm = row_scenarios[name]
        cold = scenario_from_dict(data)
        # Atoms of an agent the scenario lacks join the dynamic ones: no
        # action mentions them, yet under the crowded rules they rule
        # actions out.
        atoms = sorted(cold.dynamic_atoms)
        atoms += [(a[0], "z9", *a[2:]) if len(a) > 1 else (a[0] + "z",) for a in atoms[:3]]
        i = _partial_state(cold, atoms, i_draws)
        f = _partial_state(cold, atoms, f_draws)
        # The same states over the warm scenario's index.
        i_warm, f_warm = LiteralSet(warm.rules, i.literals()), LiteralSet(warm.rules, f.literals())
        for agent in cold.agents:
            expected = [a for a in cold.coherent_actions(agent) if action_fits(a, i, f, cold)]
            assert candidate_actions(cold, agent, i, f) == expected
            assert candidate_actions(warm, agent, i_warm, f_warm) == expected
        # Two singleton rows may not fit together in states no run reaches.
        try:
            expected = _recomputing_fixpoint(cold, i, f, cold.agents)
        except KnowledgeFault:
            with pytest.raises(KnowledgeFault):
                approximate_search(warm, i_warm, f_warm, cold.agents)
            return
        assert approximate_search(warm, i_warm, f_warm, cold.agents) == expected
        assert (i_warm.snapshot(), f_warm.snapshot()) == (i.snapshot(), f.snapshot())

    def test_scenarios_take_the_paths_they_stand_for(self, row_scenarios):
        scenarios = {name: scenario for name, (_, scenario) in row_scenarios.items()}
        office, crowded = scenarios["office"].rules, scenarios["crowded"].rules
        assert bool(office) and not office.joins and scenarios["office"].decomposable
        assert not scenarios["random"].rules
        assert bool(crowded) and not crowded.joins and not scenarios["crowded"].decomposable
        assert scenarios["three-literal"].rules.joins


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


def _office_runs(count, steps):
    """Generated office scenarios of default sizes, with ground-truth runs."""
    runs = []
    for seed in range(count):
        cfg = CaseStudyConfig(steps=steps)
        rng = random.Random(seed)
        scenario = generate_case_study(cfg, rng)
        runs.append((scenario, simulate(scenario, cfg.steps, rng)))
    return runs


def _both_forms(monkeypatch, scenario, i, f, observed, targets, cap):
    """The derived and the forced generic form of the full route, each on
    copies of (i, f): (outcome, i, f) per form."""
    forms = []
    for decomposable in (scenario.decomposable, False):
        i2, f2 = i.copy(), f.copy()
        with monkeypatch.context() as m:
            m.setattr(scenario, "_decomposable", decomposable)
            outcome, _ = full_reconstruct(scenario, i2, f2, observed, targets, cap=cap)
        forms.append((outcome, i2.snapshot(), f2.snapshot()))
    return forms


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

    def test_the_forms_agree_on_the_worked_example_under_the_cap(
        self, fig1, worked_example, monkeypatch
    ):
        i, f, observed, targets = worked_example
        (derived, i1, f1), (generic, i2, f2) = _both_forms(
            monkeypatch, fig1, i, f, observed, targets, cap=1
        )
        assert [str(a) for a in generic.reconstructed] == ["move(r3,e,a)"]
        assert generic.reconstructed == derived.reconstructed
        assert (i2, f2) == (i1, f1)
        assert f2 == frozenset(EXPECTED_F)
        assert generic.cap_hit and not derived.cap_hit
        assert generic.solution_count == derived.solution_count == 1

    def test_generic_route_agrees_with_the_decomposable_shortcut(self, monkeypatch):
        # Whole runs at the default cap: small office scenarios keep the
        # generic enumeration short; single-agent random domains without
        # concurrency conditions are the random ones that derive as
        # decomposable.
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
            reconstructing += sum(1 for r in shortcut if r.reconstruction_ran)
        assert reconstructing > 100

        # Every call of default-sized office runs, with a cap of two
        # completions: the generic form stops at it and takes the table.
        capped = []

        def compared(scenario, i, f, observed, targets):
            forms = _both_forms(monkeypatch, scenario, i, f, observed, targets, cap=2)
            (derived, *derived_states), (generic, *generic_states) = forms
            assert generic_states == derived_states
            assert generic.reconstructed == derived.reconstructed
            assert generic.no_completion == derived.no_completion
            assert generic.cap_hit == (derived.solution_count == 2)
            assert not derived.cap_hit
            capped.append(generic.cap_hit)
            return full_reconstruct(scenario, i, f, observed, targets)

        monkeypatch.setattr(monitor, "full_reconstruct", compared)
        for scenario, log in _office_runs(8, 40):
            NormMonitor(scenario, variant="full").run(log.observed)
        assert sum(capped) > 100 and len(capped) > sum(capped)


class TestApproximateReconstruction:
    def test_worked_example(self, fig1, worked_example):
        i, f, observed, targets = worked_example
        outcome, acts = approximate_reconstruct(fig1, i, f, observed, targets)
        assert [str(a) for a in outcome.reconstructed] == ["move(r3,e,a)"]
        assert [str(a) for a in outcome.discovered] == ["move(r2,d,e)"]
        assert outcome.candidate_counts == {"r2": 2, "r3": 1}
        assert f.snapshot() == frozenset(EXPECTED_F)

    def test_identified_reconstructions_match_the_exhaustive_ones(
        self, fig1, worked_example, monkeypatch
    ):
        i1, f1, observed, targets = worked_example
        i2, f2 = i1.copy(), f1.copy()
        full_out, _ = full_reconstruct(fig1, i1, f1, observed, targets)
        approx_out, _ = approximate_reconstruct(fig1, i2, f2, observed, targets)
        assert set(approx_out.reconstructed) <= set(full_out.reconstructed)

        # Every reconstructing tick of generated runs: random domains of
        # 2-5 agents with concurrency conditions, and office runs. The
        # full route knows at least what the approximate one knows.
        generic = []

        def compared(scenario, i, f, observed, targets):
            i2, f2 = i.copy(), f.copy()
            approx, _ = approximate_reconstruct(scenario, i2, f2, observed, targets)
            full, acts = full_reconstruct(scenario, i, f, observed, targets)
            assert set(approx.reconstructed) <= set(full.reconstructed)
            assert i2.snapshot() <= i.snapshot()
            assert f2.snapshot() <= f.snapshot()
            generic.append(not scenario.decomposable)
            return full, acts

        monkeypatch.setattr(monitor, "full_reconstruct", compared)
        runs = _office_runs(6, 40)
        for seed in range(20):
            cfg = RandomConfig(agents=2, agents_max=5, observation_probability=0.5, steps=40)
            rng = random.Random(200 + seed)
            scenario = generate_random(cfg, rng)
            runs.append((scenario, simulate(scenario, cfg.steps, rng)))
        for scenario, log in runs:
            NormMonitor(scenario, variant="full").run(log.observed)
        assert sum(generic) > 200 and len(generic) - sum(generic) > 150

    def test_no_completion_keeps_the_commits_in_both_routes(
        self, fig1, worked_example, inst, monkeypatch
    ):
        # r2 stays in d: neither of its moves fits, while r3's only move
        # still commits. The states gain that commit and nothing more, in
        # the table routes and in the forced generic form, whose search
        # finds no completion.
        i, f, observed, targets = worked_example
        f.add((("in", "r2", "d"), True))
        commit = inst("move(r3,e,a)")
        expected_i = i.snapshot() | commit.pre
        expected_f = f.snapshot() | commit.post
        assert fig1.decomposable
        for route, decomposable in (
            (full_reconstruct, True),
            (approximate_reconstruct, True),
            (full_reconstruct, False),
        ):
            i2, f2 = i.copy(), f.copy()
            with monkeypatch.context() as m:
                m.setattr(fig1, "_decomposable", decomposable)
                outcome, acts = route(fig1, i2, f2, observed, targets)
            assert outcome.no_completion and not outcome.cap_hit
            assert outcome.reconstructed == (commit,)
            if decomposable:
                assert outcome.candidate_counts == {"r2": 0, "r3": 1}
            assert acts == sorted([*observed, commit], key=lambda a: a.schema)
            assert (i2.snapshot(), f2.snapshot()) == (expected_i, expected_f)
            if route is full_reconstruct:
                assert outcome.solution_count == 0

    def test_contradicting_singleton_rows_raise_a_knowledge_fault_in_every_route(
        self, fig1, monkeypatch
    ):
        # No two robots in one office. r1 is seen entering a, so r2 must
        # leave it, and not for e; r3's only move is into b too. Both rows
        # are singletons that no run can execute together.
        crowded = _crowded(fig1)
        i = closed_state(crowded, [("in", "r1", "d"), ("in", "r2", "a"), ("in", "r3", "c")])
        f = LiteralSet(crowded.rules, [(("in", "r2", "e"), False)])
        observed = [crowded.instance_from_schema(("move", "r1", "d", "a"))]
        rows = {}
        for t in ("r2", "r3"):
            i2, f2 = i.copy(), f.copy()
            reconstruction._fold_observed(crowded, i2, f2, observed)
            rows[t] = [str(a) for a in candidate_actions(crowded, t, i2, f2)]
        assert rows == {"r2": ["move(r2,a,b)"], "r3": ["move(r3,c,b)"]}
        assert not crowded.decomposable
        for route, decomposable in (
            (search, False),
            (full_reconstruct, False),
            (full_reconstruct, True),
            (approximate_reconstruct, False),
        ):
            with monkeypatch.context() as m:
                m.setattr(crowded, "_decomposable", decomposable)
                with pytest.raises(KnowledgeFault, match="committed action"):
                    route(crowded, i.copy(), f.copy(), observed, ["r2", "r3"])
