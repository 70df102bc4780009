import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normmon import logic
from normmon.actions import SchemaRef
from normmon.harness import (
    CaseStudyConfig,
    GroundTruthLog,
    RandomConfig,
    generate_case_study,
    generate_random,
    oracle_events,
    simulate,
)
from normmon.logic import (
    ClosedWorld,
    CompiledRules,
    LiteralSet,
    OpenWorld,
    Plan,
    StaticFacts,
    eval_constraint,
    is_variable,
    subst_atom,
    subst_term,
    unify,
)
from normmon.logic import Matcher
from normmon.monitor import FULL, TRADITIONAL, VARIANTS, NormMonitor, check_norms
from normmon.norms import (
    FULFILLED,
    OBLIGATION,
    PROHIBITION,
    UNKNOWN,
    VIOLATED,
    Norm,
    NormInstance,
    judge,
    instance_matches,
    relevant_instances,
    relevant_instances_closed,
)


def _state(literals):
    """A partial state over the index of a scenario without rules."""
    return LiteralSet(CompiledRules([], StaticFacts([])), literals)


def collision_instances(fig1, state_lits):
    p = LiteralSet(fig1.rules, state_lits)
    return relevant_instances(fig1.norms, p, fig1.statics)


class TestInstantiation:
    def test_three_instances_in_the_initial_state(self, fig1):
        # One occupied office per robot: three forbidden destinations.
        insts = relevant_instances_closed(
            fig1.norms, set(fig1.initial_state), fig1.statics
        )
        assert sorted(i.action for i in insts) == [
            ("move", "R2", "L1", "a"),
            ("move", "R2", "L1", "d"),
            ("move", "R2", "L1", "e"),
        ]
        # The occupant itself is exempt through the residual R1 != R2
        # constraint; everyone else matches.
        by_dest = {i.action[3]: i for i in insts}
        assert not instance_matches(by_dest["a"], ("move", "r1", "d", "a"))
        assert instance_matches(by_dest["a"], ("move", "r2", "d", "a"))

    def test_unknown_positions_yield_no_instances(self, fig1):
        assert collision_instances(fig1, []) == []

    def test_negative_literal_does_not_instantiate(self, fig1):
        assert collision_instances(fig1, [(("in", "r1", "a"), False)]) == []


def judged_status(instance, acts, agent_count):
    """The instance's status under :func:`judge`: unknown when left out."""
    judged = judge([instance], acts, agent_count)
    return judged[0][1] if judged else UNKNOWN


class TestJudging:
    def test_prohibition_violated_by_matching_action(self, fig1, inst):
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        (instance,) = insts
        acts = [inst("move(r3,e,a)")]
        assert judge(insts, acts, agent_count=3) == [(instance, VIOLATED, acts[0])]

    def test_prohibition_unknown_under_partial_joint_action(self, fig1, inst):
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        acts = [inst("move(r2,d,e)")]
        # An unknown instance yields no judgement.
        assert judge(insts, acts, agent_count=3) == []

    def test_prohibition_fulfilled_when_joint_action_complete(self, fig1, inst):
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        (instance,) = insts
        acts = [
            inst("move(r1,a,b)"),
            inst("move(r2,d,e)"),
            inst("move(r3,e,f)"),
        ]
        assert judge(insts, acts, agent_count=3) == [(instance, FULFILLED, None)]

    @given(st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=50)
    def test_obligation_and_prohibition_are_mirror_images(
        self, fig1, n_observed, agent_count
    ):
        # For every instance and action set, replacing the norm's deontic
        # modality swaps fulfilled and violated and preserves unknown.
        swap = {FULFILLED: VIOLATED, VIOLATED: FULFILLED, UNKNOWN: UNKNOWN}
        schemas = [
            ("move", "r1", "a", "b"),
            ("move", "r2", "d", "a"),
            ("move", "r3", "e", "a"),
        ]

        class Fake:
            def __init__(self, schema):
                self.schema = schema
                self.actor = schema[1]

        acts = [Fake(s) for s in schemas[:n_observed]]
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        for instance in insts:
            assert instance.norm.deontic == PROHIBITION
            mirrored = dataclasses.replace(
                instance, norm=dataclasses.replace(instance.norm, deontic=OBLIGATION)
            )
            p_verdict = judged_status(instance, acts, agent_count)
            o_verdict = judged_status(mirrored, acts, agent_count)
            assert o_verdict == swap[p_verdict]
        # Judged together, the instances keep their order and each its status.
        together = [(i, s) for i, s, _ in judge(insts, acts, agent_count)]
        alone = [(i, judged_status(i, acts, agent_count)) for i in insts]
        assert together == [(i, s) for i, s in alone if s != UNKNOWN]

    def test_witness_and_offender_are_the_match_of_least_schema(self, fig1, inst):
        # Both moves into a match the instance for a (r1 is there); given in
        # the opposite order, each judge still names the least schema.
        state = [(("in", "r1", "a"), True), (("in", "r2", "d"), True), (("in", "r3", "e"), True)]
        moves = [inst("move(r3,e,a)"), inst("move(r2,d,a)")]
        (verdict,) = [
            v
            for v in check_norms(fig1, LiteralSet(fig1.rules, state), moves, [])
            if v.instance.action[3] == "a"
        ]
        assert (verdict.status, verdict.witness, verdict.culprit) == (VIOLATED, moves[1], "r2")
        log = GroundTruthLog(
            states=[{atom for atom, _ in state}],
            executed=[[inst("move(r1,a,b)"), *moves]],
            observed=[[]],
        )
        (event,) = [e for e in oracle_events(fig1, log) if e.action[3] == "a"]
        assert (event.status, event.offender) == (VIOLATED, "r2")


def unified_match(action, constraints, schema):
    """The matching rule of a norm instance, by unification."""
    sigma = unify(action, schema)
    return sigma is not None and all(
        eval_constraint(c, sigma) is not False for c in constraints
    )


terms = st.sampled_from(["R", "L", "W", "r1", "a"])
schema_patterns = st.builds(
    lambda name, args: (name,) + tuple(args),
    st.sampled_from(["move", "nop"]),
    st.lists(terms, max_size=3),
)
ground_schemas = st.builds(
    lambda name, args: (name,) + tuple(args),
    st.sampled_from(["move", "nop"]),
    st.lists(st.sampled_from(["r1", "r2", "a", "b"]), max_size=3),
)
residuals = st.lists(
    st.tuples(terms, st.sampled_from(["=", "!="]), terms), max_size=2
)


class TestInterning:
    def test_two_states_share_the_instance_of_one_key(self, fig1):
        # r1 in a, then r1 and r2 apart: the instance for a is one object.
        (alone,) = collision_instances(fig1, [(("in", "r1", "a"), True)])
        both = collision_instances(fig1, [(("in", "r2", "d"), True), (("in", "r1", "a"), True)])
        assert [i for i in both if i.action == alone.action] == [alone]
        assert any(i is alone for i in both)
        closed = relevant_instances_closed(fig1.norms, {("in", "r1", "a")}, fig1.statics)
        assert closed[0] is alone

    def test_a_ground_condition_keeps_one_instance(self):
        condition = [(("q", "a"), True), (("p", "a", "b"), False)]
        norms = _norms(condition, [])
        statics = StaticFacts([])
        holds = _state([(("q", "a"), True), (("p", "a", "b"), False)])
        first = relevant_instances(norms, holds, statics)
        holds.add((("q", "b"), True))
        again = relevant_instances(norms, holds, statics)
        assert len(first) == 2 and all(x is y for x, y in zip(first, again))
        assert relevant_instances(norms, _state([(("q", "a"), True)]), statics) == []

    def test_norms_never_share_an_instance(self):
        # n and m control the same action with no residuals: equal
        # instances, one per norm.
        condition = [(("q", "X"), True)]
        norms = _norms(condition, [])
        got = relevant_instances(norms, _state([(("q", "a"), True)]), StaticFacts([]))
        n, m = got
        assert (n.action, n.constraints) == (m.action, m.constraints)
        assert n is not m and (n.norm, m.norm) == (norms[0], norms[1])
        assert n.norm.instances.keys() == m.norm.instances.keys()
        assert n.norm.instances[(n.action, ())] is n and m.norm.instances[(m.action, ())] is m


class TestCompiledMatching:
    @given(schema_patterns, residuals, ground_schemas)
    @example(("move", "R", "L", "a"), [("r1", "!=", "R")], ("move", "r1", "b", "a"))
    @example(("move", "R", "L", "a"), [("r1", "!=", "R")], ("move", "r2", "b", "a"))
    @example(("move", "R", "R"), [], ("move", "r1", "r2"))
    @example(("move", "R"), [("W", "=", "a")], ("move", "r1"))
    @settings(max_examples=300)
    def test_instance_matches_agrees_with_unify(self, fig1, action, constraints, schema):
        instance = NormInstance(fig1.norms[0], "n", action, tuple(constraints))
        assert instance_matches(instance, schema) == unified_match(action, constraints, schema)

    @given(schema_patterns, ground_schemas)
    def test_schema_ref_agrees_with_unify(self, pattern, schema):
        ref = SchemaRef(pattern[0], pattern[1:])
        assert ref.matcher.matches(schema) == (unify(pattern, schema) is not None)

    def test_generated_instances_agree_with_unify(self):
        # Every instance the oracle builds over a simulated run, against every
        # ground action of the scenario: office instances carry the residual
        # R1!=R2 with R1 bound, random ones an open actor.
        checked = 0
        for k in range(4):
            for scenario in (
                generate_case_study(CaseStudyConfig(camera_ratio=0.5), random.Random(k)),
                generate_random(RandomConfig(agents=3), random.Random(k)),
            ):
                schemas = [
                    a.schema
                    for g in scenario.agents
                    for a in scenario.ground_actions(g) + (scenario.nop_instance(g),)
                ]
                log = simulate(scenario, 10, random.Random(k))
                for state in log.states:
                    for instance in relevant_instances_closed(
                        scenario.norms, state, scenario.statics
                    ):
                        for schema in schemas:
                            expected = unified_match(
                                instance.action, instance.constraints, schema
                            )
                            assert instance_matches(instance, schema) == expected
                            checked += expected
        assert checked


def _office_runs(n, steps):
    runs = []
    for idx in range(n):
        rng = random.Random(idx)
        scenario = generate_case_study(CaseStudyConfig(camera_ratio=0.25 * (idx % 4), steps=steps), rng)
        runs.append((scenario, simulate(scenario, steps, rng)))
    return runs


def _joined(norm, world):
    """The norm's instances through its condition's plan, in match order."""
    found = dict.fromkeys(norm.row_instance(tuple(row)) for row in norm.plan.rows(world))
    found.pop(None, None)
    return list(found)


class TestLiteralRoute:
    def test_the_literal_route_equals_the_join_on_monitor_states(self):
        move = SchemaRef("move", ("R", "L", "O"))
        extra = [
            # a predicate with static facts
            Norm("corridor", OBLIGATION, ((("corridor", "L", "O"), True),), (("L", "!=", "O"),), move),
            # a negative literal
            Norm("away", PROHIBITION, ((("in", "R", "O"), False),), (), move),
            # a constant and a repeated variable
            Norm("r1", PROHIBITION, ((("in", "r1", "O"), True),), (), move),
            Norm("same", OBLIGATION, ((("corridor", "O", "O"), True),), (), move),
        ]
        found = dict.fromkeys((n.id for n in extra), 0)
        for scenario, log in _office_runs(4, 30):
            norms = [*scenario.norms, *extra]
            assert all(n.literal is not None for n in norms)
            for variant in (TRADITIONAL, FULL):
                monitor = NormMonitor(scenario, variant=variant)
                for observed in log.observed:
                    monitor.advance(observed)
                    for state in (monitor.prev, monitor.curr):
                        got = relevant_instances(norms, state, scenario.statics)
                        world = OpenWorld(state, scenario.statics)
                        expected = [inst for n in norms for inst in _joined(n, world)]
                        assert len(got) == len(expected)
                        assert all(x is y for x, y in zip(got, expected))
                        for inst in got:
                            found[inst.norm_id] = found.get(inst.norm_id, 0) + 1
        # every norm met states where it had instances; "same" never does
        assert all(found[n] for n in ("no-collision", "corridor", "away", "r1")) and found["same"] == 0

    def test_kept_judgements_equal_the_matcher(self):
        runs = _office_runs(3, 30)
        for k in range(3):
            rng = random.Random(k)
            scenario = generate_random(RandomConfig(agents=3, observation_probability=0.5), rng)
            runs.append((scenario, simulate(scenario, 30, rng)))
        checked = 0
        for scenario, log in runs:
            oracle_events(scenario, log)
            for variant in VARIANTS:
                NormMonitor(scenario, variant=variant).run(log.observed)
            schemas = {
                a.schema for g in scenario.agents for a in (*scenario.ground_actions(g), scenario.nop_instance(g))
            }
            for norm in scenario.norms:
                for inst in norm.instances.values():
                    # the table holds the scenario's ground actions only
                    assert inst.judged.keys() <= schemas
                    for schema, hit in inst.judged.items():
                        assert hit == Matcher(inst.action, inst.constraints).matches(schema)
                        checked += hit
        assert checked > 50

    def test_a_warm_traditional_office_pass_makes_no_join_or_match_call(self, monkeypatch):
        runs = _office_runs(4, 40)

        def monitor_pass():
            return [NormMonitor(s, variant=TRADITIONAL).run(log.observed) for s, log in runs]

        calls = {"rows": 0, "matches": 0}
        rows, matches = Plan.rows, Matcher.matches

        def counted_rows(self, *a):
            calls["rows"] += 1
            return rows(self, *a)

        def counted_matches(self, *a):
            calls["matches"] += 1
            return matches(self, *a)

        monkeypatch.setattr(Plan, "rows", counted_rows)
        monkeypatch.setattr(Matcher, "matches", counted_matches)
        cold = monitor_pass()
        # The cold pass fills the judgements, through the counted matcher.
        assert calls["matches"] > 0
        calls.update(rows=0, matches=0)
        assert monitor_pass() == cold
        # Every instance comes from the state's mask and every judgement
        # from the instance's table.
        assert calls == {"rows": 0, "matches": 0}
        assert sum(len(r.verdicts) for records in cold for r in records) > 50


class TestNormValidation:
    def test_bad_deontic_rejected(self):
        try:
            Norm("n", "X", (), (), ("move", "W"))
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


def test_instances_deduplicate_on_action_and_residuals(fig1):
    # Two robots in one office create one instance for that destination,
    # per distinct residual constraint set.
    insts = collision_instances(
        fig1, [(("in", "r1", "a"), True), (("in", "r2", "a"), True)]
    )
    assert len({(i.action, i.constraints) for i in insts}) == len(insts)


# Norm conditions over p/2, q/1 and the static s/1, with constants and
# repeated variables; states and static facts use the constants a and b.
two = st.sampled_from(["a", "b"])
condition_terms = st.sampled_from(["X", "Y", "a", "b"])
condition_literals = st.tuples(
    st.one_of(
        st.tuples(st.just("p"), condition_terms, condition_terms),
        st.tuples(st.just("q"), condition_terms),
        st.tuples(st.just("s"), condition_terms),
    ),
    st.booleans(),
)
world_atoms = st.one_of(
    st.tuples(st.just("p"), two, two), st.tuples(st.just("q"), two), st.tuples(st.just("s"), two)
)
# Constraint sides: the condition's variables, W that no literal binds, constants.
condition_constraints = st.lists(
    st.tuples(
        st.sampled_from(["X", "Y", "W", "a"]),
        st.sampled_from(["=", "!="]),
        st.sampled_from(["X", "Y", "W", "b"]),
    ),
    max_size=2,
)
seeds = st.one_of(st.none(), st.dictionaries(st.sampled_from(["X", "Y"]), two, max_size=1))
static_sets = st.lists(st.tuples(st.just("s"), two), max_size=2).map(StaticFacts)


def open_world_order(state, statics):
    """Does a literal hold in an open-world state, and where does its atom
    stand among the candidates the join tries for it: the state's atoms of
    that predicate and sign, then the static facts the state does not
    assert (for a positive literal)."""

    def holds(atom, sign):
        return state.sign(atom) == sign or (sign and atom in statics)

    def position(atom, sign):
        found = list(state.with_pred(atom[0], sign))
        if sign:
            found += [s for s in statics.with_pred(atom[0]) if state.sign(s) is not True]
        return found.index(atom)

    return holds, position


def closed_world_order(state, statics):
    """As :func:`open_world_order` for a closed-world state: a negative
    literal holds when its atom is absent and is tried once."""

    def holds(atom, sign):
        return (atom in state or atom in statics) == sign

    def position(atom, sign):
        if not sign:
            return 0
        found = [a for a in state if a[0] == atom[0]]
        found += [s for s in statics.with_pred(atom[0]) if s not in state]
        return found.index(atom)

    return holds, position


def reference_matches(condition, constraints, seed, world):
    """Brute force: every assignment of the condition's variables that the
    seed leaves open, over a and b, under which each literal holds and no
    constraint is false. Ordered as a depth-first join visits them:
    positive literals first, each literal's atoms in candidate order."""
    holds, position = world
    seed = seed or {}
    names = sorted({t for atom, _ in condition for t in atom[1:] if is_variable(t)} - set(seed))
    ordered = [l for l in condition if l[1]] + [l for l in condition if not l[1]]
    found = []
    for values in itertools.product("ab", repeat=len(names)):
        sigma = {**seed, **dict(zip(names, values))}
        grounds = [(subst_atom(sigma, atom), sign) for atom, sign in ordered]
        if all(holds(*g) for g in grounds) and all(
            eval_constraint(c, sigma) is not False for c in constraints
        ):
            found.append(([position(*g) for g in grounds], sigma))
    return [sigma for _, sigma in sorted(found, key=lambda pair: pair[0])]


def closed_world_judgeable(condition, seed):
    """Each negative literal is ground once the seed and the positive
    literals are bound, as the closed-world judge needs."""
    bound = set(seed or ()) | {t for atom, sign in condition if sign for t in atom[1:]}
    return all(set(atom[1:]) <= bound | {"a", "b"} for atom, sign in condition if not sign)


def matches(condition, constraints, world, seed):
    """The plan's matches from the seed, as substitutions, that no
    constraint rules out, as norm conditions take them."""
    seed = seed or {}
    plan = Plan(condition, tuple(seed))
    found = []
    for row in plan.rows(world, tuple(seed.values())):
        sigma = dict(zip(plan.slots, row))
        if all(eval_constraint(c, sigma) is not False for c in constraints):
            found.append(sigma)
    return found


def open_matches(condition, constraints, state, statics, seed):
    return matches(condition, constraints, OpenWorld(state, statics), seed)


def closed_matches(condition, constraints, state, statics, seed):
    return matches(condition, constraints, ClosedWorld(state, statics), seed)


def reference_instances(norms, world):
    out = []
    for norm in norms:
        for sigma in reference_matches(norm.condition, norm.constraints, None, world):
            action = subst_atom(sigma, norm.action.pattern())
            residual = []
            for left, rel, right in norm.constraints:
                c = (subst_term(sigma, left), rel, subst_term(sigma, right))
                if eval_constraint(c, {}) is None:
                    residual.append(c)
            if (norm.id, action, tuple(residual)) not in out:
                out.append((norm.id, action, tuple(residual)))
    return out


def _norms(condition, constraints):
    action = SchemaRef("act", ("X", "Y", "W"))
    return [
        Norm("n", PROHIBITION, tuple(condition), tuple(constraints), action),
        Norm("m", OBLIGATION, tuple(reversed(condition)), (), action),
    ]


class TestConditionMatching:
    @given(
        st.lists(condition_literals, max_size=3),
        condition_constraints,
        st.dictionaries(world_atoms, st.booleans(), max_size=6),
        static_sets,
        seeds,
    )
    @settings(max_examples=400, deadline=None)
    # A repeated variable, a static fact the state also asserts.
    @example(
        [(("p", "X", "X"), True), (("s", "X"), True)],
        [],
        {("p", "a", "a"): True, ("s", "a"): True},
        StaticFacts([("s", "a"), ("s", "b")]),
        None,
    )
    # A negative literal matches explicit negatives only; the seed binds X.
    @example(
        [(("q", "X"), False), (("p", "X", "Y"), True)],
        [("Y", "!=", "W")],
        {("q", "a"): False, ("p", "a", "b"): True, ("p", "b", "b"): True},
        StaticFacts([]),
        {"X": "a"},
    )
    # Membership tests: literals the seed binds entirely, ...
    @example(
        [(("p", "X", "a"), True), (("q", "X"), False)],
        [],
        {("p", "a", "a"): True, ("p", "b", "a"): True, ("q", "a"): False, ("q", "b"): False},
        StaticFacts([]),
        {"X": "a"},
    )
    # ... a literal an earlier positive literal binds, ...
    @example(
        [(("q", "X"), True), (("p", "X", "X"), True)],
        [],
        {("q", "a"): True, ("q", "b"): True, ("p", "a", "a"): True, ("p", "b", "a"): True},
        StaticFacts([]),
        None,
    )
    # ... and a static fact the state asserts false, which still matches.
    @example(
        [(("q", "X"), True), (("s", "X"), True)],
        [],
        {("q", "a"): True, ("s", "a"): False},
        StaticFacts([("s", "a")]),
        None,
    )
    def test_open_world_agrees_with_brute_force(self, condition, constraints, signs, statics, seed):
        state = _state(signs.items())
        world = open_world_order(state, statics)
        expected = reference_matches(condition, constraints, seed, world)
        assert open_matches(condition, constraints, state, statics, seed) == expected

    @given(
        st.lists(condition_literals, max_size=3),
        condition_constraints,
        st.sets(world_atoms, max_size=6),
        static_sets,
        seeds,
    )
    @settings(max_examples=400, deadline=None)
    # A negative literal over a static fact, a false constraint.
    @example(
        [(("p", "X", "Y"), True), (("s", "Y"), False)],
        [("X", "!=", "b")],
        {("p", "a", "a"), ("p", "a", "b"), ("p", "b", "a")},
        StaticFacts([("s", "b")]),
        None,
    )
    def test_closed_world_agrees_with_brute_force(self, condition, constraints, state, statics, seed):
        assume(closed_world_judgeable(condition, seed))
        world = closed_world_order(state, statics)
        expected = reference_matches(condition, constraints, seed, world)
        assert closed_matches(condition, constraints, state, statics, seed) == expected

    def test_closed_world_negative_literal_is_not_unified(self, monkeypatch):
        calls = []
        monkeypatch.setattr(logic, "unify", lambda *a: calls.append(a) or unify(*a))
        condition = [(("q", "X"), True), (("p", "X", "a"), False)]
        state = {("q", "a"), ("q", "b"), ("p", "b", "a")}
        assert closed_matches(condition, [], state, StaticFacts([]), None) == [{"X": "a"}]
        # The q atoms are matched by position; the negative literal is a
        # membership test.
        assert calls == []

    def test_closed_world_needs_ground_negative_literals(self):
        condition = [(("q", "X"), True), (("p", "X", "Y"), False)]
        with pytest.raises(ValueError):
            closed_matches(condition, [], {("q", "a")}, StaticFacts([]), None)

    @given(
        st.lists(condition_literals, min_size=1, max_size=3),
        condition_constraints,
        st.dictionaries(world_atoms, st.booleans(), max_size=6),
        static_sets,
    )
    @settings(max_examples=300, deadline=None)
    # An empty condition holds everywhere: one instance per norm.
    @example([], [], {("q", "a"): True}, StaticFacts([]))
    # A condition of constants only, a negative literal over an absent atom.
    @example(
        [(("p", "a", "b"), True), (("q", "b"), False), (("s", "a"), True)],
        [("W", "!=", "a")],
        {("p", "a", "b"): True, ("q", "b"): False},
        StaticFacts([("s", "a")]),
    )
    # A constraint on constants that is false: n has no instance, m has.
    @example([(("q", "a"), True)], [("a", "=", "b")], {("q", "a"): True}, StaticFacts([]))
    def test_instances_agree_with_brute_force(self, condition, constraints, signs, statics):
        norms = _norms(condition, constraints)
        state = _state(signs.items())
        got = relevant_instances(norms, state, statics)
        expected = reference_instances(norms, open_world_order(state, statics))
        assert [(i.norm_id, i.action, i.constraints) for i in got] == expected
        if all(closed_world_judgeable(n.condition, None) for n in norms):
            closed = {atom for atom, sign in signs.items() if sign}
            got = relevant_instances_closed(norms, closed, statics)
            expected = reference_instances(norms, closed_world_order(closed, statics))
            assert [(i.norm_id, i.action, i.constraints) for i in got] == expected
