import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normmon import actions, logic, monitor, reconstruction
from normmon.harness import CaseStudyConfig, generate_case_study, simulate
from normmon.logic import (
    CompiledRules,
    IntegrityRule,
    LiteralSet,
    Matcher,
    StaticFacts,
    consistent_with,
    eval_constraint,
    is_consistent,
    subst_atom,
    survivors,
    unify,
)
from normmon.monitor import VARIANTS, NormMonitor
from normmon.reconstruction import candidate_actions
from normmon.scenario import scenario_from_dict, scenario_to_dict

NO_STATICS = StaticFacts(())

constants = st.sampled_from(["a", "b", "c", "d"])
variables = st.sampled_from(["X", "Y", "Z"])
predicates = st.sampled_from(["p", "q", "r"])


@st.composite
def ground_atoms(draw, max_arity=3):
    pred = draw(predicates)
    args = draw(st.lists(constants, max_size=max_arity))
    return (pred,) + tuple(args)


@st.composite
def patterns(draw, max_arity=3):
    pred = draw(predicates)
    args = draw(st.lists(st.one_of(constants, variables), max_size=max_arity))
    return (pred,) + tuple(args)


class TestUnify:
    def test_binds_variables(self):
        assert unify(("in", "R", "O"), ("in", "r1", "a")) == {"R": "r1", "O": "a"}

    def test_repeated_variable_must_agree(self):
        assert unify(("c", "X", "X"), ("c", "a", "a")) == {"X": "a"}
        assert unify(("c", "X", "X"), ("c", "a", "b")) is None

    def test_constant_mismatch(self):
        assert unify(("in", "r1", "O"), ("in", "r2", "a")) is None

    def test_predicate_and_arity_mismatch(self):
        assert unify(("in", "X"), ("at", "a")) is None
        assert unify(("in", "X"), ("in", "a", "b")) is None

    def test_seed_is_respected(self):
        assert unify(("in", "R", "O"), ("in", "r1", "a"), seed={"R": "r2"}) is None
        sigma = unify(("in", "R", "O"), ("in", "r1", "a"), seed={"R": "r1"})
        assert sigma == {"R": "r1", "O": "a"}

    @given(patterns(), ground_atoms())
    @settings(max_examples=200)
    def test_substituting_the_unifier_reproduces_the_ground_atom(self, pat, ground):
        sigma = unify(pat, ground)
        if sigma is not None:
            assert subst_atom(sigma, pat) == ground

    @given(ground_atoms())
    def test_ground_atom_unifies_with_itself(self, ground):
        assert unify(ground, ground) == {}


# Constraint sides: the pattern's variables, one it never has, constants.
constraint_lists = st.lists(
    st.tuples(
        st.sampled_from(["X", "Y", "Z", "W", "a", "b"]),
        st.sampled_from(["=", "!="]),
        st.sampled_from(["X", "Y", "Z", "W", "a", "b"]),
    ),
    max_size=3,
)


class TestMatcher:
    @given(patterns(), ground_atoms())
    @example(("p", "X", "X"), ("p", "a", "a"))
    @example(("p", "X", "X"), ("p", "a", "b"))
    @example(("p", "a", "X"), ("p", "b", "a"))
    @example(("p", "X"), ("p", "a", "b"))
    @example(("p", "X"), ("q", "a"))
    @example(("p",), ("p",))
    @settings(max_examples=300)
    def test_agrees_with_unify(self, pattern, ground):
        assert Matcher(pattern).matches(ground) == (unify(pattern, ground) is not None)

    @given(patterns(), ground_atoms(), constraint_lists)
    @example(("p", "X", "Y"), ("p", "a", "a"), [("X", "!=", "Y")])
    @example(("p", "X", "b"), ("p", "a", "b"), [("X", "=", "a")])
    @example(("p", "X"), ("p", "a"), [("X", "!=", "W")])
    @example(("p", "X"), ("p", "a"), [("a", "=", "b")])
    @settings(max_examples=300)
    def test_constraints_agree_with_eval_constraint(self, pattern, ground, constraints):
        sigma = unify(pattern, ground)
        expected = sigma is not None and all(
            eval_constraint(c, sigma) is not False for c in constraints
        )
        assert Matcher(pattern, constraints).matches(ground) == expected


class TestEvalConstraint:
    def test_bound_sides(self):
        assert eval_constraint(("X", "!=", "Y"), {"X": "a", "Y": "b"}) is True
        assert eval_constraint(("X", "!=", "Y"), {"X": "a", "Y": "a"}) is False
        assert eval_constraint(("X", "=", "a"), {"X": "a"}) is True

    def test_unbound_side_is_undecided(self):
        assert eval_constraint(("X", "!=", "Y"), {"X": "a"}) is None

    def test_two_constants_need_no_binding(self):
        assert eval_constraint(("a", "!=", "b"), {}) is True


RULE = IntegrityRule(
    literals=((("in", "R", "O1"), True), (("in", "R", "O2"), True)),
    constraints=(("O1", "!=", "O2"),),
)


def reference_consistent_with(base, additions, statics, rules):
    """Brute force: False iff base plus additions has a complementary pair
    or some rule body matches literals of base, additions and (positive)
    static facts with every constraint true. Agrees with the incremental
    check whenever base and the statics are consistent on their own."""
    merged = dict(base.signs)
    for atom, sign in additions:
        if merged.setdefault(atom, sign) != sign:
            return False
    pool = list(merged.items()) + [(atom, True) for atom in statics.atoms]
    for rule in rules:
        rows = [
            [atom for atom, s in pool if s == sign and atom[0] == pattern[0]]
            for pattern, sign in rule.literals
        ]
        for combo in itertools.product(*rows):
            sigma = {}
            for (pattern, _), atom in zip(rule.literals, combo):
                sigma = unify(pattern, atom, sigma)
                if sigma is None:
                    break
            else:
                if all(eval_constraint(c, sigma) is True for c in rule.constraints):
                    return False
    return True


def _rule(*body, constraints=()):
    return IntegrityRule(tuple(body), tuple(constraints))


# One rule per shape the compiled checker distinguishes; s/1 is static.
RULE_SHAPES = {
    "office": RULE,
    "one literal": _rule((("p", "X", "X"), True)),
    "static partner": _rule((("q", "X"), True), (("s", "X"), True), constraints=[("X", "!=", "b")]),
    "equality": _rule((("p", "X", "Y"), True), (("in", "Z", "Z"), True), constraints=[("Y", "=", "Z")]),
    "negative literal": _rule((("q", "X"), True), (("p", "X", "a"), False)),
    "three literals": _rule((("p", "X", "Y"), True), (("q", "Y"), True), (("in", "X", "Y"), False)),
}

# Two constants, so that literals often meet. Fixed arities except p,
# which also turns up with the wrong one.
few = st.sampled_from(["a", "b"])
shape_atoms = st.one_of(
    st.tuples(st.just("p"), few, few),
    st.tuples(st.just("p"), few),
    st.tuples(st.just("q"), few),
    st.tuples(st.just("in"), few, few),
    st.tuples(st.just("s"), few),
)
shape_literals = st.tuples(shape_atoms, st.booleans())

PAIRWISE_SHAPES = sorted(name for name in RULE_SHAPES if name != "three literals")
# As shape_literals, with a third constant, z9, that turns up rarely, so
# that some literals are first seen late in a sequence of calls.
late = st.sampled_from(["a", "b", "a", "b", "z9"])
late_literals = st.tuples(
    st.one_of(
        st.tuples(st.just("p"), late, late),
        st.tuples(st.just("q"), late),
        st.tuples(st.just("in"), late, late),
        st.tuples(st.just("s"), late),
    ),
    st.booleans(),
)


class TestConsistency:
    def test_rule_rejects_two_positions(self):
        lits = [(("in", "r1", "a"), True), (("in", "r1", "b"), True)]
        assert not is_consistent(lits, NO_STATICS, [RULE])

    def test_negative_does_not_fire_the_rule(self):
        lits = [(("in", "r1", "a"), True), (("in", "r1", "b"), False)]
        assert is_consistent(lits, NO_STATICS, [RULE])

    def test_direct_sign_contradiction(self):
        state = LiteralSet([(("in", "r1", "a"), True)])
        assert not consistent_with(state, [(("in", "r1", "a"), False)], NO_STATICS, [])

    def test_consistent_with_rejects_rule_completion(self):
        state = LiteralSet([(("in", "r1", "a"), True)])
        assert not consistent_with(state, [(("in", "r1", "b"), True)], NO_STATICS, [RULE])
        assert consistent_with(state, [(("in", "r2", "b"), True)], NO_STATICS, [RULE])

    @given(st.lists(ground_atoms(), max_size=6), st.lists(ground_atoms(), max_size=3))
    @settings(max_examples=200)
    def test_incremental_check_agrees_with_from_scratch_check(self, base, extra):
        rules = [RULE]
        state = LiteralSet([(a, True) for a in base])
        added = [(a, True) for a in extra]
        if not reference_consistent_with(LiteralSet(), state.literals(), NO_STATICS, rules):
            return
        assert consistent_with(state, added, NO_STATICS, rules) == reference_consistent_with(
            state, added, NO_STATICS, rules
        )

    @given(
        st.lists(st.sampled_from(sorted(RULE_SHAPES)), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from([("s", "a"), ("s", "b")]), max_size=2),
        st.lists(shape_literals, max_size=8),
        st.lists(st.lists(shape_literals, max_size=4), min_size=1, max_size=4),
    )
    @settings(max_examples=500, deadline=None)
    # A partner that is ground and among the additions only.
    @example(["static partner"], [], [], [[(("q", "a"), True), (("s", "a"), True)]])
    # A partner whose free variable repeats: in(a,b) is no in(Z,Z).
    @example(["equality"], [], [(("in", "a", "b"), True)], [[(("p", "b", "a"), True)]])
    # A candidate partner of the wrong length: p(a) is no p(X,Y).
    @example(["equality"], [], [(("p", "a"), True)], [[(("in", "a", "a"), True)]])
    # A static partner, and one the constraint X!=b rules out.
    @example(["static partner"], [("s", "a"), ("s", "b")], [], [[(("q", "a"), True)], [(("q", "b"), True)]])
    # A constant in the body: -p(b,b) is no -p(X,a).
    @example(["negative literal"], [], [(("q", "b"), True)], [[(("p", "b", "b"), False)]])
    def test_compiled_check_agrees_with_brute_force(self, shapes, statics, base, queries):
        rules = [RULE_SHAPES[name] for name in shapes]
        statics = StaticFacts(statics)
        compiled = CompiledRules(rules, statics)
        # Keep the base consistent, as the incremental check assumes.
        state = LiteralSet()
        for literal in base:
            if reference_consistent_with(state, [literal], statics, rules):
                state.add(literal)
        # One compiled set across the queries, so literals checked before
        # are answered from what was kept.
        for additions in queries:
            expected = reference_consistent_with(state, additions, statics, rules)
            assert consistent_with(state, additions, statics, compiled) == expected
            assert consistent_with(state, additions, statics, rules) == expected

    def test_is_consistent_is_the_check_from_an_empty_state(self):
        rules = [RULE_SHAPES["static partner"], RULE_SHAPES["one literal"]]
        statics = StaticFacts([("s", "a")])
        for lits in ([(("q", "a"), True)], [(("p", "b", "b"), True)], [(("q", "b"), True)]):
            assert is_consistent(lits, statics, rules) == consistent_with(
                LiteralSet(), lits, statics, rules
            )
            assert is_consistent(lits, statics, rules) == reference_consistent_with(
                LiteralSet(), lits, statics, rules
            )

    def test_three_literal_rule_takes_the_join(self, monkeypatch):
        runs = []
        rows = logic.Plan.rows
        monkeypatch.setattr(logic.Plan, "rows", lambda plan, *a: runs.append(plan) or rows(plan, *a))
        rules = [RULE_SHAPES["three literals"]]
        state = LiteralSet([(("q", "b"), True), (("in", "a", "b"), False)])
        assert not consistent_with(state, [(("p", "a", "b"), True)], NO_STATICS, rules)
        assert runs

    def test_literal_that_completes_a_rule_with_itself_fires(self):
        rules = [_rule((("p", "X"), True), (("p", "Y"), True))]
        compiled = CompiledRules(rules, NO_STATICS)
        # A literal that fires clashes with itself, even in an empty set.
        assert list(compiled.clashes((("p", "a"), True), LiteralSet())) == [(("p", "a"), True)]
        assert list(compiled.clashes((("p", "a"), False), LiteralSet())) == []
        assert not is_consistent([(("p", "a"), True)], NO_STATICS, compiled)
        assert is_consistent([(("p", "a"), False)], NO_STATICS, compiled)
        assert not reference_consistent_with(LiteralSet(), [(("p", "a"), True)], NO_STATICS, rules)

    def test_compiled_rules_skip_unify(self, fig1, monkeypatch):
        # A scenario fresh from its file, so nothing is kept from other tests.
        scenario = scenario_from_dict(scenario_to_dict(fig1))
        for agent in scenario.agents:
            scenario.ground_actions(agent)
        i = LiteralSet(
            [(atom, atom in scenario.initial_state) for atom in scenario.dynamic_atoms]
        )
        f = LiteralSet([(("in", "r1", "b"), True), (("in", "r3", "a"), True)])
        calls = []
        monkeypatch.setattr(logic, "unify", lambda *a: calls.append(a) or unify(*a))
        rows = {t: candidate_actions(scenario, t, i, f) for t in ("r2", "r3")}
        # The rule pruned r3's moves into offices other than a.
        assert [str(a) for a in rows["r3"]] == ["move(r3,e,a)"]
        assert len(rows["r2"]) == 2
        assert calls == []


def _consistent_part(literals, statics, rules, base=()):
    """The literals, in order, that keep ``base`` plus those kept so far
    consistent (by brute force); returns only the kept ones."""
    union = LiteralSet(base)
    kept = []
    for literal in literals:
        if reference_consistent_with(union, [literal], statics, rules):
            union.add(literal)
            kept.append(literal)
    return kept


def _with_firing(literals, statics, rules, base):
    """The consistent part of ``literals`` on top of ``base``, plus those of
    the others that fire a rule on their own and leave no atom twice."""
    kept = _consistent_part(literals, statics, rules, base)
    atoms = {atom for atom, _ in list(base) + kept}
    for literal in literals:
        if literal[0] not in atoms and not reference_consistent_with(
            LiteralSet(), [literal], statics, rules
        ):
            atoms.add(literal[0])
            kept.append(literal)
    return kept


def per_literal_survivors(state, base, post_sets, statics, rules):
    """Each literal of the state checked on its own with ``consistent_with``
    against the base, and against the base plus each post set."""
    unions = [LiteralSet(base)] + [LiteralSet(list(base) + list(post)) for post in post_sets]
    return [
        literal
        for literal in state.literals()
        if all(consistent_with(union, [literal], statics, rules) for union in unions)
    ]


class TestSurvivors:
    @given(
        st.lists(st.sampled_from(sorted(RULE_SHAPES)), min_size=0, max_size=3, unique=True),
        st.lists(st.sampled_from([("s", "a"), ("s", "b")]), max_size=2),
        st.lists(shape_literals, max_size=10),
        st.lists(shape_literals, max_size=4),
        st.lists(st.lists(shape_literals, max_size=4), max_size=4),
    )
    @settings(max_examples=500, deadline=None)
    # A post set's literal kills by complement, another's by a partner.
    @example(
        ["office"],
        [],
        [(("in", "a", "a"), True), (("in", "b", "a"), False)],
        [],
        [[(("in", "b", "a"), True)], [(("in", "a", "b"), True)]],
    )
    # A partner completed through a static fact's rule shape.
    @example(["static partner"], [("s", "a")], [(("s", "b"), True)], [(("q", "b"), True)], [])
    # p(a,a) fires the one-literal rule and still kills its partner in(a,a).
    @example(
        ["one literal", "equality"], [], [(("in", "a", "a"), True)], [], [[(("p", "a", "a"), True)]]
    )
    # q(a) fires with the static s(a) and still kills s(a) asserted in the state.
    @example(["static partner"], [("s", "a")], [(("s", "a"), True)], [], [[(("q", "a"), True)]])
    # ... but not where the base asserts s(a) as well, ...
    @example(
        ["static partner"], [("s", "a")], [(("s", "a"), True)], [(("s", "a"), True)], [[(("q", "a"), True)]]
    )
    # ... nor through a post set that asserts it, while one that does not kills it.
    @example(
        ["static partner"],
        [("s", "a")],
        [(("s", "a"), True)],
        [],
        [[(("q", "a"), True), (("s", "a"), True)], [(("q", "a"), True)]],
    )
    def test_survivors_agree_with_the_per_literal_check(
        self, shapes, statics, state_literals, base_literals, posts
    ):
        rules = [RULE_SHAPES[name] for name in shapes]
        statics = StaticFacts(statics)
        compiled = CompiledRules(rules, statics)
        state = LiteralSet(_consistent_part(state_literals, statics, rules))
        base = _consistent_part(base_literals, statics, rules)
        # Post sets may hold literals that fire a rule on their own.
        post_sets = [_with_firing(post, statics, rules, base) for post in posts]
        expected = per_literal_survivors(state, base, post_sets, statics, compiled)
        # A generator of post sets, as the reconstruction routes pass them.
        got = survivors(state, base, (p for p in post_sets), statics, compiled)
        assert got == expected
        assert (bool(compiled) and not compiled.joins) == (bool(shapes) and "three literals" not in shapes)

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        monkeypatch.setattr(
            logic, "consistent_with", lambda *a: calls.append(a) or consistent_with(*a)
        )
        return calls

    def test_pairwise_rules_make_no_per_literal_check(self, monkeypatch):
        rules = CompiledRules([RULE], NO_STATICS)
        state = LiteralSet([(("in", "r", "a"), True), (("in", "s", "a"), True)])
        calls = self._counting(monkeypatch)
        got = survivors(state, [(("in", "r", "b"), False)], [[(("in", "s", "b"), True)]], NO_STATICS, rules)
        assert got == [(("in", "r", "a"), True)]
        assert calls == []

    def test_three_literal_rule_takes_the_per_literal_path(self, monkeypatch):
        rules = CompiledRules([RULE_SHAPES["three literals"]], NO_STATICS)
        state = LiteralSet([(("in", "a", "b"), False), (("q", "a"), True)])
        base = [(("q", "b"), True)]
        post_sets = [[(("p", "a", "b"), True)]]
        expected = per_literal_survivors(state, base, post_sets, NO_STATICS, rules)
        assert expected == [(("q", "a"), True)]
        calls = self._counting(monkeypatch)
        assert survivors(state, base, post_sets, NO_STATICS, rules) == expected
        # Each literal of the state against the base, then with the post set.
        assert len(calls) == 4

    def test_literal_that_fires_stays_pairwise(self, monkeypatch):
        rules = [RULE_SHAPES["one literal"], RULE]
        compiled = CompiledRules(rules, NO_STATICS)
        state = LiteralSet(
            [(("in", "r", "a"), True), (("q", "a"), True), (("p", "a", "b"), False)]
        )
        # The second post set holds p(c,c), which fires the one-literal rule.
        post_sets = [[(("in", "r", "c"), True)], [(("p", "c", "c"), True), (("p", "a", "b"), True)]]
        expected = per_literal_survivors(state, [], post_sets, NO_STATICS, compiled)
        assert expected == [(("q", "a"), True)]
        calls = self._counting(monkeypatch)
        assert survivors(state, [], post_sets, NO_STATICS, compiled) == expected
        # The firing literal kills what clashes with it, on the pairwise path.
        assert len(calls) == 0

    @given(
        st.lists(st.sampled_from(PAIRWISE_SHAPES), max_size=3, unique=True),
        st.lists(st.sampled_from([("s", "a"), ("s", "b")]), max_size=2),
        st.lists(
            st.tuples(
                st.lists(late_literals, max_size=8),
                st.lists(late_literals, max_size=3),
                st.lists(st.tuples(st.lists(late_literals, max_size=3), st.booleans()), max_size=3),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=300, deadline=None)
    # in(a,b) is first seen in the state of the second call, after the post
    # set that kills it had its kill mask kept.
    @example(
        ["office"],
        [],
        [
            ([], [], [([(("in", "a", "a"), True)], True)]),
            ([(("in", "a", "b"), True)], [], [([(("in", "a", "a"), True)], True)]),
        ],
    )
    def test_one_index_serves_a_sequence_of_calls(self, shapes, statics, calls):
        rules = [RULE_SHAPES[name] for name in shapes]
        statics = StaticFacts(statics)
        compiled = CompiledRules(rules, statics)
        for state_literals, base_literals, posts in calls:
            state = LiteralSet(_consistent_part(state_literals, statics, rules))
            base = _consistent_part(base_literals, statics, rules)
            # An action's post set is a frozenset, whose kill mask is kept; a
            # joint one is a set, looked up literal by literal.
            post_sets = [
                (frozenset if kept else set)(_with_firing(post, statics, rules, base))
                for post, kept in posts
            ]
            expected = per_literal_survivors(state, base, post_sets, statics, compiled)
            assert survivors(state, base, post_sets, statics, compiled) == expected

    @pytest.mark.parametrize("rules", [[RULE], []], ids=["office rule", "no rules"])
    def test_literals_seen_before_make_no_clashes_call(self, rules, monkeypatch):
        compiled = CompiledRules(rules, NO_STATICS)
        state = LiteralSet([(("in", "r", "a"), True), (("in", "s", "a"), True), (("in", "s", "b"), False)])
        base = {(("in", "r", "b"), False)}
        post_sets = [frozenset([(("in", "s", "b"), True)]), {(("in", "r", "c"), True)}]
        first = survivors(state, base, post_sets, NO_STATICS, compiled)
        calls = []
        clashes = CompiledRules.clashes
        monkeypatch.setattr(CompiledRules, "clashes", lambda self, *a: calls.append(a) or clashes(self, *a))
        assert survivors(state, base, post_sets, NO_STATICS, compiled) == first
        assert calls == []


def closed_world_fired_through(state, posts, statics, rules):
    """Brute force: the posts that are literals of a rule body holding in
    the closed world of a full state and the static facts, found by trying
    every value of the body's variables among the constants in sight."""
    true = set(state) | statics.atoms
    constants = sorted({t for atom in true | {a for a, _ in posts} for t in atom[1:]})
    fired = set()
    for rule in rules:
        names = sorted({t for atom, _ in rule.literals for t in atom[1:] if logic.is_variable(t)})
        for values in itertools.product(constants, repeat=len(names)):
            sigma = dict(zip(names, values))
            body = [logic.subst_literal(sigma, literal) for literal in rule.literals]
            if all((atom in true) == sign for atom, sign in body) and all(
                eval_constraint(c, sigma) is True for c in rule.constraints
            ):
                fired.update(literal for literal in body if literal in posts)
    return fired


# Atoms of the dynamic predicates of RULE_SHAPES: s/1 is static.
dynamic_shape_atoms = st.one_of(
    st.tuples(st.just("p"), few, few),
    st.tuples(st.just("p"), few),
    st.tuples(st.just("q"), few),
    st.tuples(st.just("in"), few, few),
)


class TestFiredThrough:
    @given(
        st.lists(st.sampled_from(sorted(RULE_SHAPES)), max_size=3, unique=True),
        st.lists(st.sampled_from([("s", "a"), ("s", "b")]), max_size=2),
        st.lists(dynamic_shape_atoms, max_size=8),
        st.dictionaries(dynamic_shape_atoms, st.booleans(), max_size=4),
    )
    @settings(max_examples=500, deadline=None)
    # Two robots' positions, one of them a post: fired through it alone.
    @example(["office"], [], [("in", "a", "a")], {("in", "a", "b"): True})
    # Both body literals are posts.
    @example(["office"], [], [], {("in", "a", "a"): True, ("in", "a", "b"): True})
    # A static partner, and a negative body literal the post makes true.
    @example(["static partner", "negative literal"], [("s", "a")], [("q", "a"), ("p", "a", "a")],
             {("q", "b"): True, ("p", "a", "a"): False})
    # A three-literal body, through its negative literal.
    @example(["three literals"], [], [("p", "a", "b"), ("q", "b"), ("in", "a", "b")], {("in", "a", "b"): False})
    def test_agrees_with_closed_world_enumeration(self, shapes, statics, state, posts):
        rules = [RULE_SHAPES[name] for name in shapes]
        statics = StaticFacts(statics)
        # The posts are applied to the state first, as the simulator does.
        successor = set(state)
        for atom, sign in posts.items():
            (successor.add if sign else successor.discard)(atom)
        posts = set(posts.items())
        expected = closed_world_fired_through(successor, posts, statics, rules)
        assert logic.fired_through(successor, posts, statics, rules) == expected
        compiled = CompiledRules(rules, statics)
        assert logic.fired_through(successor, posts, statics, compiled) == expected


def test_monitor_records_match_the_brute_force_checker(monkeypatch):
    """Whole runs on small office scenarios, each variant once with the
    compiled checker and once with the brute-force reference in its place."""
    runs = []
    for idx in range(8):
        cfg = CaseStudyConfig(offices_max=5, robots_max=3, camera_ratio=(idx % 4) / 4, steps=20)
        rng = random.Random(idx)
        scenario = generate_case_study(cfg, rng)
        runs.append((scenario, simulate(scenario, cfg.steps, rng)))
    compiled = [
        [NormMonitor(s, variant=v).run(log.observed) for v in VARIANTS] for s, log in runs
    ]
    for module in (logic, actions, reconstruction, monitor):
        monkeypatch.setattr(module, "consistent_with", reference_consistent_with)
    reference = [
        [NormMonitor(s, variant=v).run(log.observed) for v in VARIANTS] for s, log in runs
    ]
    assert compiled == reference
    assert sum(len(r.reconstructed) for per_run in compiled for rs in per_run for r in rs) > 20


class TestLiteralSet:
    def test_assume_returns_only_new_literals_and_retract_undoes(self):
        s = LiteralSet([(("p", "a"), True)])
        added = s.assume([(("p", "a"), True), (("q", "b"), False)])
        assert added == [(("q", "b"), False)]
        s.retract(added)
        assert s.snapshot() == frozenset({(("p", "a"), True)})

    def test_sign_lookup(self):
        s = LiteralSet([(("p", "a"), True), (("q", "b"), False)])
        assert s.sign(("p", "a")) is True
        assert s.sign(("q", "b")) is False
        assert s.sign(("r", "c")) is None

    def test_copy_is_independent(self):
        s = LiteralSet([(("p", "a"), True)])
        t = s.copy()
        t.add((("q", "b"), True))
        assert s.sign(("q", "b")) is None
