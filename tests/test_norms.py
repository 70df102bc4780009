import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from normmon.actions import SchemaRef
from normmon.harness import (
    CaseStudyConfig,
    RandomConfig,
    generate_case_study,
    generate_random,
    simulate,
)
from normmon.logic import LiteralSet, eval_constraint, unify
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


def collision_instances(fig1, state_lits):
    p = LiteralSet(state_lits)
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


class TestJudging:
    def test_prohibition_violated_by_matching_action(self, fig1, inst):
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        (instance,) = insts
        acts = [inst("move(r3,e,a)")]
        assert judge(instance, acts, agent_count=3) == VIOLATED

    def test_prohibition_unknown_under_partial_joint_action(self, fig1, inst):
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        (instance,) = insts
        acts = [inst("move(r2,d,e)")]
        assert judge(instance, acts, agent_count=3) == UNKNOWN

    def test_prohibition_fulfilled_when_joint_action_complete(self, fig1, inst):
        insts = collision_instances(fig1, [(("in", "r1", "a"), True)])
        (instance,) = insts
        acts = [
            inst("move(r1,a,b)"),
            inst("move(r2,d,e)"),
            inst("move(r3,e,f)"),
        ]
        assert judge(instance, acts, agent_count=3) == FULFILLED

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
            p_verdict = judge(instance, acts, agent_count)
            o_verdict = judge(mirrored, acts, agent_count)
            assert o_verdict == swap[p_verdict]


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
                for t, state in enumerate(log.states):
                    for instance in relevant_instances_closed(
                        scenario.norms, state, scenario.statics, born_at=t
                    ):
                        for schema in schemas:
                            expected = unified_match(
                                instance.action, instance.constraints, schema
                            )
                            assert instance_matches(instance, schema) == expected
                            checked += expected
        assert checked


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
