import itertools

import pytest

from conftest import crowded_office
from normmon.actions import (
    InapplicableActionError,
    apply_concurrent,
    effects,
    joint_post,
    joint_pre,
)
from normmon.harness import applicable_actions
from normmon.logic import is_consistent
from normmon.scenario import parse_atom, scenario_from_dict, scenario_to_dict


def applicable(fig1, state):
    return {agent: applicable_actions(fig1, agent, state) for agent in fig1.agents}


class TestInstantiation:
    def test_initial_moves_per_robot(self, fig1):
        state = set(fig1.initial_state)
        by_agent = {
            agent: sorted(str(a) for a in insts)
            for agent, insts in applicable(fig1, state).items()
        }
        assert by_agent == {
            "r1": ["move(r1,a,b)", "move(r1,a,e)"],
            "r2": ["move(r2,d,a)", "move(r2,d,e)"],
            "r3": ["move(r3,e,a)", "move(r3,e,d)", "move(r3,e,f)"],
        }


class TestGroundInstance:
    def test_schema_is_built_once_and_stays_out_of_identity(self, fig1, inst):
        a, b = inst("move(r1,a,b)"), inst("move(r1,a,b)")
        assert a.schema == ("move", "r1", "a", "b") and a.schema is a.schema
        assert a == b and hash(a) == hash(b) and repr(a) == "move(r1,a,b)"


class TestJointActions:
    def test_joint_pre_and_post_union(self, fig1, inst):
        acts = [inst("move(r1,a,b)"), inst("move(r3,e,a)")]
        assert (("in", "r1", "a"), True) in joint_pre(acts)
        assert (("in", "r3", "e"), True) in joint_pre(acts)
        assert (("in", "r1", "b"), True) in joint_post(acts)
        assert (("in", "r3", "e"), False) in joint_post(acts)

    def test_apply_concurrent_moves_all_robots(self, fig1, inst):
        state = set(fig1.initial_state)
        nxt = apply_concurrent(
            [inst("move(r1,a,b)"), inst("move(r2,d,a)"), inst("move(r3,e,a)")],
            state,
            fig1.statics,
            fig1.rules,
            fig1.agents,
        )
        assert nxt == {("in", "r1", "b"), ("in", "r2", "a"), ("in", "r3", "a")}

    def test_all_nop_leaves_the_state_unchanged(self, fig1):
        state = set(fig1.initial_state)
        nops = [fig1.instance_from_schema(("nop", r)) for r in fig1.agents]
        assert apply_concurrent(nops, state, fig1.statics, fig1.rules, fig1.agents) == state

    def test_inapplicable_action_rejected(self, fig1, inst):
        state = set(fig1.initial_state)
        nops = [fig1.instance_from_schema(("nop", r)) for r in ("r1", "r2")]
        with pytest.raises(InapplicableActionError):
            # r3 is in e, not in a
            apply_concurrent(
                nops + [inst("move(r3,a,b)")], state, fig1.statics, fig1.rules, fig1.agents
            )

    def test_effects_equal_joint_post_without_rules_firing(self, fig1, inst):
        acts = [inst("move(r1,a,b)")]
        assert set(effects(acts, fig1.statics, fig1.rules)) >= set(joint_post(acts))


def fig1_with_move(fig1, **changes):
    """fig1 with the move description's keys replaced."""
    data = scenario_to_dict(fig1)
    data["action_descriptions"][0].update(changes)
    return scenario_from_dict(data)


def apply_joint(scenario, schemas):
    joint = [scenario.instance_from_schema(parse_atom(s)[0]) for s in schemas]
    state = set(scenario.initial_state)
    return apply_concurrent(joint, state, scenario.statics, scenario.rules, scenario.agents)


class TestInconsistentConcurrentAction:
    """Each joint action below has every precondition true in the initial
    state, so ``apply_concurrent`` rejects it on the joint check alone."""

    def test_an_actor_with_two_actions(self, fig1):
        with pytest.raises(InapplicableActionError, match="inconsistent concurrent action"):
            apply_joint(fig1, ["nop(r1)", "move(r1,a,b)", "nop(r2)", "nop(r3)"])

    def test_an_agent_without_an_action(self, fig1):
        with pytest.raises(InapplicableActionError, match="inconsistent concurrent action"):
            apply_joint(fig1, ["nop(r1)", "nop(r2)"])

    def test_an_unmet_positive_concurrency_condition(self, fig1):
        # A move needs some other robot to move at the same time.
        scenario = fig1_with_move(fig1, con=[{"schema": "move(S,X,Y)", "positive": True}])
        with pytest.raises(InapplicableActionError, match="inconsistent concurrent action"):
            apply_joint(scenario, ["move(r1,a,b)", "nop(r2)", "nop(r3)"])
        apply_joint(scenario, ["move(r1,a,b)", "move(r2,d,e)", "nop(r3)"])

    def test_an_unmet_negative_concurrency_condition(self, fig1):
        # A move is excluded while any robot waits.
        scenario = fig1_with_move(fig1, con=[{"schema": "nop(S)", "positive": False}])
        with pytest.raises(InapplicableActionError, match="inconsistent concurrent action"):
            apply_joint(scenario, ["move(r1,a,b)", "nop(r2)", "nop(r3)"])
        apply_joint(scenario, ["move(r1,a,b)", "move(r2,d,e)", "move(r3,e,f)"])

    def test_posts_that_assert_an_atom_with_opposite_signs(self, fig1):
        # A move lights the office it enters and darkens the one it leaves:
        # r1 leaves a as r2 enters it.
        move = scenario_to_dict(fig1)["action_descriptions"][0]
        scenario = fig1_with_move(fig1, post=move["post"] + ["lit(O2)", "-lit(O1)"])
        with pytest.raises(InapplicableActionError, match="inconsistent concurrent action"):
            apply_joint(scenario, ["move(r1,a,b)", "move(r2,d,a)", "nop(r3)"])
        apply_joint(scenario, ["move(r1,a,b)", "move(r2,d,e)", "nop(r3)"])

    def test_a_successor_that_breaks_a_rule(self):
        # No two robots in one office: r3 may not enter o2 while r2 stays.
        scenario = crowded_office(0)
        nops = [f"nop({r})" for r in scenario.agents if r != "r3"]
        with pytest.raises(InapplicableActionError, match="inconsistent concurrent action"):
            apply_joint(scenario, ["move(r3,o3,o2)", *nops])
        apply_joint(scenario, ["move(r3,o3,o6)", *nops])

    def test_every_joint_action_is_judged_by_its_successor(self):
        # Each joint action of the crowded office's first tick is accepted
        # exactly when the successor, read as the closed literal set over
        # the dynamic atoms, is consistent and no two posts clash.
        scenario = crowded_office(0)
        state = set(scenario.initial_state)
        rows = [
            applicable_actions(scenario, g, state) + [scenario.nop_instance(g)]
            for g in scenario.agents
        ]
        accepted = 0
        for joint in itertools.product(*rows):
            posts = joint_post(joint)
            new = (state - {atom for atom, sign in posts if not sign}) | {
                atom for atom, sign in posts if sign
            }
            closed = [(atom, atom in new) for atom in scenario.dynamic_atoms]
            expected = is_consistent(closed, scenario.statics, scenario.rules) and is_consistent(
                posts, scenario.statics, []
            )
            try:
                got = apply_concurrent(joint, state, scenario.statics, scenario.rules, scenario.agents)
            except InapplicableActionError:
                got = None
            assert got == (new if expected else None)
            accepted += expected
        assert 0 < accepted < len(list(itertools.product(*rows)))
