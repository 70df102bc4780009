import pytest

from normmon.actions import (
    InapplicableActionError,
    apply_concurrent,
    effects,
    joint_post,
    joint_pre,
)
from normmon.harness import applicable_actions


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
