import copy
import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normmon
from normmon.harness import CaseStudyConfig, RandomConfig, generate_case_study, generate_random
from normmon.logic import eval_constraint, is_variable, subst_atom
from normmon.scenario import (
    SCENARIO_SCHEMA,
    ScenarioError,
    compile_schema,
    dump_scenario,
    fits_schema,
    parse_atom,
    parse_constraint,
    parse_literal,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
)

from conftest import FIG1, generated_scenarios


class TestParsing:
    def test_atom_with_args(self):
        assert parse_atom("in(r1,a)") == (("in", "r1", "a"), True)

    def test_negated_atom(self):
        assert parse_atom("-in(r1, a)") == (("in", "r1", "a"), False)

    def test_nullary_atom(self):
        assert parse_atom("p7") == (("p7",), True)

    def test_literal(self):
        assert parse_literal("-corridor(a,b)") == (("corridor", "a", "b"), False)

    def test_constraint(self):
        assert parse_constraint("O1 != O2") == ("O1", "!=", "O2")
        assert parse_constraint("X=a") == ("X", "=", "a")

    def test_garbage_rejected(self):
        with pytest.raises(ScenarioError):
            parse_atom("in(r1")
        with pytest.raises(ScenarioError):
            parse_constraint("X < Y")


class TestRoundTrip:
    def test_load_dump_load_is_identity(self, fig1):
        again = scenario_from_dict(json.loads(dump_scenario(fig1)))
        assert scenario_to_dict(again) == scenario_to_dict(fig1)
        assert scenario_hash(again) == scenario_hash(fig1)

    def test_hash_tracks_content(self, fig1):
        data = scenario_to_dict(fig1)
        # r2 starts in f instead of d.
        data["initial_state"] = sorted(set(data["initial_state"]) - {"in(r2,d)"} | {"in(r2,f)"})
        assert scenario_hash(scenario_from_dict(data)) != scenario_hash(fig1)

    def test_bad_arity_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["initial_state"][0] = "in(r1)"
        with pytest.raises(ValueError):
            scenario_from_dict(data)

    def test_unknown_agent_actor_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["norms"][0]["deontic"] = "Q"
        with pytest.raises(Exception):
            scenario_from_dict(data)

    def test_declared_decomposable_flag_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["decomposable"] = True
        with pytest.raises(ScenarioError, match="'decomposable' was unexpected"):
            scenario_from_dict(data)

    def test_norm_action_with_wrong_arity_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["norms"][0]["action"] = "move(R2,L2)"
        with pytest.raises(ScenarioError, match="does not fit"):
            scenario_from_dict(data)

    def test_rule_the_statics_alone_satisfy_rejected(self, fig1):
        # No set of literals is consistent with it; the incremental check
        # would never notice.
        data = scenario_to_dict(fig1)
        data["rules"].append({"body": ["robot(R)", "office(O)"], "constraints": ["R!=O"]})
        with pytest.raises(ScenarioError, match="holds on the static facts alone"):
            scenario_from_dict(data)
        data["rules"][-1]["constraints"] = ["R=O"]
        scenario_from_dict(data)

    def test_static_fact_of_a_dynamic_predicate_rejected(self, fig1):
        # A closed world reads a static fact as true whatever the state
        # says: a post negating one would clash in the simulator alone.
        for key, added in (("statics", "in(r3,f)"), ("dynamic_atoms", "robot(r1)")):
            data = scenario_to_dict(fig1)
            data[key].append(added)
            with pytest.raises(ScenarioError, match=re.escape(f"static fact {added}: ")):
                scenario_from_dict(data)

    def test_norm_the_judge_cannot_decide_rejected(self, fig1):
        # The closed-world judge needs each negative literal of a condition
        # ground once the positive ones are matched.
        data = scenario_to_dict(fig1)
        for condition in (["-in(R1,L2)"], ["in(R1,a)", "-in(R1,L2)"]):
            data["norms"][0]["condition"] = condition
            with pytest.raises(ScenarioError, match=r"norm no-collision: .* -in\(R1,L2\)"):
                scenario_from_dict(data)
        data["norms"][0]["condition"] = ["in(R1,L2)", "-in(R1,a)"]
        scenario_from_dict(data)

    def test_action_grounding_cannot_decide_rejected(self, fig1):
        # Grounding matches static preconditions in the closed world, so each
        # negative one must be ground once the actor and the positives bind.
        data = scenario_to_dict(fig1)
        move = data["action_descriptions"][0]
        pre = list(move["pre"])
        for negative in ("-corridor(L2,Z)", "-corridor(O2,Z)"):
            move["pre"] = pre + [negative]
            with pytest.raises(ScenarioError, match=r"action move: .* " + re.escape(negative)):
                scenario_from_dict(data)
        move["pre"] = pre + ["-corridor(O2,O1)"]
        scenario = scenario_from_dict(data)
        moves = scenario.ground_actions("r1")
        # Only the moves along one-way corridors are left.
        assert moves and all(("corridor", a.args[2], a.args[1]) not in scenario.statics for a in moves)

    def test_rule_negative_with_an_unbound_variable_rejected(self, fig1):
        # The simulator reads a successor state as a closed world, where a
        # negative literal can only be tested once its variables are bound.
        data = scenario_to_dict(fig1)
        data["rules"].append({"body": ["robot(R)", "-in(R,O)"]})
        with pytest.raises(ScenarioError, match=re.escape("binds every variable of -in(R,O)")):
            scenario_from_dict(data)

    def test_initial_state_that_breaks_a_rule_rejected(self, fig1):
        # A monitor with complete knowledge would start from an inconsistent
        # state: the true initial atoms and the other dynamic atoms negated.
        data = scenario_to_dict(fig1)
        data["initial_state"].append("in(r1,c)")
        with pytest.raises(ScenarioError, match=r"initial state breaks the rule in\(R,O1\)"):
            scenario_from_dict(data)
        data = scenario_to_dict(fig1)
        data["rules"].append({"body": ["-in(R,a)", "robot(R)"]})
        with pytest.raises(ScenarioError, match=r"initial state breaks the rule -in\(R,a\)"):
            scenario_from_dict(data)

    def test_concurrency_condition_on_unknown_action_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["action_descriptions"][0]["con"] = [{"schema": "fly(Z)", "positive": True}]
        with pytest.raises(ScenarioError, match="unknown action 'fly'"):
            scenario_from_dict(data)

    def test_camera_on_unknown_action_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["observability"]["cameras"] = ["fly(R,a,b)"]
        with pytest.raises(ScenarioError, match=r"camera fly\(R,a,b\) refers to unknown action 'fly'"):
            scenario_from_dict(data)

    def test_camera_with_wrong_arity_rejected(self, fig1):
        # Such a camera would watch nothing, and every move go unobserved.
        data = scenario_to_dict(fig1)
        data["observability"]["cameras"] = ["move(R,a,b)", "move(R,a)"]
        with pytest.raises(ScenarioError, match=r"camera move\(R,a\): .* does not fit the parameters of move"):
            scenario_from_dict(data)

    def test_dict_is_a_copy(self, fig1):
        before = scenario_hash(fig1)
        observability = dict(fig1.observability)
        cameras = list(fig1.observability["cameras"])
        data = scenario_to_dict(fig1)
        data["observability"]["mode"] = "probability"
        data["observability"]["cameras"].append("move(R,a,b)")
        assert fig1.observability == observability
        assert fig1.observability["cameras"] == cameras
        assert scenario_hash(fig1) == before

    def test_actor_outside_the_parameters_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["action_descriptions"][0]["actor"] = "Q"
        with pytest.raises(ScenarioError, match="action move: actor 'Q' is not one of its parameters"):
            scenario_from_dict(data)

    def test_predicate_with_two_arities_rejected(self, fig1):
        data = scenario_to_dict(fig1)
        data["statics"].append("robot(r1,x)")
        with pytest.raises(ScenarioError, match="predicate robot used with arity"):
            scenario_from_dict(data)

    def test_agent_listed_twice_rejected(self, fig1):
        # Each agent acts once per tick; a repeated name would put its
        # action into the joint action twice.
        data = scenario_to_dict(fig1)
        data["agents"].append("r1")
        with pytest.raises(ScenarioError, match="agent 'r1' is listed more than once"):
            scenario_from_dict(data)


def _drop_norms(data):
    del data["norms"]


def _declare_decomposable(data):
    data["decomposable"] = True


def _declare_constants(data):
    data["constants"] = ["a", "b"]


def _agents_as_a_string(data):
    data["agents"] = "r1"


def _con_item_without_schema(data):
    data["action_descriptions"][0]["con"] = [{"positive": True, "shema": "nop(S)"}]


def _no_agents(data):
    data["agents"] = []


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "spoil",
        [
            _drop_norms,
            _declare_decomposable,
            _declare_constants,
            _agents_as_a_string,
            _con_item_without_schema,
            _no_agents,
        ],
    )
    def test_message_is_what_jsonschema_validate_reports(self, fig1, spoil):
        data = copy.deepcopy(scenario_to_dict(fig1))
        spoil(data)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(data, SCENARIO_SCHEMA)
        with pytest.raises(ScenarioError) as raised:
            scenario_from_dict(data)
        assert str(raised.value) == (
            "scenario does not fit the schema: " + reference.value.message
        )

    def test_schema_is_a_valid_schema(self):
        cls = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
        cls.check_schema(SCENARIO_SCHEMA)


# Values a spoil puts in place: every JSON type, and jsonschema's edge
# cases (bools beside integers, 1.0, NaN and the infinities).
SPOIL_VALUES = [
    True, False, 0, 1, 1.0, 1.5, -1, 2, math.nan, math.inf, -math.inf,
    "", "x", "O", "P", "cameras", None, [], ["x"], [1], {}, {"schema": "nop(S)"},
]


@functools.cache
def generator_dicts():
    """Dicts as the generators write them: office scenarios at even
    indices, random ones at odd indices."""
    out = []
    for seed in range(2):
        office = generate_case_study(CaseStudyConfig(camera_ratio=0.5), random.Random(seed))
        out.append(scenario_to_dict(office))
        out.append(scenario_to_dict(generate_random(RandomConfig(agents=3, actions=6), random.Random(seed))))
    return out


def _position(node, step):
    """The key or index that ``step`` names in ``node``: a string names a
    key, an integer the key in sorted order or the index, modulo the size;
    None where there is none."""
    if isinstance(node, dict):
        if isinstance(step, str):
            return step if step in node else None
        return sorted(node)[step % len(node)] if node else None
    if isinstance(node, list) and isinstance(step, int) and node:
        return step % len(node)
    return None


def spoil(data, path, op, value):
    """Follow ``path`` into ``data`` and, at its last step, set the value
    there, drop it, or add one (a new key of a dict, or an item appended to
    a list). A path that leaves the data changes nothing."""
    node = data
    for step in path[:-1]:
        key = _position(node, step)
        if key is None:
            return
        node = node[key]
    if op == "add" and isinstance(node, list):
        node.append(value)
    elif op == "add" and isinstance(node, dict):
        node[path[-1] if isinstance(path[-1], str) else "extra"] = value
    else:
        key = _position(node, path[-1])
        if key is None:
            return
        if op == "set":
            node[key] = value
        else:
            del node[key]


spoils = st.lists(
    st.tuples(
        st.lists(st.integers(0, 40), min_size=1, max_size=5),
        st.sampled_from(["set", "drop", "add"]),
        st.sampled_from(SPOIL_VALUES),
    ),
    min_size=1,
    max_size=3,
)


class TestCompiledSchema:
    """``fits_schema`` is the scenario schema compiled to a predicate;
    jsonschema is the reference it must agree with."""

    @given(st.integers(0, 3), spoils)
    @settings(max_examples=300, deadline=None)
    @example(0, [(["norms", 0, "priority"], "set", True)])
    @example(0, [(["norms", 0, "priority"], "set", 1.0)])
    @example(0, [(["norms", 0, "priority"], "set", 1.5)])
    @example(0, [(["norms", 0, "deontic"], "set", "Q")])
    @example(1, [(["observability", "probability"], "set", math.nan)])
    @example(1, [(["observability", "probability"], "set", math.inf)])
    @example(1, [(["observability", "probability"], "set", True)])
    @example(1, [(["observability", "probability"], "set", 1)])
    @example(1, [(["observability", "mode"], "set", "cameras")])
    @example(0, [(["action_descriptions", 0, "nop"], "set", 0)])
    @example(0, [(["action_descriptions", 0, "con"], "add", {"schema": "nop(S)"})])
    @example(0, [(["action_descriptions", 0, "con"], "add", {"schema": "nop(S)", "extra": 1})])
    @example(0, [(["rules", 0, "body"], "set", [])])
    @example(0, [(["agents"], "set", "r1")])
    @example(0, [(["observability", "colour"], "add", "red")])
    @example(0, [(["dynamic_atoms"], "drop", None)])
    @example(0, [(["name"], "drop", None)])
    @example(1, [(["statics", 0], "set", 1)])
    def test_agrees_with_jsonschema(self, base, changes):
        data = copy.deepcopy(generator_dicts()[base])
        for path, op, value in changes:
            spoil(data, path, op, value)
        validator = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)
        assert fits_schema(data) == validator.is_valid(data)
        if not fits_schema(data):
            with pytest.raises(ScenarioError) as raised:
                scenario_from_dict(data)
            expected = jsonschema.exceptions.best_match(validator.iter_errors(data)).message
            assert str(raised.value) == "scenario does not fit the schema: " + expected

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "string", "pattern": "^a"},
            {"type": ["string", "null"]},
            {"items": {"type": "string"}},
            {"type": "string", "minItems": 1},
            {"type": "object", "additionalProperties": {"type": "string"}},
            {"type": "object", "properties": {"a": {"type": "string", "format": "date"}}},
        ],
    )
    def test_a_keyword_it_does_not_compile_raises(self, schema):
        with pytest.raises(ValueError, match="cannot compile"):
            compile_schema(schema)

    def test_importing_the_package_does_not_load_jsonschema(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(normmon.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", "import normmon, sys; assert 'jsonschema' not in sys.modules"],
            env=env,
            check=True,
        )


class TestDecomposable:
    def test_office_scenarios_are_decomposable(self, fig1):
        assert fig1.decomposable
        for idx in range(10):
            cfg = CaseStudyConfig(camera_ratio=idx / 10)
            assert generate_case_study(cfg, random.Random(idx)).decomposable

    def test_dynamic_atom_shared_by_two_agents(self, fig1):
        data = scenario_to_dict(fig1)
        # visited(a) is a postcondition of r1's and of r2's moves into a.
        data["action_descriptions"][0]["post"].append("visited(O2)")
        assert not scenario_from_dict(data).decomposable

    def test_concurrency_condition(self, fig1):
        data = scenario_to_dict(fig1)
        data["action_descriptions"][0]["con"] = [{"schema": "nop(S)", "positive": False}]
        assert not scenario_from_dict(data).decomposable

    def test_rule_matching_two_agents_atoms(self, fig1):
        data = scenario_to_dict(fig1)
        data["rules"].append({"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]})
        assert not scenario_from_dict(data).decomposable

    def test_rule_whose_constraint_rules_out_two_agents(self, fig1):
        data = scenario_to_dict(fig1)
        data["rules"].append({"body": ["in(R1,O1)", "in(R2,O2)"], "constraints": ["R1=R2", "O1!=O2"]})
        assert scenario_from_dict(data).decomposable


def brute_force_ground(scenario, agent):
    """Ground each non-NOP description over every assignment of its
    parameters to the scenario's constants, the actor being the agent, that
    some assignment of the other variables of its static preconditions
    extends so that each static precondition holds in the static facts and
    no constraint is false; in schema order."""
    found = {}
    for d in scenario.non_nop_descriptions():
        static_pre = d.split_pre(scenario.dynamic_predicates)[1]
        params = [p for p in d.params if p != d.actor_param]
        extra = sorted(
            {t for atom, _ in static_pre for t in atom[1:] if is_variable(t)} - set(d.params)
        )
        for values in itertools.product(scenario.constants(), repeat=len(params) + len(extra)):
            sigma = {d.actor_param: agent, **dict(zip(params + extra, values))}
            if all(
                (subst_atom(sigma, atom) in scenario.statics) == sign for atom, sign in static_pre
            ) and all(eval_constraint(c, sigma) is not False for c in d.constraints):
                schema = (d.name, *(sigma[p] for p in d.params))
                found.setdefault(schema, scenario.instance_from_schema(schema))
    return [found[schema] for schema in sorted(found)]


def _described(actions):
    return [(a.schema, a.actor, a.pre, a.post, a.con) for a in actions]


class TestGroundActions:
    def test_matches_brute_force_instantiation(self, fig1):
        # The ground actions, in order, with their pre, post and concurrency
        # conditions, on fig1 and on generated office and random scenarios.
        for scenario in [fig1, *generated_scenarios()]:
            for agent in scenario.agents:
                expected = brute_force_ground(scenario, agent)
                assert expected
                assert _described(scenario.ground_actions(agent)) == _described(expected)

    def test_seven_moves_apply_in_the_initial_state(self, fig1):
        # r1 at a: a->b, a->e; r2 at d: d->a, d->e; r3 at e: e->a, e->d, e->f
        state = set(fig1.initial_state)
        applicable = [
            a
            for agent in fig1.agents
            for a in fig1.ground_actions(agent)
            if all(
                (atom in state) == sign
                for atom, sign in a.pre
            )
        ]
        assert len(applicable) == 7
