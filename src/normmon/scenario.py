"""Scenario container plus the JSON file format and its schema.

Atoms and literals are written in a compact textual form: ``in(r1,a)`` for a
positive literal, ``-in(r1,a)`` for a negative one, ``p3`` for a nullary
atom. Variables start with an upper-case letter. Constraints are written as
``X!=Y`` or ``X=Y``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import re
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .actions import ActionDescription, ActionInstance, SchemaRef, ground_instance
from .logic import (
    ArityError,
    Atom,
    ClosedWorld,
    CompiledRules,
    Constraint,
    IntegrityRule,
    Literal,
    LiteralSet,
    Matcher,
    Plan,
    Probe,
    StaticFacts,
    atom_text,
    consistent_with,
    eval_constraint,
    is_consistent,
    is_variable,
    literal_text,
)

_ATOM_RE = re.compile(r"^\s*(-?)\s*([A-Za-z_][\w]*)\s*(?:\(\s*([^()]*)\s*\))?\s*$")
_CONSTRAINT_RE = re.compile(r"^\s*([\w]+)\s*(!=|=)\s*([\w]+)\s*$")


class ScenarioError(ValueError):
    pass


def parse_atom(text: str) -> Tuple[Atom, bool]:
    m = _ATOM_RE.match(text)
    if not m:
        raise ScenarioError(f"cannot parse atom {text!r}")
    neg, name, argstr = m.groups()
    args = tuple(a.strip() for a in argstr.split(",")) if argstr else ()
    if argstr is not None and any(not a for a in args):
        raise ScenarioError(f"empty argument in {text!r}")
    return (name,) + args, not neg


def parse_literal(text: str) -> Literal:
    atom, sign = parse_atom(text)
    return (atom, sign)


def parse_constraint(text: str) -> Constraint:
    m = _CONSTRAINT_RE.match(text)
    if not m:
        raise ScenarioError(f"cannot parse constraint {text!r}")
    left, rel, right = m.groups()
    return (left, rel, right)


def constraint_text(c: Constraint) -> str:
    return f"{c[0]}{c[1]}{c[2]}"


SCENARIO_SCHEMA = {
    "type": "object",
    "required": [
        "name",
        "agents",
        "statics",
        "initial_state",
        "rules",
        "action_descriptions",
        "norms",
        "observability",
    ],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "agents": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "statics": {"type": "array", "items": {"type": "string"}},
        "initial_state": {"type": "array", "items": {"type": "string"}},
        "dynamic_atoms": {"type": "array", "items": {"type": "string"}},
        "rules": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["body"],
                "additionalProperties": False,
                "properties": {
                    "body": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                    "constraints": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "action_descriptions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "params", "actor", "pre", "post"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "params": {"type": "array", "items": {"type": "string"}},
                    "actor": {"type": "string"},
                    "pre": {"type": "array", "items": {"type": "string"}},
                    "constraints": {"type": "array", "items": {"type": "string"}},
                    "con": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["schema"],
                            "additionalProperties": False,
                            "properties": {
                                "schema": {"type": "string"},
                                "positive": {"type": "boolean"},
                            },
                        },
                    },
                    "post": {"type": "array", "items": {"type": "string"}},
                    "nop": {"type": "boolean"},
                },
            },
        },
        "norms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "deontic", "condition", "action"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "deontic": {"type": "string", "enum": ["O", "P"]},
                    "condition": {"type": "array", "items": {"type": "string"}},
                    "constraints": {"type": "array", "items": {"type": "string"}},
                    "action": {"type": "string"},
                    "priority": {"type": "integer"},
                },
            },
        },
        "observability": {
            "type": "object",
            "required": ["mode"],
            "additionalProperties": False,
            "properties": {
                "mode": {"type": "string", "enum": ["cameras", "probability"]},
                "cameras": {"type": "array", "items": {"type": "string"}},
                "probability": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
    },
}

# The JSON Schema type tests, with jsonschema's edge cases: a bool is not an
# integer or a number, and a float with no fraction is an integer.
_TYPE_TESTS: Dict[str, Callable[[object], bool]] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool)
    and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "number": lambda x: not isinstance(x, bool) and isinstance(x, numbers.Number),
}

# The keywords a schema node may carry besides its one ``type``.
_NODE_KEYWORDS = {
    "object": {"required", "additionalProperties", "properties"},
    "array": {"items", "minItems"},
    "string": {"enum"},
    "boolean": set(),
    "integer": {"minimum", "maximum"},
    "number": {"minimum", "maximum"},
}


def compile_schema(schema: Dict) -> Callable[[object], bool]:
    """A predicate true of exactly the instances that jsonschema finds valid
    against ``schema``. Each node must declare one ``type``, and may carry
    only the keywords that act on that type; anything else raises
    ``ValueError``, so a schema edit is never accepted unchecked."""
    kind = schema.get("type")
    if not isinstance(kind, str) or kind not in _TYPE_TESTS:
        raise ValueError(f"cannot compile a schema node of type {kind!r}")
    unknown = schema.keys() - _NODE_KEYWORDS[kind] - {"type"}
    if unknown:
        raise ValueError(f"cannot compile the keywords {sorted(unknown)} of a {kind} node")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("cannot compile additionalProperties other than false")
    # Each check runs only once the type test has passed.
    checks: List[Callable[[object], bool]] = []
    if "required" in schema:
        required = frozenset(schema["required"])
        checks.append(lambda x: x.keys() >= required)
    if "additionalProperties" in schema:
        allowed = frozenset(schema.get("properties", ()))
        checks.append(lambda x: x.keys() <= allowed)
    if "properties" in schema:
        properties = {k: compile_schema(v) for k, v in schema["properties"].items()}
        checks.append(lambda x: all(fits(x[k]) for k, fits in properties.items() if k in x))
    if "items" in schema:
        item = compile_schema(schema["items"])
        checks.append(lambda x: all(map(item, x)))
    if "minItems" in schema:
        least = schema["minItems"]
        checks.append(lambda x: len(x) >= least)
    if "enum" in schema:
        # The value is a string here, so membership is jsonschema's equality.
        members = frozenset(schema["enum"])
        checks.append(members.__contains__)
    # Written as jsonschema compares, so that NaN passes both bounds.
    if "minimum" in schema:
        low = schema["minimum"]
        checks.append(lambda x: not x < low)
    if "maximum" in schema:
        high = schema["maximum"]
        checks.append(lambda x: not x > high)
    test = _TYPE_TESTS[kind]
    if not checks:
        return test
    return lambda x: test(x) and all(check(x) for check in checks)


fits_schema = compile_schema(SCENARIO_SCHEMA)


@cache
def _validator():
    """jsonschema's validator for the scenario schema, built on the first
    rejection: it only words the error."""
    import jsonschema

    return jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def _schema_error(data: Dict) -> Optional[str]:
    """The message ``jsonschema.validate`` would raise for ``data``, or None
    if ``data`` fits the schema. jsonschema walks only what the compiled
    predicate rejects."""
    if fits_schema(data):
        return None
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(data))
    return None if error is None else error.message


class ActionBits:
    """One agent's coherent actions (``Scenario.coherent_actions``) as the
    bits of an int, in order, and what each state literal rules out among
    them.

    Such an action is consistent on its own in its pre and in its post, so
    under rules of at most two body literals it fits partial states (i, f)
    exactly when no literal of its pre clashes with a literal of i and none
    of its post with one of f: a clash involves two literals only. So a
    literal m of i rules out a fixed set of actions, those whose pre holds a
    literal in m's clash neighbourhood (``CompiledRules.near``), and likewise
    a literal of f on the post side. That set, a mask, is read off the
    neighbourhood the first time m is seen on its side and kept; a row is
    then one OR per state literal. A rule of three or more body literals can
    rule out more, so there the actions the masks leave still need a check
    each."""

    __slots__ = ("actions", "bits", "full", "_bit", "_rules", "_pre", "_post", "_pre_kills", "_post_kills")

    def __init__(self, actions: Tuple[ActionInstance, ...], rules: CompiledRules):
        self.actions = actions
        self.bits = tuple(1 << k for k in range(len(actions)))
        self.full = (1 << len(actions)) - 1
        self._bit = dict(zip(actions, self.bits))
        self._rules = rules
        # literal -> the mask of the actions whose pre (post) holds it
        pre: Dict[Literal, int] = {}
        post: Dict[Literal, int] = {}
        for bit, a in zip(self.bits, actions):
            for literal in a.pre:
                pre[literal] = pre.get(literal, 0) | bit
            for literal in a.post:
                post[literal] = post.get(literal, 0) | bit
        # per side: each literal's bit in the rules' literal index, and its mask
        self._pre = [(rules.bits[l], mask) for l, mask in pre.items()]
        self._post = [(rules.bits[l], mask) for l, mask in post.items()]
        # state literal -> the mask of the actions it rules out, filled on
        # first sight
        self._pre_kills: Dict[Literal, int] = {}
        self._post_kills: Dict[Literal, int] = {}

    def ruled_out(self, i: LiteralSet, f: LiteralSet) -> int:
        """The actions with a pre literal that clashes with i or a post
        literal that clashes with f."""
        return self._kills(i, self._pre, self._pre_kills) | self._kills(f, self._post, self._post_kills)

    def _kills(self, state: LiteralSet, side: List[Tuple[int, int]], table: Dict[Literal, int]) -> int:
        """The OR of what the state's literals rule out on one side: ``side``
        holds the bits of its literals and their actions, ``table`` keeps
        each state literal's mask."""
        bad = 0
        for m in state.signs.items():
            kill = table.get(m)
            if kill is None:
                near = self._rules.masks((m,))[1]
                kill = 0
                for bit, mask in side:
                    if near & bit:
                        kill |= mask
                table[m] = kill
            bad |= kill
        return bad

    def members(self, mask: int) -> List[ActionInstance]:
        """The actions of the mask's bits, in order."""
        return [a for bit, a in zip(self.bits, self.actions) if mask & bit]

    def mask(self, actions: Iterable[ActionInstance]) -> int:
        """The bits of some of the actions."""
        return sum(map(self._bit.__getitem__, actions))


@dataclass
class Scenario:
    name: str
    agents: Tuple[str, ...]
    statics: StaticFacts
    initial_state: FrozenSet[Atom]
    rules: Tuple[IntegrityRule, ...]
    descriptions: Tuple[ActionDescription, ...]
    norms: Tuple[object, ...]
    observability: Dict
    dynamic_atoms: Tuple[Atom, ...] = ()

    # Derived from the fields above, once; never serialized.
    _by_name: Dict[str, ActionDescription] = field(init=False, compare=False, repr=False)
    dynamic_predicates: FrozenSet[str] = field(init=False, compare=False, repr=False)
    cameras: Tuple[Matcher, ...] = field(init=False, compare=False, repr=False)
    # Per description: its static preconditions as a join from the actor,
    # and the variables grounding leaves free.
    _groundings: Dict[str, Tuple[Plan, Tuple[str, ...]]] = field(init=False, compare=False, repr=False)
    # The NOP description, if any.
    _nop: Optional[ActionDescription] = field(init=False, compare=False, repr=False)
    # Filled on first use, per agent or per ground schema.
    _instances: Dict[Atom, ActionInstance] = field(default_factory=dict, init=False, compare=False, repr=False)
    _ground: Dict[str, Tuple[ActionInstance, ...]] = field(default_factory=dict, init=False, compare=False, repr=False)
    _coherent: Dict[str, Tuple[ActionInstance, ...]] = field(default_factory=dict, init=False, compare=False, repr=False)
    _pres: Dict[str, Tuple] = field(default_factory=dict, init=False, compare=False, repr=False)
    _bits: Dict[str, ActionBits] = field(default_factory=dict, init=False, compare=False, repr=False)
    _watched: Dict[Atom, bool] = field(default_factory=dict, init=False, compare=False, repr=False)
    # ``constants``, ``decomposable`` and ``scenario_hash``, on first use.
    _constants: Optional[Tuple[str, ...]] = field(default=None, init=False, compare=False, repr=False)
    _decomposable: Optional[bool] = field(default=None, init=False, compare=False, repr=False)
    _hash: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self._check_arities()
        self._by_name = {d.name: d for d in self.descriptions}
        self.rules = CompiledRules(self.rules, self.statics)
        posts = [atom for d in self.descriptions for atom, _ in d.post]
        self.dynamic_predicates = frozenset(a[0] for a in posts + list(self.dynamic_atoms))
        self.cameras = tuple(Matcher(parse_atom(c)[0]) for c in self.observability.get("cameras", ()))
        self._groundings = {d.name: self._grounding(d) for d in self.non_nop_descriptions()}
        self._nop = next((d for d in self.descriptions if d.is_nop), None)

    def _grounding(self, d: ActionDescription) -> Tuple[Plan, Tuple[str, ...]]:
        """The description's static preconditions joined from its actor, and
        the variables of its parameters and preconditions left free, in
        order."""
        plan = Plan(d.split_pre(self.dynamic_predicates)[1], (d.actor_param,))
        free = [p for p in d.params if is_variable(p) and p not in plan.slots]
        for atom, _ in d.pre:
            free.extend(v for v in atom[1:] if is_variable(v) and v not in plan.slots and v not in free)
        return plan, tuple(free)

    def description(self, name: str) -> ActionDescription:
        try:
            return self._by_name[name]
        except KeyError:
            raise ScenarioError(f"unknown action description {name!r}") from None

    def instance_from_schema(self, schema: Atom) -> ActionInstance:
        """The ground instance of a schema, built on first use and kept per
        schema. A schema that grounds no instance raises on every call."""
        found = self._instances.get(schema)
        if found is None:
            d = self.description(schema[0])
            if len(schema) - 1 != len(d.params):
                raise ArityError(f"schema {schema} does not fit params of {d.name}")
            sigma = dict(zip(d.params, schema[1:]))
            found = self._instances[schema] = ground_instance(d, sigma, self.dynamic_predicates)
        return found

    def nop_instance(self, agent: str) -> ActionInstance:
        """The agent's NOP, from the same table as ``instance_from_schema``."""
        if self._nop is None:
            raise ValueError("scenario lacks a NOP action; an agent is stuck")
        return self.instance_from_schema((self._nop.name, agent))

    def constants(self) -> Tuple[str, ...]:
        if self._constants is None:
            consts = set(self.agents)
            for atom in self.statics.atoms:
                consts.update(atom[1:])
            for atom in self.initial_state:
                consts.update(atom[1:])
            for atom in self.dynamic_atoms:
                consts.update(atom[1:])
            self._constants = tuple(sorted(consts))
        return self._constants

    def ground_actions(self, agent: str) -> Tuple[ActionInstance, ...]:
        """All ground non-NOP instances for one agent whose static
        preconditions and constraints hold. Dynamic preconditions are not
        checked here; callers filter them against a full or partial state.
        Cached per scenario (the statics are immutable)."""
        cached = self._ground.get(agent)
        if cached is not None:
            return cached
        dynamic_preds = self.dynamic_predicates
        world = ClosedWorld(frozenset(), self.statics)
        out: List[ActionInstance] = []
        seen = set()
        for d in self.non_nop_descriptions():
            plan, free = self._groundings[d.name]
            names = tuple(plan.slots)
            for row in plan.rows(world, (agent,)):
                sigma = dict(zip(names, row))
                if any(eval_constraint(c, sigma) is False for c in d.constraints):
                    continue
                if len(free) > 4:
                    raise ScenarioError(
                        f"action {d.name} leaves too many parameters unconstrained by statics"
                    )
                for combo in product(self.constants(), repeat=len(free)):
                    full = dict(sigma)
                    full.update(zip(free, combo))
                    if free and any(
                        eval_constraint(c, full) is False for c in d.constraints
                    ):
                        continue
                    inst = ground_instance(d, full, dynamic_preds)
                    key = (inst.schema, inst.actor)
                    if key not in seen:
                        seen.add(key)
                        out.append(inst)
        result = self._ground[agent] = tuple(sorted(out, key=lambda a: a.schema))
        return result

    def preconditions(self, agent: str) -> Tuple[Tuple[Tuple[FrozenSet[Atom], FrozenSet[Atom]], ...], Tuple[int, ...]]:
        """The distinct preconditions of the agent's ground actions, each as
        the atoms it needs true and those it needs false, and the index among
        them of each action's, in ground order. Worked out once per scenario."""
        found = self._pres.get(agent)
        if found is None:
            index: Dict[FrozenSet[Literal], int] = {}
            pre_of = tuple(index.setdefault(a.pre, len(index)) for a in self.ground_actions(agent))
            pres = tuple(
                (frozenset(a for a, s in pre if s), frozenset(a for a, s in pre if not s)) for pre in index
            )
            found = self._pres[agent] = (pres, pre_of)
        return found

    def watched(self, schema: Atom) -> bool:
        """Does a camera pattern match the ground schema? Kept per schema."""
        seen = self._watched.get(schema)
        if seen is None:
            seen = self._watched[schema] = any(c.matches(schema) for c in self.cameras)
        return seen

    def coherent_actions(self, agent: str) -> Tuple[ActionInstance, ...]:
        """The ground actions of one agent whose preconditions and whose
        postconditions are each consistent on their own; no consistent
        partial state admits any other. Decided once per scenario."""
        cached = self._coherent.get(agent)
        if cached is None:
            cached = self._coherent[agent] = tuple(
                a
                for a in self.ground_actions(agent)
                if is_consistent(a.pre, self.rules) and is_consistent(a.post, self.rules)
            )
        return cached

    def action_bits(self, agent: str) -> ActionBits:
        """The agent's coherent actions as bits, with the masks of what each
        state literal rules out among them; built on first use and kept."""
        found = self._bits.get(agent)
        if found is None:
            found = self._bits[agent] = ActionBits(self.coherent_actions(agent), self.rules)
        return found

    @property
    def decomposable(self) -> bool:
        """Whether no two agents' actions can interact, so that every tuple
        of per-agent candidate actions is a joint solution. True iff each
        dynamic atom of a ground action's pre or post belongs to one agent's
        ground actions only, no ground action has a concurrency condition,
        and no integrity rule can match atoms of two different agents.
        Derived on first use and cached."""
        if self._decomposable is None:
            self._decomposable = self._derive_decomposable()
        return self._decomposable

    def _derive_decomposable(self) -> bool:
        owner: Dict[Atom, str] = {}
        owned: Set[Tuple[str, Literal]] = set()
        for agent in self.agents:
            for a in self.ground_actions(agent):
                if a.con:
                    return False
                for lit in a.pre | a.post:
                    if owner.setdefault(lit[0], agent) != agent:
                        return False
                    owned.add((agent, lit))
        return not any(_joins_two_agents(rule, owned) for rule in self.rules)

    def non_nop_descriptions(self) -> List[ActionDescription]:
        return [d for d in self.descriptions if not d.is_nop]

    def _check_arities(self) -> None:
        arity: Dict[str, int] = {}

        def visit(atom: Atom, where: str) -> None:
            seen = arity.setdefault(atom[0], len(atom) - 1)
            if seen != len(atom) - 1:
                raise ArityError(f"predicate {atom[0]} used with arity {len(atom) - 1} in {where}, expected {seen}")

        for a in self.statics.atoms:
            visit(a, "statics")
        for a in self.initial_state:
            visit(a, "initial state")
        for a in self.dynamic_atoms:
            visit(a, "dynamic atoms")
        for r in self.rules:
            for atom, _ in r.literals:
                visit(atom, "rule body")
        for d in self.descriptions:
            for atom, _ in d.pre + d.post:
                visit(atom, f"action {d.name}")
        for n in self.norms:
            for atom, _ in n.condition:
                visit(atom, f"norm {n.id}")


def _joins_two_agents(rule: IntegrityRule, owned: Set[Tuple[str, Literal]]) -> bool:
    """Can the rule body match literals of two different agents at once?
    Tried for every pair of body positions, in both agent orders; a
    constraint already false under the pair's bindings rules a match out."""
    for (first, first_sign), second in combinations(rule.literals, 2):
        probe = Probe(first, second, rule.constraints)
        for agent, (atom, sign) in owned:
            partner = probe.partner_for(atom) if sign == first_sign else None
            if partner is None:
                continue
            matcher, _, second_sign = partner
            if any(
                other != agent and other_sign == second_sign and matcher.matches(other_atom)
                for other, (other_atom, other_sign) in owned
            ):
                return True
    return False


def _unbound_negative(literals: Tuple[Literal, ...], bound: Set[str] = frozenset()) -> Optional[Literal]:
    """The first negative literal with a variable that neither ``bound`` nor
    a positive literal binds: a closed-world match cannot decide it."""
    bound = bound | {t for atom, positive in literals if positive for t in atom[1:]}
    for atom, positive in literals:
        if not positive and any(is_variable(t) and t not in bound for t in atom[1:]):
            return (atom, positive)
    return None


def _rule_text(rule: IntegrityRule) -> str:
    return ", ".join([literal_text(l) for l in rule.literals] + [constraint_text(c) for c in rule.constraints])


def scenario_from_dict(data: Dict) -> Scenario:
    from .norms import Norm  # local import to avoid a cycle

    error = _schema_error(data)
    if error is not None:
        raise ScenarioError(f"scenario does not fit the schema: {error}")
    repeated = sorted({g for g in data["agents"] if data["agents"].count(g) > 1})
    if repeated:
        raise ScenarioError(f"agent {repeated[0]!r} is listed more than once")
    statics = StaticFacts(parse_atom(t)[0] for t in data["statics"])
    rules = tuple(
        IntegrityRule(
            literals=tuple(parse_literal(t) for t in r["body"]),
            constraints=tuple(parse_constraint(t) for t in r.get("constraints", ())),
        )
        for r in data["rules"]
    )
    for rule in rules:
        unbound = _unbound_negative(rule.literals)
        if unbound is not None:
            raise ScenarioError(
                f"rule {_rule_text(rule)}: no positive literal binds every variable of "
                f"{literal_text(unbound)}, so a closed-world check cannot decide it"
            )
    descriptions = []
    for d in data["action_descriptions"]:
        con = tuple(
            SchemaRef(
                name=parse_atom(c["schema"])[0][0],
                params=parse_atom(c["schema"])[0][1:],
                positive=c.get("positive", True),
            )
            for c in d.get("con", ())
        )
        if d["actor"] not in d["params"]:
            raise ScenarioError(f"action {d['name']}: actor {d['actor']!r} is not one of its parameters")
        descriptions.append(
            ActionDescription(
                name=d["name"],
                params=tuple(d["params"]),
                pre=tuple(parse_literal(t) for t in d["pre"]),
                constraints=tuple(parse_constraint(t) for t in d.get("constraints", ())),
                con=con,
                post=tuple(parse_literal(t) for t in d["post"]),
                actor_param=d["actor"],
                is_nop=d.get("nop", False),
            )
        )
    norms = []
    for idx, n in enumerate(data["norms"]):
        action_atom, sign = parse_atom(n["action"])
        if not sign:
            raise ScenarioError(f"norm {n['id']}: controlled action must be a positive schema")
        condition = tuple(parse_literal(t) for t in n["condition"])
        unbound = _unbound_negative(condition)
        if unbound is not None:
            raise ScenarioError(
                f"norm {n['id']}: no positive literal of the condition binds every "
                f"variable of {literal_text(unbound)}, so the closed-world judge cannot decide it"
            )
        norms.append(
            Norm(
                id=n["id"],
                deontic=n["deontic"],
                condition=condition,
                constraints=tuple(parse_constraint(t) for t in n.get("constraints", ())),
                action=SchemaRef(action_atom[0], action_atom[1:]),
                priority=n.get("priority", idx),
            )
        )
    try:
        scenario = Scenario(
            name=data["name"],
            agents=tuple(data["agents"]),
            statics=statics,
            initial_state=frozenset(parse_atom(t)[0] for t in data["initial_state"]),
            rules=rules,
            descriptions=tuple(descriptions),
            norms=tuple(norms),
            observability=dict(data["observability"]),
            dynamic_atoms=tuple(parse_atom(t)[0] for t in data.get("dynamic_atoms", ())),
        )
    except ArityError as exc:
        raise ScenarioError(str(exc)) from None
    # A closed world reads a static fact as true whatever the state says, so
    # a post negating one would clash with its complement in the simulator
    # but not in the monitor's partial states.
    for atom in sorted(a for a in statics.atoms if a[0] in scenario.dynamic_predicates):
        raise ScenarioError(
            f"static fact {atom_text(atom)}: an action's post or the dynamic atoms name its predicate"
        )
    for d in scenario.non_nop_descriptions():
        unbound = _unbound_negative(d.split_pre(scenario.dynamic_predicates)[1], {d.actor_param})
        if unbound is not None:
            raise ScenarioError(
                f"action {d.name}: neither the actor nor a positive static precondition binds "
                f"every variable of {literal_text(unbound)}, so grounding cannot decide it"
            )
    for rule in scenario.rules.held_by_statics():
        raise ScenarioError(f"rule {_rule_text(rule)} holds on the static facts alone")
    # The literals a monitor with complete initial knowledge starts from,
    # added one at a time so that each check looks up a small addition.
    truths = scenario.initial_state
    initial = [(atom, True) for atom in truths]
    initial += [(atom, False) for atom in scenario.dynamic_atoms if atom not in truths]
    known = LiteralSet(scenario.rules)
    for literal in initial:
        if not consistent_with(known, [literal], scenario.rules):
            broken = next(r for r in scenario.rules if not is_consistent(initial, CompiledRules([r], statics)))
            raise ScenarioError(f"the initial state breaks the rule {_rule_text(broken)}")
        known.add(literal)
    refs = [(f"norm {n.id}", n.action.pattern()) for n in scenario.norms]
    refs += [(f"action {d.name}", ref.pattern()) for d in scenario.descriptions for ref in d.con]
    refs += [(f"camera {c}", parse_atom(c)[0]) for c in scenario.observability.get("cameras", ())]
    for where, pattern in refs:
        d = scenario._by_name.get(pattern[0])
        if d is None:
            raise ScenarioError(f"{where} refers to unknown action {pattern[0]!r}")
        if len(pattern) - 1 != len(d.params):
            raise ScenarioError(
                f"{where}: {atom_text(pattern)} does not fit the parameters of {d.name}"
            )
    return scenario


def scenario_to_dict(s: Scenario) -> Dict:
    return {
        "name": s.name,
        "agents": sorted(s.agents),
        "statics": sorted(atom_text(a) for a in s.statics.atoms),
        "initial_state": sorted(atom_text(a) for a in s.initial_state),
        "dynamic_atoms": sorted(atom_text(a) for a in s.dynamic_atoms),
        "rules": [
            {
                "body": [literal_text(l) for l in r.literals],
                "constraints": [constraint_text(c) for c in r.constraints],
            }
            for r in s.rules
        ],
        "action_descriptions": [
            {
                "name": d.name,
                "params": list(d.params),
                "actor": d.actor_param,
                "pre": [literal_text(l) for l in d.pre],
                "constraints": [constraint_text(c) for c in d.constraints],
                "con": [
                    {"schema": atom_text((r.name,) + r.params), "positive": r.positive}
                    for r in d.con
                ],
                "post": [literal_text(l) for l in d.post],
                "nop": d.is_nop,
            }
            for d in s.descriptions
        ],
        "norms": [
            {
                "id": n.id,
                "deontic": n.deontic,
                "condition": [literal_text(l) for l in n.condition],
                "constraints": [constraint_text(c) for c in n.constraints],
                "action": atom_text((n.action.name,) + n.action.params),
                "priority": n.priority,
            }
            for n in s.norms
        ],
        "observability": {k: list(v) if k == "cameras" else v for k, v in s.observability.items()},
    }


def dump_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def scenario_hash(s: Scenario) -> str:
    """The SHA-256 of the scenario's JSON form, worked out once and kept."""
    if s._hash is None:
        s._hash = hashlib.sha256(dump_scenario(s).encode()).hexdigest()
    return s._hash
