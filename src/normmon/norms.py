"""Conditional deontic norms, instances and verdict semantics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .actions import ActionInstance, SchemaRef
from .logic import (
    Atom,
    ClosedWorld,
    Constraint,
    Literal,
    LiteralSet,
    Matcher,
    OpenWorld,
    Plan,
    StaticFacts,
    atom_text,
    is_variable,
)

OBLIGATION = "O"
PROHIBITION = "P"

FULFILLED = "fulfilled"
VIOLATED = "violated"
UNKNOWN = "unknown"

IDENTIFIED = "identified"
DISCOVERED = "discovered"


@dataclass(frozen=True)
class Norm:
    id: str
    deontic: str  # OBLIGATION or PROHIBITION
    condition: Tuple[Literal, ...]
    constraints: Tuple[Constraint, ...]
    action: SchemaRef
    priority: int = 0  # declaration order by default; lower = more important
    # The instance of each (action, residuals) key, built on first match and
    # shared by every tick and state that match it again.
    instances: Dict[Tuple, "NormInstance"] = field(default_factory=dict, init=False, compare=False, repr=False)
    # The instance of each row of the condition's plan, None where a
    # constraint is false under it.
    by_row: Dict[Tuple[str, ...], Optional["NormInstance"]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    # For a condition of one literal with variables, the instance of each
    # ground literal, None where the literal does not match it or a
    # constraint is false under the match.
    by_literal: Dict[Literal, Optional["NormInstance"]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.deontic not in (OBLIGATION, PROHIBITION):
            raise ValueError(f"bad deontic modality {self.deontic!r}")

    @cached_property
    def plan(self) -> Plan:
        """The condition, compiled once."""
        return Plan(self.condition)

    @cached_property
    def _templates(self) -> Tuple[Tuple, Tuple, Tuple]:
        """The controlled action's arguments, the constraints that a match
        decides and those it leaves open, with each term a slot of the
        plan's rows or the term itself."""
        slots = self.plan.slots
        action = tuple(slots.get(p, p) for p in self.action.params)
        decided, open_ = [], []
        for left, rel, right in self.constraints:
            l, r = slots.get(left, left), slots.get(right, right)
            unbound = any(t.__class__ is str and is_variable(t) for t in (l, r))
            (open_ if unbound else decided).append((l, rel, r))
        return action, tuple(decided), tuple(open_)

    def instance_key(self, row: Sequence[str]) -> Optional[Tuple[Atom, Tuple[Constraint, ...]]]:
        """The controlled action and the residual constraints of a match of
        the condition, or None when a constraint is false under it."""
        action, decided, open_ = self._templates

        def value(x):
            return row[x] if x.__class__ is int else x

        for left, rel, right in decided:
            if (value(left) == value(right)) != (rel == "="):
                return None
        residual = tuple((value(left), rel, value(right)) for left, rel, right in open_)
        return (self.action.name, *map(value, action)), residual

    def instance(self, key: Tuple[Atom, Tuple[Constraint, ...]]) -> "NormInstance":
        """The norm's one instance for an :meth:`instance_key`."""
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = NormInstance(self, self.id, *key)
        return inst

    def row_instance(self, row: Tuple[str, ...]) -> Optional["NormInstance"]:
        """The instance of a match of the condition, or None when a
        constraint is false under it; worked out once per row."""
        try:
            return self.by_row[row]
        except KeyError:
            key = self.instance_key(row)
            inst = self.by_row[row] = None if key is None else self.instance(key)
            return inst

    @cached_property
    def literal(self) -> Optional[Tuple[Matcher, bool]]:
        """For a condition of one literal with variables, its atom compiled
        and its sign; None for any other condition. The condition's matches
        are then the atoms the world lists for the literal."""
        if len(self.condition) != 1 or self.plan.tests is not None:
            return None
        (atom, sign), = self.condition
        return Matcher(atom), sign

    def literal_instance(self, literal: Literal) -> Optional["NormInstance"]:
        """The instance of a ground literal under a one-literal condition
        (:attr:`literal`), or None when the literal does not match it or a
        constraint is false under the match; worked out once per literal."""
        try:
            return self.by_literal[literal]
        except KeyError:
            fits, atom = self.literal[0], literal[0]
            key = self.instance_key([atom[p] for p in fits.first.values()]) if fits.matches(atom) else None
            inst = self.by_literal[literal] = None if key is None else self.instance(key)
            return inst

    @cached_property
    def ground_instance(self) -> Optional["NormInstance"]:
        """For a condition without variables (``plan.tests``), its only
        instance, or None when a constraint is false on constants alone."""
        key = self.instance_key(())
        return None if key is None else self.instance(key)


@dataclass(frozen=True, slots=True)
class NormInstance:
    """A norm whose condition matched; carries the (partially) instantiated
    controlled action. Variables not bound by the condition stay free and
    are matched, with the residual constraints, against concrete actions
    when judging, through the compiled form built with the instance. The
    norm interns its instances (:meth:`Norm.instance`): every match with
    this action and these residuals, on any tick, returns this object, so
    it belongs to no tick itself."""

    norm: Norm = field(compare=False)
    norm_id: str
    action: Atom  # (name, *args), possibly with free variables
    constraints: Tuple[Constraint, ...] = ()  # residual, over free variables
    matcher: Matcher = field(init=False, compare=False, repr=False)
    # ground schema -> whether the matcher matches it, filled on first
    # judgement; bounded by the scenario's ground actions
    judged: Dict[Atom, bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matcher", Matcher(self.action, self.constraints))
        object.__setattr__(self, "judged", {})


def relevant_instances(
    norms: Sequence[Norm],
    state: LiteralSet,
    statics: StaticFacts,
) -> List[NormInstance]:
    """Instances whose condition is satisfied by an open-world partial state.

    Distinct substitutions mapping to the same ground action are merged.
    """
    return _instances(norms, OpenWorld(state, statics))


def relevant_instances_closed(
    norms: Sequence[Norm],
    state: Set[Atom],
    statics: StaticFacts,
) -> List[NormInstance]:
    """Closed-world counterpart, used by the omniscient judge."""
    return _instances(norms, ClosedWorld(state, statics))


def _instances(norms: Sequence[Norm], world: OpenWorld | ClosedWorld) -> List[NormInstance]:
    """The instances of each norm whose condition matches in the world. A
    constraint false under the match drops it; one left unbound stays on the
    instance as a residual. Matches giving one action and the same residuals
    make one instance, which the norm looks up by the match's row. A
    condition without variables is decided by one membership test per
    literal. A condition of one literal with variables skips the join: it
    looks up on the norm each atom the world lists for the literal (a
    partial state's decoded from its mask), in the join's order."""
    out: List[NormInstance] = []
    holds = world.holds
    for norm in norms:
        tests = norm.plan.tests
        if tests is not None:
            inst = norm.ground_instance
            if inst is not None:
                for atom, sign in tests:
                    if not holds(atom, sign):
                        break
                else:
                    out.append(inst)
            continue
        literal = norm.literal
        if literal is not None:
            fits, sign = literal
            found = dict.fromkeys(norm.literal_instance((atom, sign)) for atom in world.candidates(fits.name, sign))
        else:  # instances in the order of their first match
            found = dict.fromkeys(norm.row_instance(tuple(row)) for row in norm.plan.rows(world))
        found.pop(None, None)
        out.extend(found)
    return out


def instance_matches(inst: NormInstance, schema: Atom) -> bool:
    """Does the instance match the ground schema? Kept on the instance."""
    hit = inst.judged.get(schema)
    if hit is None:
        hit = inst.judged[schema] = inst.matcher.matches(schema)
    return hit


_schema = attrgetter("schema")


def judge(
    instances: Iterable[NormInstance], acts: Sequence[ActionInstance], agent_count: int
) -> List[Tuple[NormInstance, str, Optional[ActionInstance]]]:
    """The tick's definite judgements of the instances, in their order, as
    (instance, status, witness). An instance's witness is the action of
    least schema that matches it; one fulfils an obligation and violates a
    prohibition, and a complete joint action without one does the opposite.
    An instance is otherwise unknown and left out. The actions are grouped
    by name once, so an instance reads only its own action's group, and
    each match result is kept on the instance (:func:`instance_matches`)."""
    groups: Dict[str, List[ActionInstance]] = {}
    for a in sorted(acts, key=_schema):
        groups.setdefault(a.schema[0], []).append(a)
    complete = len(acts) == agent_count
    out = []
    for inst in instances:
        witness = next((a for a in groups.get(inst.matcher.name, ()) if instance_matches(inst, a.schema)), None)
        if witness is not None or complete:
            status = FULFILLED if (witness is not None) == (inst.norm.deontic == OBLIGATION) else VIOLATED
            out.append((inst, status, witness))
    return out


def matched_by(instances: Iterable[NormInstance], a: ActionInstance) -> bool:
    """Whether some instance matches the action."""
    return any(instance_matches(inst, a.schema) for inst in instances)


@dataclass(frozen=True)
class Verdict:
    instance: NormInstance
    status: str  # FULFILLED or VIOLATED (unknown instances yield no verdict)
    mode: str  # IDENTIFIED or DISCOVERED
    culprit: Optional[str] = None
    witness: Optional[ActionInstance] = None

    def __repr__(self) -> str:
        w = f" by {self.witness}" if self.witness else ""
        return f"<{self.mode} {self.status} {self.instance.norm_id}:{atom_text(self.instance.action)}{w}>"
