"""Conditional deontic norms, instances and verdict semantics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    # Compiled instance actions by (action, residuals), shared across ticks.
    matchers: Dict[Tuple, Matcher] = field(default_factory=dict, init=False, compare=False, repr=False)

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


@dataclass(frozen=True, slots=True)
class NormInstance:
    """A norm whose condition matched; carries the (partially) instantiated
    controlled action. Variables not bound by the condition stay free and
    are matched, with the residual constraints, against concrete actions
    when judging, through the compiled form that the norm keeps for every
    instance with this action and these residuals."""

    norm: Norm = field(compare=False)
    norm_id: str
    action: Atom  # (name, *args), possibly with free variables
    constraints: Tuple[Constraint, ...] = ()  # residual, over free variables
    born_at: int = field(default=-1, compare=False)
    matcher: Matcher = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        key = (self.action, self.constraints)
        matcher = self.norm.matchers.get(key)
        if matcher is None:
            matcher = self.norm.matchers[key] = Matcher(*key)
        object.__setattr__(self, "matcher", matcher)


def relevant_instances(
    norms: Sequence[Norm],
    state: LiteralSet,
    statics: StaticFacts,
    born_at: int = -1,
) -> List[NormInstance]:
    """Instances whose condition is satisfied by an open-world partial state.

    Distinct substitutions mapping to the same ground action are merged.
    """
    return _instances(norms, OpenWorld(state, statics), born_at)


def relevant_instances_closed(
    norms: Sequence[Norm],
    state: Set[Atom],
    statics: StaticFacts,
    born_at: int = -1,
) -> List[NormInstance]:
    """Closed-world counterpart, used by the omniscient judge."""
    return _instances(norms, ClosedWorld(state, statics), born_at)


def _instances(norms: Sequence[Norm], world: OpenWorld | ClosedWorld, born_at: int) -> List[NormInstance]:
    """The instances of each norm whose condition matches in the world. A
    constraint false under the match drops it; one left unbound stays on the
    instance as a residual. Matches giving one action and the same residuals
    make one instance."""
    out: List[NormInstance] = []
    for norm in norms:
        seen = set()
        for row in norm.plan.rows(world):
            key = norm.instance_key(row)
            if key is not None and key not in seen:
                seen.add(key)
                out.append(NormInstance(norm, norm.id, *key, born_at))
    return out


def instance_matches(inst: NormInstance, schema: Atom) -> bool:
    return inst.matcher.matches(schema)


def matching_actions(inst: NormInstance, acts: Iterable[ActionInstance]) -> List[ActionInstance]:
    return sorted((a for a in acts if inst.matcher.matches(a.schema)), key=lambda a: a.schema)


def judge(inst: NormInstance, acts: Sequence[ActionInstance], agent_count: int) -> str:
    """A matching action fulfils an obligation and violates a prohibition;
    a complete joint action without one does the opposite. Otherwise the
    instance stays unknown."""
    matched = any(inst.matcher.matches(a.schema) for a in acts)
    return status_of(inst, matched, len(acts) == agent_count)


def status_of(inst: NormInstance, matched: bool, complete: bool) -> str:
    """:func:`judge` for a tick whose actions are known to match the
    instance or not, and to be the complete joint action or not."""
    if not (matched or complete):
        return UNKNOWN
    return FULFILLED if matched == (inst.norm.deontic == OBLIGATION) else VIOLATED


def forbidden(prohibitions: Iterable[NormInstance], a: ActionInstance) -> bool:
    return any(p.matcher.matches(a.schema) for p in prohibitions)


def mandatory(obligations: Iterable[NormInstance], a: ActionInstance) -> bool:
    return any(o.matcher.matches(a.schema) for o in obligations)


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
