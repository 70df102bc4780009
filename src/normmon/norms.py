"""Conditional deontic norms, instances and verdict semantics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .actions import ActionInstance, SchemaRef
from .logic import (
    Atom,
    Constraint,
    Literal,
    LiteralSet,
    Lookup,
    Matcher,
    StaticFacts,
    atom_text,
    closed_world,
    join,
    open_world,
    residuals,
    subst_term,
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


@dataclass(frozen=True)
class NormInstance:
    """A norm whose condition matched; carries the (partially) instantiated
    controlled action. Variables not bound by the condition stay free and
    are matched, with the residual constraints, against concrete actions
    when judging."""

    norm: Norm = field(compare=False)
    norm_id: str
    action: Atom  # (name, *args), possibly with free variables
    constraints: Tuple[Constraint, ...] = ()  # residual, over free variables
    born_at: int = field(default=-1, compare=False)


def relevant_instances(
    norms: Sequence[Norm],
    state: LiteralSet,
    statics: StaticFacts,
    born_at: int = -1,
) -> List[NormInstance]:
    """Instances whose condition is satisfied by an open-world partial state.

    Distinct substitutions mapping to the same ground action are merged.
    """
    return _instances(norms, open_world(state, statics), born_at)


def relevant_instances_closed(
    norms: Sequence[Norm],
    state: Set[Atom],
    statics: StaticFacts,
    born_at: int = -1,
) -> List[NormInstance]:
    """Closed-world counterpart, used by the omniscient judge."""
    return _instances(norms, closed_world(state, statics), born_at)


def _instances(norms: Sequence[Norm], world: Lookup, born_at: int) -> List[NormInstance]:
    """The instances of each norm whose condition matches in the world. A
    constraint false under the match drops it; one left unbound stays on the
    instance as a residual. Matches giving one action and the same residuals
    make one instance."""
    out: List[NormInstance] = []
    for norm in norms:
        seen = set()
        for sigma in join(norm.condition, {}, world):
            residual = residuals(norm.constraints, sigma)
            if residual is not None:
                action = (norm.action.name,) + tuple(subst_term(sigma, p) for p in norm.action.params)
                key = (action, residual)
                if key not in seen:
                    seen.add(key)
                    out.append(NormInstance(norm, norm.id, action, residual, born_at))
    return out


def instance_matches(inst: NormInstance, schema: Atom) -> bool:
    if schema[0] != inst.action[0]:  # most schemas differ by name
        return False
    key = (inst.action, inst.constraints)
    matcher = inst.norm.matchers.get(key)
    if matcher is None:
        matcher = inst.norm.matchers[key] = Matcher(*key)
    return matcher.matches(schema)


def matching_actions(inst: NormInstance, acts: Iterable[ActionInstance]) -> List[ActionInstance]:
    return sorted(
        (a for a in acts if instance_matches(inst, a.schema)),
        key=lambda a: a.schema,
    )


def judge(inst: NormInstance, acts: Sequence[ActionInstance], agent_count: int) -> str:
    """A matching action fulfils an obligation and violates a prohibition;
    a complete joint action without one does the opposite. Otherwise the
    instance stays unknown."""
    if any(instance_matches(inst, a.schema) for a in acts):
        matched = True
    elif len(acts) == agent_count:
        matched = False
    else:
        return UNKNOWN
    return FULFILLED if matched == (inst.norm.deontic == OBLIGATION) else VIOLATED


def forbidden(prohibitions: Iterable[NormInstance], a: ActionInstance) -> bool:
    return any(instance_matches(p, a.schema) for p in prohibitions)


def mandatory(obligations: Iterable[NormInstance], a: ActionInstance) -> bool:
    return any(instance_matches(o, a.schema) for o in obligations)


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
