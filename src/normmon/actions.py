"""Action descriptions, grounding, concurrency checks and effects."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from .logic import (
    Atom,
    CompiledRules,
    Constraint,
    Literal,
    LiteralSet,
    Matcher,
    Substitution,
    consistent_with,
    fired_through,
    is_variable,
    subst_literal,
    subst_term,
)


@dataclass(frozen=True)
class SchemaRef:
    """Reference to an action schema inside concurrent conditions and norms.

    Positive references are existential requirements (some concurrent action
    must instantiate the schema); negative references are universal
    exclusions.
    """

    name: str
    params: Tuple[str, ...]
    positive: bool = True

    @cached_property
    def matcher(self) -> Matcher:  # compiled on first use; not a field
        return Matcher(self.pattern())

    def pattern(self) -> Atom:
        return (self.name,) + self.params

    def substitute(self, sigma: Substitution) -> "SchemaRef":
        return SchemaRef(
            self.name, tuple(subst_term(sigma, p) for p in self.params), self.positive
        )


@dataclass(frozen=True)
class ActionDescription:
    name: str
    params: Tuple[str, ...]
    pre: Tuple[Literal, ...]
    constraints: Tuple[Constraint, ...]
    con: Tuple[SchemaRef, ...]
    post: Tuple[Literal, ...]
    actor_param: str
    is_nop: bool = False

    def __post_init__(self):
        if self.actor_param not in self.params:
            raise ValueError(f"actor param {self.actor_param} not in params of {self.name}")

    def split_pre(self, dynamic_preds: FrozenSet[str]) -> Tuple[Tuple[Literal, ...], Tuple[Literal, ...]]:
        dynamic = tuple(l for l in self.pre if l[0][0] in dynamic_preds)
        static = tuple(l for l in self.pre if l[0][0] not in dynamic_preds)
        return dynamic, static


@dataclass(frozen=True)
class ActionInstance:
    """A ground action. Identity is the ground schema plus the actor; the
    precondition carries dynamic properties only."""

    name: str
    args: Tuple[str, ...]
    actor: str
    pre: FrozenSet[Literal] = field(compare=False)
    con: Tuple[SchemaRef, ...] = field(compare=False)
    post: FrozenSet[Literal] = field(compare=False)
    # The ground schema, name then arguments; built once, at grounding.
    schema: Atom = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", (self.name,) + self.args)

    def __repr__(self) -> str:
        return f"{self.name}({','.join(self.args)})"


def ground_instance(
    d: ActionDescription, sigma: Substitution, dynamic_preds: FrozenSet[str]
) -> ActionInstance:
    args = tuple(subst_term(sigma, p) for p in d.params)
    if any(is_variable(a) for a in args):
        raise ValueError(f"binding does not cover all params of {d.name}: {sigma}")
    dyn_pre, _ = d.split_pre(dynamic_preds)
    pre = frozenset(subst_literal(sigma, l) for l in dyn_pre)
    post = frozenset(subst_literal(sigma, l) for l in d.post)
    con = tuple(ref.substitute(sigma) for ref in d.con)
    return ActionInstance(d.name, args, subst_term(sigma, d.actor_param), pre, con, post)


def joint_pre(actions: Iterable[ActionInstance]) -> Set[Literal]:
    out: Set[Literal] = set()
    for a in actions:
        out.update(a.pre)
    return out


def joint_post(actions: Iterable[ActionInstance]) -> Set[Literal]:
    out: Set[Literal] = set()
    for a in actions:
        out.update(a.post)
    return out


def concurrent_condition_satisfied(a: ActionInstance, actions: Sequence[ActionInstance]) -> bool:
    """Positive schema refs need a witness among the *other* actions;
    negative refs exclude matches among the others (an action does not
    clash with its own negative schemata)."""
    for ref in a.con:
        matches = ref.matcher.matches
        if any(other is not a and matches(other.schema) for other in actions) != ref.positive:
            return False
    return True


def effects(actions: Sequence[ActionInstance], rules: CompiledRules) -> Set[Literal]:
    """Postconditions plus the preconditions they do not invalidate."""
    posts = joint_post(actions)
    post_set = LiteralSet(rules, posts)
    out = set(posts)
    for lit in joint_pre(actions):
        if lit in out:
            continue
        if consistent_with(post_set, [lit], rules):
            out.add(lit)
    return out


def joint_successor(
    actions: Sequence[ActionInstance], state: Set[Atom], rules: CompiledRules
) -> Tuple[Optional[Set[Atom]], Set[str]]:
    """The closed-world successor of a full state under a joint action, or
    None if some actor breaks it, and those actors: each with an unmet
    concurrency condition, a post that another post contradicts, or a post
    through which the successor breaks an integrity rule."""
    posts = joint_post(actions)
    broken = {(atom, sign) for atom, sign in posts if (atom, not sign) in posts}
    offenders = {a.actor for a in actions if a.con and not concurrent_condition_satisfied(a, actions)}
    new = None
    if rules or not (broken or offenders):  # the rule check reads the successor
        new = set(state)
        # Element by element, removals first: the iteration order of a set,
        # which the judge's output follows, depends on how it was built.
        for atom, sign in sorted(posts, key=itemgetter(1)):
            (new.add if sign else new.discard)(atom)
        broken |= fired_through(new, posts, rules)
    offenders.update(a.actor for a in actions if not broken.isdisjoint(a.post))
    return (None if offenders else new), offenders

