"""Ground first-order substrate.

Atoms are tuples ``(predicate, arg1, ..., argn)``. Constants and predicates
start with a lower-case letter, variables with an upper-case letter. A
literal is a pair ``(atom, sign)`` with ``sign`` True for positive literals.
Substitutions are plain dicts mapping variable names to constants.

Knowledge is membership based: a literal is entailed by a state iff it is
asserted in the state (positives may also come from the static facts).
Integrity rules are used only to reject inconsistent literal sets; no
forward chaining is performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

Atom = Tuple[str, ...]
Literal = Tuple[Atom, bool]
Constraint = Tuple[str, str, str]  # (left, "=" or "!=", right)
Substitution = Dict[str, str]


class ArityError(ValueError):
    """A predicate is used with inconsistent arities in one scenario."""


def is_variable(term: str) -> bool:
    return term[:1].isupper()


def subst_term(sigma: Substitution, term: str) -> str:
    if is_variable(term):
        return sigma.get(term, term)
    return term


def subst_atom(sigma: Substitution, atom: Atom) -> Atom:
    return (atom[0],) + tuple(subst_term(sigma, t) for t in atom[1:])


def subst_literal(sigma: Substitution, literal: Literal) -> Literal:
    return (subst_atom(sigma, literal[0]), literal[1])


def unify(pattern: Atom, ground: Atom, seed: Optional[Substitution] = None) -> Optional[Substitution]:
    """Match a (possibly variable-carrying) atom against a ground atom.

    Returns an extension of ``seed`` binding the pattern's variables, or
    None when no extension exists. Arity or predicate mismatch is failure,
    not an error.
    """
    if pattern[0] != ground[0] or len(pattern) != len(ground):
        return None
    sigma = dict(seed) if seed else {}
    for p, g in zip(pattern[1:], ground[1:]):
        if is_variable(p):
            bound = sigma.get(p)
            if bound is None:
                sigma[p] = g
            elif bound != g:
                return None
        elif p != g:
            return None
    return sigma


def eval_constraint(constraint: Constraint, sigma: Substitution) -> Optional[bool]:
    """Evaluate a constraint under sigma; None when a side is still unbound."""
    left, rel, right = constraint
    lv = subst_term(sigma, left)
    rv = subst_term(sigma, right)
    if is_variable(lv) or is_variable(rv):
        return None
    return (lv == rv) if rel == "=" else (lv != rv)


def residuals(constraints: Iterable[Constraint], sigma: Substitution) -> Optional[Tuple[Constraint, ...]]:
    """The constraints under sigma that still have an unbound side, in
    order, or None when one is false; the true ones are dropped."""
    out = []
    for left, rel, right in constraints:
        lv, rv = subst_term(sigma, left), subst_term(sigma, right)
        if is_variable(lv) or is_variable(rv):
            out.append((lv, rel, rv))
        elif (lv == rv) != (rel == "="):
            return None
    return tuple(out)


class Matcher:
    """A pattern compiled into a name, a length and checks (position, equal,
    position or constant): ``matches(g)`` is ``unify(pattern, g) is not
    None`` with no constraint false, without unifying. A constraint over a
    variable the pattern leaves unbound is never false, so it is dropped."""

    __slots__ = ("name", "length", "first", "checks")

    def __init__(self, pattern: Atom, constraints: Sequence[Constraint] = ()):
        self.name, self.length = pattern[0], len(pattern)
        first: Dict[str, int] = {}  # variable -> its first position
        self.first = first
        checks = []
        for p, term in enumerate(pattern[1:], 1):
            if is_variable(term) and term not in first:
                first[term] = p
            else:
                checks.append((p, True, first.get(term, term)))
        for left, rel, right in constraints:
            l, r = first.get(left, left), first.get(right, right)
            if l.__class__ is not int:
                l, r = r, l
            if l.__class__ is int:
                if r.__class__ is int or not is_variable(r):
                    checks.append((l, rel == "=", r))
            elif not (is_variable(l) or is_variable(r)) and (l == r) != (rel == "="):
                self.name = None  # false on constants alone: nothing matches
        self.checks = tuple(checks)

    def matches(self, ground: Atom) -> bool:
        if ground[0] != self.name or len(ground) != self.length:
            return False
        for p, equal, x in self.checks:
            if (ground[p] == (ground[x] if x.__class__ is int else x)) != equal:
                return False
        return True


@dataclass(frozen=True)
class IntegrityRule:
    """A rule body whose satisfaction entails falsum.

    Body literals match asserted literals (positives also match static
    facts); constraints must evaluate true under the matching substitution.
    """

    literals: Tuple[Literal, ...]
    constraints: Tuple[Constraint, ...] = ()

    def __post_init__(self):
        if not self.literals:
            raise ValueError("integrity rule body must be nonempty")


class StaticFacts:
    """Immutable set of ground atoms describing static properties."""

    __slots__ = ("atoms", "_by_pred")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: frozenset = frozenset(atoms)
        by_pred: Dict[str, List[Atom]] = {}
        for a in self.atoms:
            by_pred.setdefault(a[0], []).append(a)
        self._by_pred = {p: tuple(sorted(v)) for p, v in by_pred.items()}

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def with_pred(self, pred: str) -> Tuple[Atom, ...]:
        return self._by_pred.get(pred, ())

    def predicates(self) -> Set[str]:
        return set(self._by_pred)


class LiteralSet:
    """Mutable signed set of ground atoms with per-predicate indexes.

    Used for partial states and for the scratch sets built during search.
    Raises no errors on inconsistent content by itself; consistency is
    checked by the functions below.
    """

    __slots__ = ("signs", "_by_pred")

    def __init__(self, literals: Iterable[Literal] = ()):
        self.signs: Dict[Atom, bool] = {}
        self._by_pred: Dict[Tuple[str, bool], Set[Atom]] = {}
        for lit in literals:
            self.add(lit)

    def add(self, literal: Literal) -> bool:
        """Insert a literal; returns True if it was not present before."""
        atom, sign = literal
        prev = self.signs.get(atom)
        if prev == sign:
            return False
        # A complementary assertion is recorded as well; consistency checks
        # will catch the clash before the set is ever used this way.
        if prev is not None:
            self._by_pred[(atom[0], prev)].discard(atom)
        self.signs[atom] = sign
        self._by_pred.setdefault((atom[0], sign), set()).add(atom)
        return True

    def discard(self, atom: Atom) -> None:
        if atom in self.signs:
            self._by_pred[(atom[0], self.signs[atom])].discard(atom)
            del self.signs[atom]

    def sign(self, atom: Atom) -> Optional[bool]:
        return self.signs.get(atom)

    def with_pred(self, pred: str, sign: bool) -> Iterable[Atom]:
        return self._by_pred.get((pred, sign), ())

    def literals(self) -> Iterator[Literal]:
        return iter(self.signs.items())

    def snapshot(self) -> frozenset:
        return frozenset(self.signs.items())

    def copy(self) -> "LiteralSet":
        new = LiteralSet()
        new.signs = dict(self.signs)
        new._by_pred = {k: set(v) for k, v in self._by_pred.items()}
        return new

    def __contains__(self, literal: Literal) -> bool:
        return self.signs.get(literal[0]) == literal[1]

    def __len__(self) -> int:
        return len(self.signs)

    def assume(self, literals: Iterable[Literal]) -> List[Literal]:
        """Add literals, returning the ones actually added (for retraction)."""
        added = []
        for lit in literals:
            atom, sign = lit
            prev = self.signs.get(atom)
            if prev == sign:
                continue
            if prev is not None:
                # Caller must have checked consistency first; keep both is
                # impossible in a dict, so this is a hard error.
                raise ValueError(f"assume would flip asserted literal {atom}")
            self.add(lit)
            added.append(lit)
        return added

    def retract(self, added: List[Literal]) -> None:
        for atom, _sign in added:
            self.discard(atom)


class Plan:
    """A join over literals compiled into positional steps, once, for the
    variables a seed binds: positive literals first, then negative ones,
    each in the order given. A literal whose variables are all bound by then
    is one membership test in the world; any other takes the atoms the world
    lists for it, in that order, binding its new variables by position and
    checking its constants and bound variables. No step unifies. A match is
    a row: each variable's value at its slot (``slots``), the seed's first.
    A plan without variables has at most the empty row, which it yields
    when each of its literals holds: ``tests``, as (atom, sign) pairs, lets
    a caller decide that by lookups alone; it is None for any other plan.
    """

    __slots__ = ("slots", "steps", "tests")

    def __init__(self, literals: Sequence[Literal], bound: Sequence[str] = ()):
        slots: Dict[str, int] = {v: i for i, v in enumerate(bound)}
        steps = []
        for atom, sign in [l for l in literals if l[1]] + [l for l in literals if not l[1]]:
            terms = atom[1:]
            if all(t in slots or not is_variable(t) for t in terms):
                # (predicate, sign, None, each term's slot or constant)
                steps.append((atom[0], sign, None, tuple(slots.get(t, t) for t in terms)))
                continue
            binds, checks = [], []
            for p, term in enumerate(terms, 1):
                if is_variable(term) and term not in slots:
                    slots[term] = len(slots)
                    binds.append((p, slots[term]))
                else:  # a constant, or a variable bound before or at an earlier position
                    checks.append((p, slots.get(term, term)))
            steps.append((atom[0], sign, len(atom), (tuple(binds), tuple(checks))))
        self.slots = slots
        self.steps = tuple(steps)
        self.tests = None if slots else tuple(((pred, *how), sign) for pred, sign, _, how in steps)

    def rows(self, world: OpenWorld | ClosedWorld, seed: Sequence[str] = ()) -> Iterator[List[str]]:
        """Every match in the world that extends the seed's values, in the
        order of the steps and of the atoms the world lists. The row is one
        list, refilled for each match: read it before taking the next."""
        row: List = [*seed, *[None] * (len(self.slots) - len(seed))]
        return self._extend(0, row, world)

    def _extend(self, k: int, row: List, world) -> Iterator[List[str]]:
        if k == len(self.steps):
            yield row
            return
        pred, sign, length, how = self.steps[k]
        if length is None:
            atom = (pred, *[row[x] if x.__class__ is int else x for x in how])
            if world.holds(atom, sign):
                yield from self._extend(k + 1, row, world)
            return
        binds, checks = how
        for ground in world.candidates(pred, sign):
            if len(ground) != length:
                continue
            for p, s in binds:
                row[s] = ground[p]
            for p, x in checks:
                if ground[p] != (row[x] if x.__class__ is int else x):
                    break
            else:
                yield from self._extend(k + 1, row, world)


class OpenWorld:
    """A partial state plus the static facts: a positive literal matches an
    asserted positive or a static fact, even one the state asserts false; a
    negative one an asserted negative only (absence of knowledge is not
    falsity). A static fact the state asserts too is listed once."""

    __slots__ = ("state", "statics")

    def __init__(self, state: LiteralSet | _Union, statics: StaticFacts):
        self.state, self.statics = state, statics

    def candidates(self, pred: str, sign: bool) -> Iterable[Atom]:
        found = self.state.with_pred(pred, sign)
        more = self.statics.with_pred(pred) if sign else ()
        if more:
            signs = self.state.signs
            found = [*found, *(a for a in more if signs.get(a) is not True)] if found else more
        return found

    def holds(self, atom: Atom, sign: bool) -> bool:
        return self.state.signs.get(atom) == sign or (sign and atom in self.statics)


class ClosedWorld:
    """A full state, the set of true dynamic atoms, plus the static facts;
    every other atom is false. The state is indexed once, when its atoms are
    first listed; membership tests need no index. A negative literal can
    only be tested, so a plan must bind its variables first. It is its own
    ``signs``, so :meth:`CompiledRules.clashes` reads it as a state: ``get``
    is an atom's truth, and ``with_pred`` lists the state's true atoms."""

    __slots__ = ("state", "statics", "signs", "_by_pred")

    def __init__(self, state: Collection[Atom], statics: StaticFacts):
        self.state, self.statics, self.signs = state, statics, self
        self._by_pred: Optional[Dict[str, List[Atom]]] = None

    def with_pred(self, pred: str, sign: bool) -> Sequence[Atom]:
        if not sign:
            raise ValueError(f"negative {pred} literal not ground under closed-world match")
        by_pred = self._by_pred
        if by_pred is None:
            by_pred = self._by_pred = {}
            for a in self.state:
                by_pred.setdefault(a[0], []).append(a)
        return by_pred.get(pred, ())

    def candidates(self, pred: str, sign: bool) -> Iterable[Atom]:
        found, more = self.with_pred(pred, sign), self.statics.with_pred(pred)
        return [*found, *(a for a in more if a not in self.state)] if found else more

    def get(self, atom: Atom) -> bool:
        return atom in self.state or atom in self.statics

    def holds(self, atom: Atom, sign: bool) -> bool:
        return self.get(atom) == sign


class _Body:
    """Rule literals compiled to fire from a seed: the plan, and each
    constraint as (slot or constant, equal, slot or constant). A constraint
    with a side that neither the seed nor a literal binds is never true, so
    such a body never fires."""

    __slots__ = ("plan", "checks")

    def __init__(self, literals: Sequence[Literal], constraints: Sequence[Constraint], bound: Sequence[str] = ()):
        self.plan = Plan(literals, bound)
        slots = self.plan.slots
        unbound = [t for c in constraints for t in (c[0], c[2]) if is_variable(t) and t not in slots]
        self.checks = None if unbound else [(slots.get(l, l), rel == "=", slots.get(r, r)) for l, rel, r in constraints]

    def fires(self, world: OpenWorld | ClosedWorld, seed: Sequence[str] = ()) -> bool:
        if self.checks is None:
            return False

        def value(x):
            return row[x] if x.__class__ is int else x

        for row in self.plan.rows(world, seed):
            if all((value(l) == value(r)) == equal for l, equal, r in self.checks):
                return True
        return False


class Probe:
    """A body literal's pattern compiled so that a ground atom that fits it
    yields the other literal of a pair, its partner, without unification."""

    __slots__ = ("fits", "other", "constraints")

    def __init__(self, pattern: Atom, other: Literal, constraints: Sequence[Constraint]):
        self.fits = Matcher(pattern)
        self.other = other
        self.constraints = constraints

    def partner_for(self, atom: Atom) -> Optional[Tuple[Matcher, Atom, bool]]:
        """None if the atom does not fit the pattern or a constraint then
        fails, else the partner: its pattern under the atom's bindings,
        compiled with the constraints left over it, the pattern and its
        sign."""
        if not self.fits.matches(atom):
            return None
        sigma = {v: atom[p] for v, p in self.fits.first.items()}
        residual = residuals(self.constraints, sigma)
        if residual is None:
            return None
        pattern, sign = self.other
        pattern = subst_atom(sigma, pattern)
        return Matcher(pattern, residual), pattern, sign


class _Filled(dict):
    """A dict that fills a missing key with ``fill(key)`` on lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class CompiledRules(tuple):
    """Integrity rules compiled against one set of static facts; a scenario
    compiles its rules once.

    With at most two body literals per rule, consistency is pairwise: a
    consistent set stays consistent once literals are added exactly when no
    added literal meets its complement, fires a rule alone or with a static
    fact, or meets a partner literal, in the set or among the additions,
    that completes a rule. What an added ground literal needs for that is
    worked out on its first check and kept, so later checks are dict and set
    lookups against the set's per-predicate index. A rule with more body
    literals is compiled once per body position, as the rest of its body
    joined from a literal placed there (see :class:`Plan`).

    The clash relation is also kept as a literal index. Each ground literal
    gets a bit (``bits``) the first time it is looked up, and its clash
    neighbourhood (``near``) is an int: the bits of the literals seen so far
    that :meth:`clashes` returns for it, its own among them when it fires a
    rule alone. The relation is symmetric, so a new literal also sets its
    bit in the neighbourhoods of those it clashes with: a neighbourhood is
    complete over the literals seen, whichever came first. An action's
    postconditions, a frozenset, keep their :meth:`kill` mask (``kills``)
    until the index grows.
    """

    def __new__(cls, rules: Iterable[IntegrityRule], statics: StaticFacts):
        self = super().__new__(cls, rules)
        self.statics = statics
        # (predicate, sign) -> probes of the body positions it can take; a
        # rule of one body literal is read as that literal twice
        self._probes: Dict[Tuple[str, bool], List[Probe]] = {}
        # each rule of three or more body literals once per body position:
        # (sign, pattern of the body literal there, the rest of the body
        # joined from its bindings)
        self.joins: List[Tuple[bool, Matcher, _Body]] = []
        # ground literal -> what _needs_of works out, filled on first check
        self._needs: Dict[Literal, Tuple] = {}
        # the literal index; the literals seen, as one set per sign, since
        # both signs of an atom can turn up
        self.bits: Dict[Literal, int] = _Filled(self._register)
        self.near: Dict[Literal, int] = {}
        self._seen = (LiteralSet(), LiteralSet())
        # an action's post set -> its kill mask, until the index grows
        self.kills: Dict[FrozenSet[Literal], int] = _Filled(self.kill)
        for rule in self:
            literals = rule.literals
            if len(literals) > 2:
                for i, (pattern, sign) in enumerate(literals):
                    fits = Matcher(pattern)
                    rest = _Body(literals[:i] + literals[i + 1 :], rule.constraints, tuple(fits.first))
                    self.joins.append((sign, fits, rest))
                continue
            bound = {t for atom, _ in literals for t in atom[1:] if is_variable(t)}
            sides = {t for c in rule.constraints for t in (c[0], c[2]) if is_variable(t)}
            if not sides <= bound:
                continue  # a constraint over an unbound variable never holds
            for i, (pattern, sign) in enumerate(literals):
                probe = Probe(pattern, literals[-1 - i], rule.constraints)
                self._probes.setdefault((pattern[0], sign), []).append(probe)
        return self

    def held_by_statics(self) -> List[IntegrityRule]:
        """Rules whose bodies the static facts alone satisfy. No set of
        literals is consistent with such a rule, and the incremental check,
        which looks only at matches that use an added literal, cannot see
        it, so scenarios reject these rules."""
        world = OpenWorld(LiteralSet(), self.statics)
        return [rule for rule in self if _Body(rule.literals, rule.constraints).fires(world)]

    def clashes(self, literal: Literal, state: LiteralSet | _Union | ClosedWorld) -> List[Literal]:
        """The literals of ``state`` that clash with a ground literal: its
        complement, and each partner that completes a rule with it; a literal
        that fires a rule on its own also clashes with itself. With pairwise
        rules a literal is consistent with a consistent set exactly when it
        clashes with none of its literals."""
        fires, ground, open_ = self._needs_for(literal)
        atom, sign = literal
        signs = state.signs
        found = [literal] if fires else []
        if signs.get(atom) == (not sign):
            found.append((atom, not sign))
        for partner in ground:
            if signs.get(partner[0]) == partner[1]:
                found.append(partner)
        for matcher, partner_sign, verdicts in open_:
            for other in state.with_pred(matcher.name, partner_sign):
                hit = verdicts.get(other)
                if hit is None:
                    hit = verdicts[other] = matcher.matches(other)
                if hit:
                    found.append((other, partner_sign))
        return found

    def _needs_for(self, literal: Literal):
        needs = self._needs.get(literal)
        if needs is None:
            needs = self._needs[literal] = self._needs_of(literal)
        return needs

    def _needs_of(self, literal: Literal):
        """Whether the ground literal fires a rule on its own (alone, with
        itself in both body positions, or with a static fact), its ground
        partners, and its open partners, each with its verdict per atom."""
        atom, sign = literal
        fires = False
        ground: Set[Literal] = set()
        open_: Dict[Tuple, Tuple[Matcher, bool, Dict[Atom, bool]]] = {}
        for probe in self._probes.get((atom[0], sign), ()):
            partner = probe.partner_for(atom)
            if partner is None:
                continue
            matcher, pattern, partner_sign = partner
            if partner_sign == sign and matcher.matches(atom):
                fires = True
            if partner_sign and any(map(matcher.matches, self.statics.with_pred(matcher.name))):
                fires = True
            if not matcher.first:
                ground.add((pattern, partner_sign))
            else:  # one per compiled form: the probes of a symmetric rule agree
                key = (matcher.name, matcher.length, matcher.checks, partner_sign)
                open_.setdefault(key, (matcher, partner_sign, {}))
        return fires, tuple(ground), tuple(open_.values())

    def _register(self, literal: Literal) -> int:
        """The bit of a literal seen for the first time; its neighbourhood
        and those of the literals it clashes with are filled in."""
        bit = 1 << len(self.bits)
        near = self.near
        hood = 0
        for seen in self._seen:
            for other in self.clashes(literal, seen):
                if other == literal:  # it fires a rule alone
                    hood |= bit
                else:
                    hood |= self.bits[other]
                    near[other] |= bit
        near[literal] = hood
        self._seen[literal[1]].add(literal)
        self.kills.clear()
        return bit

    def masks(self, literals: Iterable[Literal]) -> Tuple[int, int]:
        """The bits of some literals and the OR of their neighbourhoods.
        What a neighbourhood says about a literal is complete only once that
        literal is seen, so look up the literals to be judged first."""
        bits, near = self.bits, self.near
        mine = hood = 0
        for literal in literals:
            mine |= bits[literal]
            hood |= near[literal]
        return mine, hood

    def kill(self, literals: Iterable[Literal]) -> int:
        """The literals seen that clash with one of ``literals`` without
        being one, as bits."""
        mine, hood = self.masks(literals)
        return hood & ~mine

    def breaks(
        self, literal: Literal, state: _Union | ClosedWorld, world: Optional[OpenWorld | ClosedWorld]
    ) -> bool:
        """Does the ground literal clash with ``state`` (see :meth:`clashes`),
        or does the rest of a body of three or more literals hold in
        ``world``, the same set read for a join (needed only when there are
        such rules), with the literal placed at one of its positions? A body
        that does not hold in a consistent set can only hold once literals
        are added through an added one."""
        if self.clashes(literal, state):
            return True
        if not self.joins:
            return False
        atom, sign = literal
        return any(
            s == sign and fits.matches(atom) and rest.fires(world, [atom[p] for p in fits.first.values()])
            for s, fits, rest in self.joins
        )

    def admits(self, base: LiteralSet, added: Dict[Atom, bool]) -> bool:
        """Does ``base`` (assumed consistent) stay consistent with ``added``,
        literals that neither contradict nor repeat it nor each other?"""
        union = _Union(base, added)
        world = OpenWorld(union, self.statics) if self.joins else None
        for literal in added.items():
            if self.breaks(literal, union, world):
                return False
        return True


class _Union:
    """A consistent set and literals about to be added to it, read as one
    set by :meth:`CompiledRules.clashes` and :class:`OpenWorld` without
    building an index. It is its own ``signs``: ``get`` looks an atom up in
    the additions, then in the set."""

    __slots__ = ("state", "added", "signs")

    def __init__(self, state: LiteralSet, added: Dict[Atom, bool]):
        self.state, self.added, self.signs = state, added, self

    def get(self, atom: Atom) -> Optional[bool]:
        sign = self.added.get(atom)
        return self.state.signs.get(atom) if sign is None else sign

    def with_pred(self, pred: str, sign: bool) -> List[Atom]:
        found = [a for a, s in self.added.items() if s == sign and a[0] == pred]
        found.extend(self.state.with_pred(pred, sign))
        return found


def is_consistent(
    literals: Iterable[Literal],
    statics: StaticFacts,
    rules: Sequence[IntegrityRule],
) -> bool:
    """False iff the set has a complementary pair or some rule body fires
    on it. The same check as :func:`consistent_with` from an empty state."""
    return consistent_with(LiteralSet(), literals, statics, rules)


def consistent_with(
    base: LiteralSet,
    additions: Iterable[Literal],
    statics: StaticFacts,
    rules: Sequence[IntegrityRule],
) -> bool:
    """Incremental check: is ``base`` (assumed consistent) still consistent
    once ``additions`` are asserted? Only interactions involving the added
    literals are checked. Rules compiled against ``statics``, as a
    scenario's are, are used as they are; others are compiled for the call."""
    known = base.signs
    added: Dict[Atom, bool] = {}
    for atom, sign in additions:
        prev = known.get(atom)
        if prev is None:
            if added.setdefault(atom, sign) != sign:
                return False
        elif prev != sign:
            return False
    if not added or not rules:
        return True
    return _compiled(rules, statics).admits(base, added)


def _compiled(rules: Sequence[IntegrityRule], statics: StaticFacts) -> CompiledRules:
    """Rules compiled against ``statics``, as a scenario's are, as they are;
    others compiled for the call."""
    if isinstance(rules, CompiledRules) and rules.statics is statics:
        return rules
    return CompiledRules(rules, statics)


def fired_through(
    state: Collection[Atom],
    literals: Iterable[Literal],
    statics: StaticFacts,
    rules: Sequence[IntegrityRule],
) -> Set[Literal]:
    """The ground literals, of a changed full state, through which it breaks
    an integrity rule: each that :meth:`CompiledRules.breaks` in the state
    read as a :class:`ClosedWorld`. A literal whose complement holds there
    counts too. Where no literal negates a static fact, as in a scenario,
    that happens only when two of the literals contradict each other."""
    if not rules:
        return set()
    rules = _compiled(rules, statics)
    world = ClosedWorld(state, statics)
    return {literal for literal in literals if rules.breaks(literal, world, world)}


def survivors(
    state: LiteralSet,
    base: Collection[Literal],
    post_sets: Iterable[Collection[Literal]],
    statics: StaticFacts,
    rules: Sequence[IntegrityRule],
) -> List[Literal]:
    """The literals of ``state`` (assumed consistent) each consistent with
    ``base`` plus every one of ``post_sets`` in turn, or with ``base`` alone
    when there are none, in the sense of :func:`consistent_with`: only rule
    matches that use the literal count. Kept in the order of ``state``.

    Unless a rule has three or more body literals, a literal survives
    exactly when ``base`` asserts it, or it clashes with no literal of
    ``base`` and with no literal of each post set that does not assert it (a
    set is only checked against the literals it adds); without rules a
    clash is a complement. So the check reads the rules' literal index (see
    :class:`CompiledRules`): a post set P kills the state literals in its
    neighbourhood less its own bits. An action's postconditions, a
    frozenset, keep that mask; any other set is looked up literal by
    literal. Otherwise each literal of ``state`` is checked with
    :func:`consistent_with`."""
    rules = _compiled(rules, statics)
    if not rules.joins:
        literals = list(state.signs.items())
        if not literals:
            return literals
        # the state's literals are seen before any neighbourhood is read
        bits = list(map(rules.bits.__getitem__, literals))
        asserted, killed = rules.masks(base)
        kills = rules.kills
        for post in post_sets:
            killed |= kills[post] if post.__class__ is frozenset else rules.kill(post)
        killed &= ~asserted
        return [l for l, bit in zip(literals, bits) if not bit & killed]
    known = LiteralSet(base)
    kept = [l for l in state.literals() if consistent_with(known, [l], statics, rules)]
    for post in post_sets:
        if not kept:
            break
        extra = known.assume(post)
        kept = [l for l in kept if consistent_with(known, [l], statics, rules)]
        known.retract(extra)
    return kept


def atom_text(atom: Atom) -> str:
    return atom[0] if len(atom) == 1 else f"{atom[0]}({','.join(atom[1:])})"


def literal_text(literal: Literal) -> str:
    atom, sign = literal
    return atom_text(atom) if sign else "-" + atom_text(atom)
