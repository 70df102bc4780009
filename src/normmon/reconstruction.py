"""Reconstruction of unobserved actions.

Both routes fold the observed actions into a partial initial state ``i``
and a partial final state ``f`` and build one per-agent candidate table,
the fixpoint of :func:`approximate_search`: its commits are the actions
the monitor can be certain about, and each candidate's postconditions are
one post set of the possible completions. On a scenario that is not
decomposable the exhaustive route enumerates the joint completions with
:func:`search`, which branches over the rows the table leaves open and
checks only concurrency conditions at a leaf. Two commits that contradict
each other raise :class:`KnowledgeFault` in every route. Every route ends
in one shared tail that updates ``i`` and ``f`` in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .actions import (
    ActionInstance,
    concurrent_condition_satisfied,
    effects,
    joint_post,
    joint_pre,
)
from .logic import Literal, LiteralSet, consistent_with, survivors
from .norms import (
    FULFILLED,
    NormInstance,
    OBLIGATION,
    PROHIBITION,
    VIOLATED,
    instance_matches,
    matched_by,
    relevant_instances,
)
from .scenario import ActionBits, Scenario

DEFAULT_SOLUTION_CAP = 1_000_000


class KnowledgeFault(RuntimeError):
    """Sound knowledge turned out inconsistent; the world model is broken."""


@dataclass
class ReconstructionOutcome:
    reconstructed: Tuple[ActionInstance, ...]
    discovered: Tuple[ActionInstance, ...]
    # Aligned with `discovered`: the status each representative was
    # discovered under. A representative may also match instances of the
    # opposite modality, which must not yield verdicts.
    discovered_statuses: Tuple[str, ...] = ()
    solution_count: Optional[int] = None
    candidate_counts: Dict[str, int] = field(default_factory=dict)
    cap_hit: bool = False
    no_completion: bool = False  # empty solution set / empty candidate row
    # The norm instances relevant in the updated initial state, when the
    # route computed them (the approximate one does), for the norm check.
    instances: Optional[Tuple[NormInstance, ...]] = None


def action_fits(
    a: ActionInstance, i: LiteralSet, f: LiteralSet, scenario: Scenario
) -> bool:
    """Per-action consistency: preconditions against the initial partial
    state, postconditions against the final one."""
    return consistent_with(i, a.pre, scenario.statics, scenario.rules) and consistent_with(
        f, a.post, scenario.statics, scenario.rules
    )


def candidate_actions(
    scenario: Scenario, agent: str, i: LiteralSet, f: LiteralSet
) -> List[ActionInstance]:
    """All ground non-NOP actions of one agent consistent with (i, f)."""
    bits = scenario.action_bits(agent)
    return bits.members(_row(scenario, bits, i, f, bits.full))


def _row(scenario: Scenario, bits: ActionBits, i: LiteralSet, f: LiteralSet, row: int) -> int:
    """The actions of a row, as bits of the agent's coherent actions
    (``Scenario.action_bits``), that fit (i, f): those that no literal of i
    or f rules out, checked one by one with ``action_fits`` only where a
    rule has three or more body literals."""
    row &= ~bits.ruled_out(i, f)
    if scenario.rules.joins:
        for bit, a in zip(bits.bits, bits.actions):
            if row & bit and not action_fits(a, i, f, scenario):
                row ^= bit
    return row


def _assume_checked(
    scenario: Scenario,
    state: LiteralSet,
    literals: Iterable[Literal],
    where: str,
    what: str,
    subject: Optional[ActionInstance] = None,
) -> None:
    """Extend a sound state, which must stay consistent. The fault message
    is formatted only when raised: this runs on every reconstructing tick."""
    if not consistent_with(state, literals, scenario.statics, scenario.rules):
        what = what if subject is None else f"{what} {subject}"
        raise KnowledgeFault(f"{where} state contradicted by {what}")
    state.assume(literals)


def _assume_action(
    scenario: Scenario, i: LiteralSet, f: LiteralSet, a: ActionInstance, what: str
) -> None:
    """An action known to have run: its preconditions hold in i, its
    postconditions in f."""
    _assume_checked(scenario, i, a.pre, "initial", what, a)
    _assume_checked(scenario, f, a.post, "final", what, a)


def _fold_observed(
    scenario: Scenario, i: LiteralSet, f: LiteralSet, observed: Sequence[ActionInstance]
) -> None:
    """Preconditions of observed actions hold in i, postconditions in f.

    The monitor's state update already guarantees this; standalone callers
    get the same guarantee here.
    """
    for a in observed:
        _assume_action(scenario, i, f, a, "observed action")


def search(
    scenario: Scenario,
    i: LiteralSet,
    f: LiteralSet,
    observed: Sequence[ActionInstance],
    targets: Iterable[str],
    cap: int = DEFAULT_SOLUTION_CAP,
) -> Tuple[List[Tuple[ActionInstance, ...]], bool]:
    """Enumerate all joint completions of the target agents' actions.

    On copies of i and f with the observed actions folded in, branch over
    every candidate of the rows that :func:`approximate_search` leaves
    open, extending i with each chosen action's preconditions and f with
    its postconditions, so along a path the joint pre and post stay
    consistent. A leaf checks only the concurrency conditions, and only
    when some action at hand has any. Each completion is a tuple over all
    targets, commits included. Returns (solutions, cap_hit).
    """
    targets = sorted(targets)
    if not targets:
        return [], False
    i, f = i.copy(), f.copy()
    _fold_observed(scenario, i, f, observed)
    table, committed = approximate_search(scenario, i, f, targets)
    if not all(table.values()):
        return [], False
    chosen = {t: table[t][0] for t in committed}
    open_rows = [(t, table[t]) for t in targets if t not in chosen]
    conditioned = any(a.con for row in [observed, *table.values()] for a in row)
    solutions: List[Tuple[ActionInstance, ...]] = []
    cap_hit = False

    def rec(idx: int) -> None:
        nonlocal cap_hit
        if cap_hit:
            return
        if idx == len(open_rows):
            if conditioned:
                joint = [*observed, *chosen.values()]
                if not all(concurrent_condition_satisfied(a, joint) for a in joint if a.con):
                    return
            solutions.append(tuple(chosen[t] for t in targets))
            if len(solutions) >= cap:
                cap_hit = True
            return
        t, row = open_rows[idx]
        for a in row:
            # The rows fit the states the fixpoint left; the states only
            # grow along a path, so an action is checked again here.
            if not action_fits(a, i, f, scenario):
                continue
            added_i = i.assume(a.pre)
            added_f = f.assume(a.post)
            chosen[t] = a
            rec(idx + 1)
            i.retract(added_i)
            f.retract(added_f)

    rec(0)
    return solutions, cap_hit


def _extended_invariants(
    scenario: Scenario,
    i: LiteralSet,
    acts: Sequence[ActionInstance],
    post_sets: Iterable[Iterable[Literal]],
) -> List[Literal]:
    """Literals of i that neither the known actions nor any possible
    completion can have changed: each consistent with the known
    postconditions plus every one of the post sets in turn."""
    return survivors(i, joint_post(acts), post_sets, scenario.statics, scenario.rules)


def _commit(
    scenario: Scenario,
    i: LiteralSet,
    f: LiteralSet,
    acts: Sequence[ActionInstance],
    reconstructed: Sequence[ActionInstance],
    post_sets: Optional[Iterable[Iterable[Literal]]],
) -> List[ActionInstance]:
    """The tail every route shares, given R and the post sets of the possible
    completions, or None if there is none: the states then keep what the
    fold and the table's commits put there. Otherwise R's preconditions
    hold in i. While some agent is still unaccounted for, f gains R's
    postconditions and the extended invariants, sound since the executed
    completion is among them. Once the whole concurrent action is known, f
    is the invariant part of i plus the joint effects. Returns the known
    actions, observed plus R."""
    acts = sorted(set(acts) | set(reconstructed), key=lambda a: a.schema)
    if post_sets is None:
        return acts
    pre, post = joint_pre(reconstructed), joint_post(reconstructed)
    _assume_checked(scenario, i, pre, "initial", "reconstructed preconditions")
    if len(acts) < len(scenario.agents):
        extended = _extended_invariants(scenario, i, acts, post_sets)
        _assume_checked(scenario, f, post, "final", "reconstructed postconditions")
        f.assume(extended)
    else:
        eff = effects(acts, scenario.statics, scenario.rules)
        f.assume(survivors(i, eff, (), scenario.statics, scenario.rules))
        _assume_checked(scenario, f, eff, "final", "joint effects")
    return acts


def full_reconstruct(
    scenario: Scenario,
    i: LiteralSet,
    f: LiteralSet,
    observed: Sequence[ActionInstance],
    targets: Iterable[str],
    cap: int = DEFAULT_SOLUTION_CAP,
) -> Tuple[ReconstructionOutcome, List[ActionInstance]]:
    """Exhaustive reconstruction. Returns the outcome and the updated
    observed-action list (observed plus committed reconstructions).

    Unless the scenario is decomposable, R is the intersection of the
    completions that ``search`` enumerates, with one joint post set each;
    with none, or when the observed actors and targets do not cover the
    agents exactly, the states keep the fold and the fixpoint's commits,
    which are R. On a decomposable scenario every tuple of candidates is a
    completion, so the table gives the same R and post sets, one per
    candidate, without enumerating. The cap bounds the enumeration only:
    when ``search`` stops at it, the route takes the table too.
    """
    targets = sorted(targets)
    acts = sorted(observed, key=lambda a: a.schema)
    _fold_observed(scenario, i, f, acts)
    cap_hit = False
    if not scenario.decomposable:
        covered = sorted([a.actor for a in acts] + targets) == sorted(scenario.agents)
        solutions, cap_hit = search(scenario, i, f, acts, targets, cap=cap) if covered else ([], False)
        if not cap_hit:
            if solutions:
                reconstructed = set(solutions[0]).intersection(*solutions[1:])
                post_sets = map(joint_post, solutions)
            else:  # the states keep the fold and the fixpoint's commits
                table, committed = approximate_search(scenario, i, f, targets)
                reconstructed, post_sets = [table[t][0] for t in committed], None
            reconstructed = tuple(sorted(reconstructed, key=lambda a: a.schema))
            acts = _commit(scenario, i, f, acts, reconstructed, post_sets)
            outcome = ReconstructionOutcome(
                reconstructed, (), solution_count=len(solutions), no_completion=not solutions
            )
            return outcome, acts
    outcome, table, acts = _table_route(scenario, i, f, acts, targets)
    outcome.cap_hit = cap_hit
    outcome.solution_count = cap if cap_hit else min(math.prod(map(len, table.values())), cap)
    return outcome, acts


def approximate_search(
    scenario: Scenario,
    i: LiteralSet,
    f: LiteralSet,
    targets: Iterable[str],
) -> Tuple[Dict[str, List[ActionInstance]], List[str]]:
    """Per-agent candidate tables, iterated to a fixpoint.

    A singleton candidate row commits immediately: its pre/post extend i
    and f, the agent leaves the target set, and every remaining row is
    filtered again, possibly cascading further commitments. The states only
    grow, so an action that did not fit before does not fit now: a row is
    refiltered as bits (``Scenario.action_bits``), losing what the grown
    states rule out, not built again. On a decomposable scenario a commit
    touches only the committing agent's atoms, so no other row can shrink
    and the first round of commits is the fixpoint. Mutates i and f.
    Returns (table, committed agents in commit order).
    """
    remaining = sorted(targets)
    table = {t: candidate_actions(scenario, t, i, f) for t in remaining}
    committed: List[str] = []
    while True:
        singles = [t for t in remaining if len(table[t]) == 1]
        if not singles:
            break
        for t in singles:
            _assume_action(scenario, i, f, table[t][0], "committed action")
            remaining.remove(t)
            committed.append(t)
        if scenario.decomposable:
            break
        for t in remaining:
            bits = scenario.action_bits(t)
            table[t] = bits.members(_row(scenario, bits, i, f, bits.mask(table[t])))
    return table, committed


def _table_route(
    scenario: Scenario,
    i: LiteralSet,
    f: LiteralSet,
    acts: Sequence[ActionInstance],
    targets: Iterable[str],
) -> Tuple[ReconstructionOutcome, Dict[str, List[ActionInstance]], List[ActionInstance]]:
    """The fixpoint table, then the shared tail: R is the commits, each
    candidate's postconditions are one post set, and an empty row means no
    completion. Returns the outcome, the table and the known actions."""
    table, committed = approximate_search(scenario, i, f, targets)
    reconstructed = tuple(sorted((table[t][0] for t in committed), key=lambda a: a.schema))
    no_completion = not all(table.values())
    post_sets = None if no_completion else (a.post for row in table.values() for a in row)
    acts = _commit(scenario, i, f, acts, reconstructed, post_sets)
    counts = {t: len(row) for t, row in table.items()}
    outcome = ReconstructionOutcome(
        reconstructed, (), candidate_counts=counts, no_completion=no_completion
    )
    return outcome, table, acts


def approximate_reconstruct(
    scenario: Scenario,
    i: LiteralSet,
    f: LiteralSet,
    observed: Sequence[ActionInstance],
    targets: Iterable[str],
) -> Tuple[ReconstructionOutcome, List[ActionInstance]]:
    """Polynomial reconstruction plus the discovered-verdict set.

    R and the post sets come from the fixpoint table, as on the table path
    of :func:`full_reconstruct`. Agents left with several candidates, all
    of which are forbidden (resp. mandatory), yield one representative
    action in the discovered set: the monitor knows some instance was
    violated (fulfilled) without knowing which action was executed. The
    norm instances relevant in the updated i go into the outcome for the
    norm check.
    """
    acts = sorted(observed, key=lambda a: a.schema)
    _fold_observed(scenario, i, f, acts)
    outcome, table, acts = _table_route(scenario, i, f, acts, targets)
    instances = relevant_instances(scenario.norms, i, scenario.statics)
    prohibitions = [n for n in instances if n.norm.deontic == PROHIBITION]
    obligations = [n for n in instances if n.norm.deontic == OBLIGATION]
    discovered: List[ActionInstance] = []
    statuses: List[str] = []
    for row in table.values():
        if len(row) <= 1:
            continue
        if all(matched_by(prohibitions, a) for a in row):
            discovered.append(_violation_representative(row, prohibitions))
            statuses.append(VIOLATED)
        elif all(matched_by(obligations, a) for a in row):
            discovered.append(_fulfilment_representative(row, obligations))
            statuses.append(FULFILLED)
    outcome.discovered, outcome.discovered_statuses = tuple(discovered), tuple(statuses)
    outcome.instances = tuple(instances)
    return outcome, acts


def _matching_keys(a: ActionInstance, instances: Sequence[NormInstance]):
    return [
        (inst.norm.priority, inst.action)
        for inst in instances
        if instance_matches(inst, a.schema)
    ]


def _violation_representative(
    row: Sequence[ActionInstance], prohibitions: Sequence[NormInstance]
) -> ActionInstance:
    """Presumption of innocence: assume the least important instance (the
    highest priority number, latest declared) was the one violated, and
    report the candidate matching it. Ties break on the ground schema."""
    return max(row, key=lambda a: (max(_matching_keys(a, prohibitions)), a.schema))


def _fulfilment_representative(
    row: Sequence[ActionInstance], obligations: Sequence[NormInstance]
) -> ActionInstance:
    """Dually, assume the most important obligation was fulfilled."""
    return min(row, key=lambda a: (min(_matching_keys(a, obligations)), a.schema))
