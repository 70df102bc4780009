"""The monitoring loop: partial-state evolution, retrospective refinement,
reconstruction of unobserved actions and verdict emission.

Verdicts for tick t are produced while processing tick t+1, once the
preconditions of the newly observed actions have refined the knowledge
about the state actions of tick t ended in. The final tick of a run is
judged by :meth:`NormMonitor.finish` with whatever knowledge exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .actions import ActionInstance, effects, joint_post, joint_pre
from .logic import Literal, LiteralSet, consistent_with, survivors
from .norms import (
    DISCOVERED,
    IDENTIFIED,
    OBLIGATION,
    PROHIBITION,
    VIOLATED,
    NormInstance,
    Verdict,
    instance_matches,
    judge,
    relevant_instances,
)
from .reconstruction import (
    ReconstructionOutcome,
    approximate_reconstruct,
    full_reconstruct,
)
from .scenario import Scenario

TRADITIONAL = "traditional"
APPROXIMATE = "approximate"
FULL = "full"
VARIANTS = (TRADITIONAL, APPROXIMATE, FULL)

COMPLETE = "complete"
EMPTY = "empty"


class SensorFault(RuntimeError):
    """An observed action contradicts the monitor's sound knowledge."""


@dataclass(frozen=True)
class TickRecord:
    """What the monitor concluded about one tick, in hindsight."""

    tick: int
    observed: Tuple[ActionInstance, ...]
    reconstructed: Tuple[ActionInstance, ...]
    discovered: Tuple[ActionInstance, ...]
    verdicts: Tuple[Verdict, ...]
    state_snapshot: FrozenSet[Literal]
    cap_hit: bool = False
    no_completion: bool = False
    reconstruction_ran: bool = False  # the monitor reconstructed this tick
    # A timing, not a conclusion: left out of record equality.
    reconstruction_seconds: float = field(default=0.0, compare=False)


def invariant_literals(p: LiteralSet, eff: Set[Literal], scenario: Scenario) -> LiteralSet:
    """The successor of p under a fully observed concurrent action with
    effects ``eff``: the literals of p it does not modify, plus ``eff``.
    Unless a rule has three or more body literals, those are p less the
    literals in the kill mask of ``eff`` (see :func:`survivors`), so the
    successor is a copy of p with those deleted. No literal left
    contradicts one of ``eff``, so ``eff`` joins it as it is."""
    rules = scenario.rules
    mine, hood = rules.masks(eff)
    if rules.joins:
        nxt = LiteralSet(rules, survivors(p, eff, (), rules))
    else:
        killed = hood & ~mine & p.mask
        nxt = p.copy()
        for atom, _ in rules.members(killed):
            del nxt.signs[atom]
        nxt.mask ^= killed
    nxt.signs.update(eff)
    nxt.mask |= mine
    return nxt


def check_norms(
    scenario: Scenario,
    p: LiteralSet,
    acts: Sequence[ActionInstance],
    discovered: Sequence[Tuple[ActionInstance, str]],
    instances: Optional[Sequence[NormInstance]] = None,
) -> Tuple[Verdict, ...]:
    """Judge every norm instance relevant in p against the tick's actions;
    ``instances`` are those instances when the caller has them already.
    An instance's witness is its matching action of least schema.

    Definite judgements come out as identified verdicts; each
    (action, status) pair of the discovered set yields a discovered verdict
    for the matching instances of that status's modality only — a
    representative may incidentally match instances of the opposite
    modality, which it was not discovered under. Unknown judgements produce
    nothing.
    """
    if instances is None:
        instances = relevant_instances(scenario.norms, p, scenario.statics)
    verdicts = [
        Verdict(inst, status, IDENTIFIED, culprit=witness.actor if witness else None, witness=witness)
        for inst, status, witness in judge(instances, acts, len(scenario.agents))
    ]
    for a, status in sorted(discovered, key=lambda x: x[0].schema):
        wanted = PROHIBITION if status == VIOLATED else OBLIGATION
        for inst in instances:
            if inst.norm.deontic != wanted or not instance_matches(inst, a.schema):
                continue
            verdicts.append(Verdict(inst, status, DISCOVERED, culprit=a.actor, witness=a))
    return tuple(verdicts)


class NormMonitor:
    """Tracks one run; feed it each tick's observed actions in order.

    ``advance`` returns the record for the previous tick (None on the first
    call); ``finish`` returns the record for the last one.
    """

    def __init__(
        self,
        scenario: Scenario,
        variant: str = FULL,
        initial_knowledge: str = COMPLETE,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown monitor variant {variant!r}")
        self.scenario = scenario
        self.variant = variant
        self.tick = 0
        self.prev: Optional[LiteralSet] = None
        self.prev_obs: Optional[List[ActionInstance]] = None
        self.curr = LiteralSet(scenario.rules)
        if initial_knowledge == COMPLETE:
            truths = set(scenario.initial_state)
            for atom in sorted(scenario.dynamic_atoms):
                self.curr.add((atom, atom in truths))
            for atom in sorted(truths):
                self.curr.add((atom, True))
        elif initial_knowledge != EMPTY:
            raise ValueError(f"unknown initial knowledge mode {initial_knowledge!r}")
        self._finished = False

    # -- plumbing ---------------------------------------------------------

    def _validate(self, acts: List[ActionInstance], pre: Set[Literal]) -> None:
        """Raise :class:`SensorFault` unless the observed actions, in schema
        order, fit together and fit the current state; ``pre`` is their
        joint precondition."""
        actors = [a.actor for a in acts]
        if len(set(actors)) != len(actors):
            raise SensorFault(f"two observed actions share an actor: {actors}")
        unknown = set(actors) - set(self.scenario.agents)
        if unknown:
            raise SensorFault(f"observed actions of unknown agents {sorted(unknown)}")
        rules = self.scenario.rules
        for a in acts:
            self.scenario.description(a.name)
        # A consistent joint precondition has consistent parts, so each
        # action is checked alone only to say which one failed.
        if not consistent_with(self.curr, pre, rules):
            for a in acts:
                if not consistent_with(self.curr, a.pre, rules):
                    raise SensorFault(f"observed action {a} contradicts the current state")
            raise SensorFault("observed actions have jointly inconsistent preconditions")

    def _reconstruct(
        self, acts: List[ActionInstance]
    ) -> Tuple[ReconstructionOutcome, List[ActionInstance], float]:
        targets = sorted(set(self.scenario.agents) - {a.actor for a in acts})
        start = time.perf_counter()
        if self.variant == FULL:
            outcome, acts = full_reconstruct(
                self.scenario, self.prev, self.curr, acts, targets
            )
        else:
            outcome, acts = approximate_reconstruct(
                self.scenario, self.prev, self.curr, acts, targets
            )
        return outcome, acts, time.perf_counter() - start

    def _close_previous(self) -> Optional[TickRecord]:
        """Reconstruct and judge tick t-1 now that its final state is as
        refined as it will ever get."""
        if self.prev_obs is None:
            return None
        acts = self.prev_obs
        observed = tuple(acts)
        outcome = ReconstructionOutcome((), ())
        elapsed = 0.0
        ran = self.variant != TRADITIONAL and len(acts) < len(self.scenario.agents)
        if ran:
            outcome, acts, elapsed = self._reconstruct(acts)
        verdicts = check_norms(
            self.scenario,
            self.prev,
            acts,
            list(zip(outcome.discovered, outcome.discovered_statuses)),
            instances=outcome.instances,
        )
        return TickRecord(
            tick=self.tick - 1,
            observed=observed,
            reconstructed=outcome.reconstructed,
            discovered=outcome.discovered,
            verdicts=verdicts,
            state_snapshot=self.prev.snapshot(),
            cap_hit=outcome.cap_hit,
            no_completion=outcome.no_completion,
            reconstruction_ran=ran,
            reconstruction_seconds=elapsed,
        )

    # -- the loop ---------------------------------------------------------

    def advance(self, observed: Sequence[ActionInstance]) -> Optional[TickRecord]:
        if self._finished:
            raise RuntimeError("monitor already finished")
        acts = sorted(observed, key=lambda a: a.schema)
        pre, posts = joint_pre(acts), joint_post(acts)
        self._validate(acts, pre)
        # Two postconditions contradict each other exactly when they share
        # an atom.
        if len({atom for atom, _ in posts}) != len(posts):
            raise SensorFault("observed actions have contradicting postconditions")
        if len(acts) == len(self.scenario.agents):
            nxt = invariant_literals(self.curr, effects(acts, self.scenario.rules), self.scenario)
        else:
            nxt = LiteralSet(self.scenario.rules, posts)
        self.curr.assume(sorted(pre))
        record = self._close_previous()
        self.prev = self.curr
        self.curr = nxt
        self.prev_obs = acts
        self.tick += 1
        return record

    def finish(self) -> Optional[TickRecord]:
        if self._finished:
            raise RuntimeError("monitor already finished")
        self._finished = True
        return self._close_previous()

    def run(self, observations: Sequence[Sequence[ActionInstance]]) -> List[TickRecord]:
        """Convenience wrapper: feed every tick, return one record per tick."""
        records = []
        for observed in observations:
            rec = self.advance(observed)
            if rec is not None:
                records.append(rec)
        last = self.finish()
        if last is not None:
            records.append(last)
        return records
