"""Ground-truth simulation: scenario generators, world stepping, partial
observation and detection-rate scoring against an omniscient judge."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress, count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .actions import ActionInstance, joint_successor
from .logic import Atom
from .monitor import NormMonitor, TickRecord
from .norms import FULFILLED, IDENTIFIED, VIOLATED, judge, relevant_instances_closed
from .scenario import Scenario, scenario_from_dict

# Derived-seed stride keeps repetition streams disjoint for any sane seed.
_SEED_STRIDE = 1_000_003


@dataclass
class CaseStudyConfig:
    """Office and robot counts are drawn per repetition from the configured
    intervals, and the corridor count from [O, O*(O-1)], as in the
    observability experiment protocol."""

    offices_min: int = 3
    offices_max: int = 10
    robots_min: int = 2
    robots_max: int = 5
    camera_ratio: float = 0.5
    steps: int = 100
    repetitions: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.offices_min < 3 or self.offices_max < self.offices_min:
            raise ValueError("office interval must satisfy 3 <= min <= max")
        if self.robots_min < 2 or self.robots_max < self.robots_min:
            raise ValueError("robot interval must satisfy 2 <= min <= max")
        if not 0.0 <= self.camera_ratio <= 1.0:
            raise ValueError("camera_ratio must lie in [0,1]")


@dataclass
class RandomConfig:
    agents: int = 5
    agents_max: Optional[int] = None  # None: exactly `agents` per repetition
    actions: int = 8
    observation_probability: float = 0.5
    steps: int = 100
    repetitions: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.agents < 1 or self.actions < 1:
            raise ValueError("need at least one agent and one action")
        if self.agents_max is not None and self.agents_max < self.agents:
            raise ValueError("agent interval must satisfy min <= max")
        if not 0.0 <= self.observation_probability <= 1.0:
            raise ValueError("observation_probability must lie in [0,1]")


def generate_case_study(cfg: CaseStudyConfig, rng: random.Random) -> Scenario:
    n_offices = rng.randint(cfg.offices_min, cfg.offices_max)
    n_robots = rng.randint(cfg.robots_min, cfg.robots_max)
    offices = [f"o{i}" for i in range(1, n_offices + 1)]
    robots = [f"r{i}" for i in range(1, n_robots + 1)]
    pairs = [(x, y) for x in offices for y in offices if x != y]
    count = rng.randint(n_offices, len(pairs))
    corridors = sorted(rng.sample(pairs, count))
    monitored = sorted(rng.sample(corridors, int(cfg.camera_ratio * count + 1e-9)))
    # Robots start in distinct offices while they fit; extras share.
    if n_robots <= n_offices:
        homes = rng.sample(offices, n_robots)
    else:
        homes = rng.sample(offices, n_offices)
        homes += [rng.choice(offices) for _ in range(n_robots - n_offices)]
    data = {
        "name": "office-robots",
        "agents": robots,
        "statics": sorted(
            [f"robot({r})" for r in robots]
            + [f"office({o})" for o in offices]
            + [f"corridor({x},{y})" for x, y in corridors]
        ),
        "initial_state": sorted(f"in({r},{o})" for r, o in zip(robots, homes)),
        "dynamic_atoms": sorted(f"in({r},{o})" for r in robots for o in offices),
        "rules": [{"body": ["in(R,O1)", "in(R,O2)"], "constraints": ["O1!=O2"]}],
        "action_descriptions": [
            {
                "name": "move",
                "params": ["R", "O1", "O2"],
                "actor": "R",
                "pre": ["robot(R)", "office(O1)", "office(O2)", "corridor(O1,O2)", "in(R,O1)"],
                "constraints": ["O1!=O2"],
                "con": [],
                "post": ["in(R,O2)", "-in(R,O1)"],
                "nop": False,
            },
            {
                "name": "nop",
                "params": ["R"],
                "actor": "R",
                "pre": ["robot(R)"],
                "constraints": [],
                "con": [],
                "post": [],
                "nop": True,
            },
        ],
        "norms": [
            {
                "id": "no-collision",
                "deontic": "P",
                "condition": ["in(R1,L2)"],
                "constraints": ["R1!=R2"],
                "action": "move(R2,L1,L2)",
                "priority": 0,
            }
        ],
        "observability": {
            "mode": "cameras",
            "cameras": sorted(f"move(R,{x},{y})" for x, y in monitored),
        },
    }
    return scenario_from_dict(data)


def generate_random(cfg: RandomConfig, rng: random.Random) -> Scenario:
    a = cfg.actions
    n_agents = (
        cfg.agents if cfg.agents_max is None else rng.randint(cfg.agents, cfg.agents_max)
    )
    agents = [f"g{i}" for i in range(1, n_agents + 1)]
    action_names = [f"act{i}" for i in range(1, a + 1)]
    cap_limit = math.ceil(0.1 * a)
    n_roles = rng.randint(1, a)
    roles = [f"role{i}" for i in range(1, n_roles + 1)]
    capabilities = {
        role: sorted(rng.sample(action_names, rng.randint(1, cap_limit))) for role in roles
    }
    plays = {g: sorted(rng.sample(roles, rng.randint(1, n_roles))) for g in agents}
    n_props = rng.randint(a, 2 * a)
    props = [f"p{i}" for i in range(1, n_props + 1)]
    lit_limit = math.ceil(0.1 * n_props)
    con_limit = math.ceil(0.1 * a)

    def prop_literals(low: int) -> List[str]:
        size = rng.randint(low, lit_limit)
        chosen = rng.sample(props, min(size, len(props)))
        return sorted(("" if rng.random() < 0.5 else "-") + p for p in chosen)

    descriptions = []
    for name in action_names:
        others = [n for n in action_names if n != name]
        n_con = rng.randint(0, min(con_limit, len(others)))
        con = [
            {"schema": f"{other}(Z{k})", "positive": rng.random() < 0.5}
            for k, other in enumerate(sorted(rng.sample(others, n_con)))
        ]
        descriptions.append(
            {
                "name": name,
                "params": ["X"],
                "actor": "X",
                "pre": sorted([f"play(X,RO)", f"capable(RO,{name})"]) + prop_literals(1),
                "constraints": [],
                "con": con,
                "post": prop_literals(1),
                "nop": False,
            }
        )
    descriptions.append(
        {
            "name": "nop",
            "params": ["X"],
            "actor": "X",
            "pre": ["agent(X)"],
            "constraints": [],
            "con": [],
            "post": [],
            "nop": True,
        }
    )
    norms = []
    n_norms = rng.randint(1, a)
    for i in range(1, n_norms + 1):
        size = rng.randint(0, lit_limit)
        chosen = sorted(rng.sample(props, min(size, len(props))))
        norms.append(
            {
                "id": f"n{i}",
                "deontic": rng.choice(["O", "P"]),
                "condition": [("" if rng.random() < 0.5 else "-") + p for p in chosen],
                "constraints": [],
                "action": f"{rng.choice(action_names)}(W)",
                "priority": i - 1,
            }
        )
    data = {
        "name": "random-domain",
        "agents": agents,
        "statics": sorted(
            [f"agent({g})" for g in agents]
            + [f"role({r})" for r in roles]
            + [f"play({g},{r})" for g, rs in sorted(plays.items()) for r in rs]
            + [
                f"capable({role},{act})"
                for role in roles
                for act in capabilities[role]
            ]
        ),
        "initial_state": sorted(p for p in props if rng.random() < 0.5),
        "dynamic_atoms": sorted(props),
        "rules": [],
        "action_descriptions": descriptions,
        "norms": norms,
        "observability": {
            "mode": "probability",
            "probability": cfg.observation_probability,
        },
    }
    return scenario_from_dict(data)


def applicable_actions(scenario: Scenario, agent: str, state: Set[Atom]) -> List[ActionInstance]:
    """Non-NOP instances whose (dynamic) precondition holds in a full state,
    in ground order. Each distinct precondition is decided once."""
    pres, pre_of = scenario.preconditions(agent)
    holds = [true.issubset(state) and false.isdisjoint(state) for true, false in pres]
    return list(compress(scenario.ground_actions(agent), map(holds.__getitem__, pre_of)))


def step_world(
    scenario: Scenario, state: Set[Atom], rng: random.Random
) -> Tuple[List[ActionInstance], Set[Atom]]:
    """One tick of ground truth: each agent draws uniformly among its
    applicable actions; the joint action is repaired by up to ten resampling
    rounds, with NOP as the fallback for stubborn agents, until
    ``actions.joint_successor`` finds no offender; its successor is kept."""
    agents = sorted(scenario.agents)
    options = {g: applicable_actions(scenario, g, state) for g in agents}
    choice = {
        g: (rng.choice(opts) if opts else scenario.nop_instance(g))
        for g, opts in options.items()
    }
    for rounds in count():
        joint = [choice[g] for g in agents]
        new, offenders = joint_successor(joint, state, scenario.statics, scenario.rules)
        if not offenders:
            return joint, new
        for g in sorted(offenders):
            if rounds >= 10:
                # Falling back to NOP can orphan another action's
                # concurrency requirement, so iterate until nothing breaks.
                choice[g] = scenario.nop_instance(g)
            elif options[g]:
                choice[g] = rng.choice(options[g])


def observe(
    scenario: Scenario, executed: Sequence[ActionInstance], rng: random.Random
) -> List[ActionInstance]:
    mode = scenario.observability.get("mode")
    observed = []
    for a in sorted(executed, key=lambda x: (x.actor, x.schema)):
        if scenario.description(a.name).is_nop:
            observed.append(a)
        elif mode == "cameras":
            if scenario.watched(a.schema):
                observed.append(a)
        else:
            if rng.random() < scenario.observability.get("probability", 1.0):
                observed.append(a)
    return sorted(observed, key=lambda x: x.schema)


@dataclass
class GroundTruthLog:
    states: List[Set[Atom]]  # s_0 .. s_T
    executed: List[List[ActionInstance]]  # per tick
    observed: List[List[ActionInstance]]  # per tick, subset of executed


def simulate(scenario: Scenario, steps: int, rng: random.Random) -> GroundTruthLog:
    state = set(scenario.initial_state)
    log = GroundTruthLog(states=[set(state)], executed=[], observed=[])
    for _ in range(steps):
        joint, state = step_world(scenario, state, rng)
        log.executed.append(joint)
        log.observed.append(observe(scenario, joint, rng))
        log.states.append(set(state))
    return log


@dataclass(frozen=True)
class GroundTruthEvent:
    tick: int
    norm_id: str
    action: Atom  # the instance's (possibly open) controlled action
    constraints: Tuple  # residual constraints distinguishing sibling instances
    status: str  # violated / fulfilled
    offender: Optional[str]  # actor of the matching executed action, if any

    def key(self) -> Tuple:
        return (self.tick, self.norm_id, self.action, self.constraints, self.status)


def oracle_events(scenario: Scenario, log: GroundTruthLog) -> List[GroundTruthEvent]:
    """Definite verdicts of an omniscient judge over the full run. An
    event's offender is the actor of the instance's matching executed action
    of least schema."""
    events = []
    for t, executed in enumerate(log.executed):
        instances = relevant_instances_closed(scenario.norms, log.states[t], scenario.statics)
        for inst, status, match in judge(instances, executed, len(scenario.agents)):
            offender = match.actor if match else None
            events.append(
                GroundTruthEvent(t, inst.norm_id, inst.action, inst.constraints, status, offender)
            )
    return events


@dataclass
class RunScore:
    gt_violations: int = 0
    gt_fulfilments: int = 0
    identified_violations: int = 0
    identified_fulfilments: int = 0
    discovered_violations: int = 0
    discovered_fulfilments: int = 0

    def merged(self, other: "RunScore") -> "RunScore":
        import dataclasses

        return RunScore(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in dataclasses.fields(RunScore)
            )
        )


def score_run(
    scenario: Scenario, log: GroundTruthLog, records: Sequence[TickRecord]
) -> RunScore:
    """Match the monitor's verdicts against the omniscient oracle.

    Identified verdicts are credited on exact (tick, norm, action, status)
    key equality. A discovered verdict claims one not-yet-credited event of
    the same tick and status whose offender is the verdict's culprit, so
    identified + discovered never exceeds the ground-truth total.
    """
    return _score(oracle_events(scenario, log), records)


def _score(events: Sequence[GroundTruthEvent], records: Sequence[TickRecord]) -> RunScore:
    keys = {e.key() for e in events}
    credited: Set[Tuple] = set()
    score = RunScore(
        gt_violations=sum(1 for e in events if e.status == VIOLATED),
        gt_fulfilments=sum(1 for e in events if e.status == FULFILLED),
    )
    discovered_claims: List[Tuple[int, str, str]] = []
    for rec in records:
        for v in rec.verdicts:
            key = (
                rec.tick,
                v.instance.norm_id,
                v.instance.action,
                v.instance.constraints,
                v.status,
            )
            if v.mode == IDENTIFIED:
                if key in keys and key not in credited:
                    credited.add(key)
                    if v.status == VIOLATED:
                        score.identified_violations += 1
                    else:
                        score.identified_fulfilments += 1
            else:
                discovered_claims.append((rec.tick, v.status, v.culprit))
    for tick, status, culprit in discovered_claims:
        for e in events:
            if (
                e.tick == tick
                and e.status == status
                and e.offender == culprit
                and e.key() not in credited
            ):
                credited.add(e.key())
                if status == VIOLATED:
                    score.discovered_violations += 1
                else:
                    score.discovered_fulfilments += 1
                break
    return score


def repetition_seed(seed: int, idx: int) -> int:
    return seed * _SEED_STRIDE + idx


def run_monitor(scenario: Scenario, log: GroundTruthLog, variant: str) -> List[TickRecord]:
    return NormMonitor(scenario, variant=variant).run(log.observed)


@dataclass
class Metrics:
    """Pooled detection counts plus the per-run scores."""

    runs: int = 0
    pooled: Dict[str, RunScore] = field(default_factory=dict)
    per_run: Dict[str, List[RunScore]] = field(default_factory=dict)

    def add(self, variant: str, score: RunScore) -> None:
        self.pooled[variant] = self.pooled.get(variant, RunScore()).merged(score)
        self.per_run.setdefault(variant, []).append(score)

    def pooled_rate(self, variant: str, field_name: str, denom_name: str) -> float:
        pooled = self.pooled.get(variant, RunScore())
        denom = getattr(pooled, denom_name)
        if denom == 0:
            return 0.0
        return 100.0 * getattr(pooled, field_name) / denom


def run_experiment(cfg, variants: Sequence[str], generator) -> Metrics:
    """Repetitions share ground truth and observations across variants, so
    comparisons between monitors are paired."""
    metrics = Metrics()
    for idx in range(cfg.repetitions):
        rng = random.Random(repetition_seed(cfg.seed, idx))
        scenario = generator(cfg, rng)
        log = simulate(scenario, cfg.steps, rng)
        events = oracle_events(scenario, log)
        for variant in variants:
            records = run_monitor(scenario, log, variant)
            metrics.add(variant, _score(events, records))
        metrics.runs += 1
    return metrics
