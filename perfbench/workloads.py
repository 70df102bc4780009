"""Workloads, the measurement loop and the output checks of the normmon
benchmark.

One caller drives ``NormMonitor.advance``/``finish`` tick by tick from a
single thread and sends the next tick only when the previous call has
returned (a closed loop with one client). Everything is called through the
public ``harness``, ``monitor`` and ``trace`` modules, by attribute, so that
the tracer in ``layers`` sees the calls when it is installed.

Inputs: each workload monitors a fixed pool of scenarios. The pool is drawn
from ``POOL_SEED`` and the seed given on the command line draws the
ground-truth runs, so it decides every executed and observed action. The cost
of monitoring one random scenario differs from the next by more than an order
of magnitude, and pools of the size a run can afford put the run-to-run spread
of seed-drawn pools above 20% on every timing; fixing the pool keeps the
spread within the bounds in ``BENCHMARK.json`` while the seed still changes
every observation stream.

Timing: a run makes passes over the pool until its time is spent. Every pass
repeats the same work, so ``run_s``/``cpu_s`` are the median pass and each
monitor call is counted at its median over the passes. On a shared host the
speed of a core jumps between states within a fraction of a second; the
fastest state comes in short bursts whose frequency follows the load on the
host, while the median state holds steady, so the median repeat is the
steadiest estimate of a cost. A full garbage collection scans the whole heap
(50-80 ms for these pools on a 2-vCPU host, most of it the benchmark's own
inputs) and, since every pass allocates alike, it can fall on the same
monitor call in every pass, a different call in each process; a few such
calls moved the mean tick latency by half from one run to the next. So the collector's pauses, timed through
``gc.callbacks``, are left out of every call's latency and kept in the pass
times (``run_s``, ``cpu_s``), and reported on their own as ``collector_s``.

Every metric is printed in the report line, with sample counts; only those in
``BENCHMARK.json`` are gated. The p99 latencies ride on a few dozen calls each.
The tick latencies are a mixture (on ``office-sweep`` the camera ratios give
ticks from 0.015 ms to 0.5 ms, and the reconstructing variants add dear
reconstructing ticks to cheap observed ones), and the p50 falls where the
mixture is thin, so it moves by 10-20% with the seed's mix of ticks. Both are
left ungated: ``tick_ms.mean.traditional`` carries the per-tick cost of the
monitor without reconstruction, and ``recon_tick_ms`` the cost of
reconstruction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import platform
import random
import resource
import statistics
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from normmon import harness, trace
from normmon.harness import CaseStudyConfig, GroundTruthLog, RandomConfig, RunScore, repetition_seed
from normmon.monitor import APPROXIMATE, COMPLETE, EMPTY, FULL, TRADITIONAL, NormMonitor, SensorFault
from normmon.norms import IDENTIFIED
from normmon.reconstruction import KnowledgeFault
from normmon.scenario import Scenario

import layers

POOL_SEED = 0
VARIANTS = (TRADITIONAL, FULL, APPROXIMATE)
RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SETUP_ROUNDS = 3

Metrics = Dict[str, Tuple[float, str]]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # name of the harness generator
    configs: Tuple  # one generator config per scenario of the pool
    knowledge: str  # initial knowledge of every monitor
    round_trip: bool = False  # approximate records go through a trace file


def office_sweep(reps_per_ratio: int = 2, steps: int = 100) -> Workload:
    """The acceptance case study: default intervals (3-10 offices, 2-5
    robots), camera ratios 0, 0.2, ..., 1.0, complete initial knowledge.

    It is the only workload with an integrity rule
    (``in(R,O1), in(R,O2), O1!=O2``), so ``logic.consistent_with``'s rule join
    and the decomposable full route do most of the work. Ratio 1.0 skips
    reconstruction.
    """
    configs = tuple(
        CaseStudyConfig(camera_ratio=ratio, steps=steps)
        for ratio in RATIOS
        for _ in range(reps_per_ratio)
    )
    return Workload("office-sweep", "generate_case_study", configs, COMPLETE)


def random_blind(reps: int = 40, steps: int = 50) -> Workload:
    """Criterion 7's regime: 5 agents, 8 actions, nothing observed but NOPs,
    empty initial knowledge.

    The generic (non-decomposable) ``search`` with its materialised solution
    list dominates ``full``. There are no integrity rules, so the ``logic``
    rule path is idle. This workload shows streaming-search, memory and
    pruning changes, which ``office-sweep`` bypasses.
    """
    cfg = RandomConfig(agents=5, actions=8, observation_probability=0.0, steps=steps)
    return Workload("random-blind", "generate_random", (cfg,) * reps, EMPTY)


def random_observed(reps: int = 16, steps: int = 100) -> Workload:
    """The paper's random experiment: 1-5 agents, 8 actions, observation
    probability 0.5, complete initial knowledge.

    Most ticks are observed, so ``check_norms``, ``score_run`` and the
    monitor's own validation and state update dominate. Each repetition's
    approximate records are written to a trace, read back and replayed, so
    this is the only workload that drives the monitor from a trace on disk.
    """
    cfg = RandomConfig(
        agents=1, agents_max=5, actions=8, observation_probability=0.5, steps=steps
    )
    return Workload("random-observed", "generate_random", (cfg,) * reps, COMPLETE, True)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "office-sweep": office_sweep,
    "random-blind": random_blind,
    "random-observed": random_observed,
}


@dataclasses.dataclass
class Repetition:
    index: int
    scenario: Scenario
    log: GroundTruthLog


def build_inputs(workload: Workload, seed: int) -> List[Repetition]:
    """Generate the scenario pool and simulate one ground-truth run of each."""
    generate = getattr(harness, workload.generator)
    reps = []
    for k, cfg in enumerate(workload.configs):
        scenario = generate(cfg, random.Random(repetition_seed(POOL_SEED, k)))
        log = harness.simulate(scenario, cfg.steps, random.Random(repetition_seed(seed, k)))
        reps.append(Repetition(k, scenario, log))
    return reps


def _fingerprint(reps: Sequence[Repetition]) -> List:
    return [(r.scenario.agents, r.log.executed, r.log.observed) for r in reps]


# -- one pass over the pool ------------------------------------------------


@dataclasses.dataclass
class RunOutcome:
    """One monitor variant over one repetition."""

    records: list
    calls: int
    failed_calls: int  # raised, came after a raise, or returned a capped record
    score: RunScore


@dataclasses.dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    collector_s: float  # garbage collector pauses, part of wall_s
    latency_ms: Dict[str, array]  # per monitor call, in call order
    reconstructs: Dict[str, bytearray]  # per monitor call: 1 if it reconstructed
    outcomes: List[Dict[str, RunOutcome]]  # per repetition, by variant
    diffs: List[List[str]]  # per repetition: replay mismatches


class CollectorPauses:
    """Seconds the garbage collector has run while ``counting``, measured
    through ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    @contextlib.contextmanager
    def counting(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)


PAUSES = CollectorPauses()


def monitor_run(
    rep: Repetition, variant: str, knowledge: str, latency: array, reconstructs: bytearray
) -> Tuple[list, int, int]:
    """Feed the observation stream tick by tick; time every call, less the
    garbage collector's pauses inside it.

    A call reconstructs when the tick it closes had fewer observed actions
    than there are agents (the monitor reconstructs exactly then).
    """
    observed = rep.log.observed
    agents = len(rep.scenario.agents)
    variant_reconstructs = variant != TRADITIONAL
    monitor = NormMonitor(rep.scenario, variant=variant, initial_knowledge=knowledge)
    records = []
    calls = len(observed) + 1
    failed = 0
    clock = time.perf_counter
    pauses = PAUSES
    for t in range(calls):
        try:
            paused = pauses.seconds
            start = clock()
            record = monitor.advance(observed[t]) if t < len(observed) else monitor.finish()
            ms = (clock() - start - (pauses.seconds - paused)) * 1000.0
        except (SensorFault, KnowledgeFault):
            failed += calls - t
            break
        latency.append(ms)
        reconstructs.append(variant_reconstructs and t > 0 and len(observed[t - 1]) < agents)
        if record is not None:
            records.append(record)
            if record.cap_hit:
                failed += 1
    return records, calls, failed


def run_pass(
    workload: Workload,
    reps: Sequence[Repetition],
    seed: int,
    scratch: str,
    tracer: Optional[layers.Tracer] = None,
) -> PassResult:
    latency = {v: array("d") for v in VARIANTS}
    reconstructs = {v: bytearray() for v in VARIANTS}
    outcomes: List[Dict[str, RunOutcome]] = []
    diffs: List[List[str]] = []
    with PAUSES.counting() as pauses:
        wall0, cpu0, paused0 = time.perf_counter(), time.process_time(), pauses.seconds
        for rep in reps:
            if tracer is not None:
                tracer.rep = rep.index
            by_variant = {}
            for variant in VARIANTS:
                records, calls, failed = monitor_run(
                    rep, variant, workload.knowledge, latency[variant], reconstructs[variant]
                )
                score = harness.score_run(rep.scenario, rep.log, records)
                by_variant[variant] = RunOutcome(records, calls, failed, score)
            rep_diffs: List[str] = []
            if workload.round_trip:
                path = os.path.join(scratch, f"rep{rep.index}.trace")
                trace.write_trace(
                    path,
                    rep.scenario,
                    seed,
                    APPROXIMATE,
                    by_variant[APPROXIMATE].records,
                    executed=rep.log.executed,
                )
                header, rows = trace.read_trace(path)
                rep_diffs, _ = trace.replay_trace(rep.scenario, header, rows)
            outcomes.append(by_variant)
            diffs.append(rep_diffs)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        collector = pauses.seconds - paused0
    return PassResult(wall, cpu, collector, latency, reconstructs, outcomes, diffs)


# -- output checks -----------------------------------------------------------


class Oracle:
    """Ground-truth event keys per repetition, computed once per run."""

    def __init__(self):
        self._keys: Dict[int, set] = {}

    def keys(self, rep: Repetition) -> set:
        if rep.index not in self._keys:
            events = harness.oracle_events(rep.scenario, rep.log)
            self._keys[rep.index] = {e.key() for e in events}
        return self._keys[rep.index]


def check_repetition(
    rep: Repetition,
    keys: set,
    by_variant: Dict[str, RunOutcome],
    diffs: Sequence[str],
) -> Dict[str, List[str]]:
    """Problems found in one repetition's outputs, by the variant at fault."""
    problems: Dict[str, List[str]] = {}

    def fail(variant: str, text: str) -> None:
        problems.setdefault(variant, []).append(f"rep {rep.index} {variant}: {text}")

    for variant, outcome in by_variant.items():
        for rec in outcome.records:
            for v in rec.verdicts:
                if v.mode != IDENTIFIED:
                    continue
                key = (rec.tick, v.instance.norm_id, v.instance.action, v.instance.constraints, v.status)
                if key not in keys:
                    fail(variant, f"tick {rec.tick}: identified {v!r} has no oracle event")
        s = outcome.score
        if s.identified_violations + s.discovered_violations > s.gt_violations:
            fail(variant, "credited violations exceed ground truth")
        if s.identified_fulfilments + s.discovered_fulfilments > s.gt_fulfilments:
            fail(variant, "credited fulfilments exceed ground truth")
    trad = by_variant[TRADITIONAL].score
    approx = by_variant[APPROXIMATE].score
    if (
        approx.identified_violations + approx.identified_fulfilments
        < trad.identified_violations + trad.identified_fulfilments
    ):
        fail(APPROXIMATE, "identifies less than traditional")
    if diffs:
        fail(APPROXIMATE, f"replay differs: {diffs[0]}")
    return problems


def check_pass(
    reps: Sequence[Repetition], result: PassResult, oracle: Oracle
) -> Tuple[List[str], int, int]:
    """Check every output of a pass. Returns (problems, calls attempted,
    calls failed); a run with a failed check counts all its calls failed."""
    problems: List[str] = []
    attempted = failed = 0
    for rep, by_variant, diffs in zip(reps, result.outcomes, result.diffs):
        found = check_repetition(rep, oracle.keys(rep), by_variant, diffs)
        for variant, outcome in by_variant.items():
            attempted += outcome.calls
            failed += outcome.calls if variant in found else outcome.failed_calls
            problems.extend(found.get(variant, ()))
    return problems, attempted, failed


def score_summary(result: PassResult) -> List:
    return [
        [dataclasses.astuple(by_variant[v].score) for v in VARIANTS]
        for by_variant in result.outcomes
    ]


# -- metrics -------------------------------------------------------------------


def _quantile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _per_unit(series: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise median over passes: every pass repeats the same work, so
    each position is one unit timed once per pass."""
    return [statistics.median(values) for values in zip(*series)]


def _rate(scores: Sequence[RunScore], field: str) -> float:
    """Pooled share of ground-truth violations credited through ``field``."""
    total = sum(s.gt_violations for s in scores)
    return 100.0 * sum(getattr(s, field) for s in scores) / total if total else 0.0


def end_to_end(
    setup_s: float, passes: Sequence[PassResult], attempted: int, failed: int
) -> Tuple[Metrics, Dict[str, int]]:
    """Every end-to-end value, and the sample count behind each timing.

    ``run_s``/``cpu_s`` are the median pass; each monitor call is timed as
    its median over the passes before the calls are ranked or averaged.
    """
    m: Metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "collector_s": (statistics.median(p.collector_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_tick_ratio": (failed / attempted if attempted else 0.0, "ratio"),
    }
    samples = {"passes": len(passes), "repetitions": len(passes[0].outcomes)}
    for v in VARIANTS:
        ticks = _per_unit([p.latency_ms[v] for p in passes])
        m[f"tick_ms.mean.{v}"] = (statistics.fmean(ticks) if ticks else 0.0, "ms")
        m[f"tick_ms.p50.{v}"] = (statistics.median(ticks) if ticks else 0.0, "ms")
        m[f"tick_ms.p99.{v}"] = (_quantile(ticks, 99), "ms")
        samples[f"tick_ms.{v}"] = len(ticks)
        if v != TRADITIONAL:
            recon = [ms for ms, flag in zip(ticks, passes[0].reconstructs[v]) if flag]
            m[f"recon_tick_ms.{v}"] = (statistics.fmean(recon) if recon else 0.0, "ms")
            samples[f"recon_tick_ms.{v}"] = len(recon)
    scores = {v: [o[v].score for o in passes[0].outcomes] for v in VARIANTS}
    for name, variant, field in (
        ("violations_identified_pct.full", FULL, "identified_violations"),
        ("violations_identified_pct.approximate", APPROXIMATE, "identified_violations"),
        ("violations_discovered_pct.approximate", APPROXIMATE, "discovered_violations"),
    ):
        m[name] = (_rate(scores[variant], field), "%")
    return m, samples


def input_properties(reps: Sequence[Repetition], result: PassResult) -> Dict[str, float]:
    """Properties of the inputs that decide which layers do the work."""
    ticks = recon = capped = records = 0
    for rep, by_variant in zip(reps, result.outcomes):
        agents = len(rep.scenario.agents)
        ticks += len(rep.log.observed)
        recon += sum(1 for obs in rep.log.observed if len(obs) < agents)
        for outcome in by_variant.values():
            records += len(outcome.records)
            capped += sum(1 for r in outcome.records if r.cap_hit)
    n = len(reps)
    return {
        "scenarios": n,
        "ticks": ticks,
        "reconstructing_tick_share": recon / ticks if ticks else 0.0,
        "cap_hit_share": capped / records if records else 0.0,
        "agents_per_scenario": sum(len(r.scenario.agents) for r in reps) / n,
        "offices_per_scenario": sum(len(r.scenario.statics.with_pred("office")) for r in reps) / n,
        "ground_actions_per_scenario": sum(
            len(r.scenario.ground_actions(a)) for r in reps for a in r.scenario.agents
        )
        / n,
    }


def environment(root: str, seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git; "unknown"
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


# -- a whole run ---------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Metrics
    report: Dict[str, object]


def setup(workload: Workload, seed: int, rounds: int) -> Tuple[List[Repetition], List[float], bool]:
    """Build the inputs ``rounds`` times; returns the last build, every
    build's seconds, and whether all builds agreed."""
    times = []
    reps: List[Repetition] = []
    first = None
    same = True
    for _ in range(rounds):
        start = time.perf_counter()
        reps = build_inputs(workload, seed)
        times.append(time.perf_counter() - start)
        fp = _fingerprint(reps)
        if first is None:
            first = fp
        elif fp != first:
            same = False
    return reps, times, same


class Checker:
    """Checks every pass of a run and that all passes agree with the first."""

    def __init__(self, problems: List[str]):
        self.problems = problems
        self.attempted = 0
        self.failed = 0
        self._oracle = Oracle()
        self._reference = None

    def check(self, reps: Sequence[Repetition], result: PassResult, label: str) -> None:
        found, attempted, failed = check_pass(reps, result, self._oracle)
        self.problems.extend(found)
        self.attempted += attempted
        self.failed += failed
        summary = (score_summary(result), {v: len(result.latency_ms[v]) for v in VARIANTS})
        if self._reference is None:
            self._reference = summary
        elif summary != self._reference:
            self.problems.append(f"{label} differs from the first pass in scores or calls")

    def report(self) -> Dict[str, object]:
        return {"problems": self.problems[:20], "problem_count": len(self.problems)}


def measure(
    workload: Workload, seed: int, seconds: float, import_s: float, scratch: str
) -> RunResult:
    """Untraced run: set up several times, then run passes over the pool
    until ``seconds`` have been spent, checking every pass."""
    reps, setup_times, deterministic = setup(workload, seed, SETUP_ROUNDS)
    setup_s = import_s + statistics.median(setup_times)
    checker = Checker([] if deterministic else ["inputs differ between setup rounds"])
    checker.problems += [
        f"wrapper installed in an untraced run: {w}" for w in layers.still_wrapped()
    ]
    passes: List[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = run_pass(workload, reps, seed, scratch)
        checker.check(reps, result, f"pass {len(passes)}")
        if passes:
            result.outcomes = []  # only the first pass's records are kept
        passes.append(result)
    metrics, samples = end_to_end(setup_s, passes, checker.attempted, checker.failed)
    report = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "setup_rounds_s": setup_times,
        "import_s": import_s,
        "samples": samples,
        "inputs": input_properties(reps, passes[0]),
        **checker.report(),
    }
    return RunResult(not checker.problems, checker.attempted, checker.failed, metrics, report)


def measure_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    import_s: float,
    scratch: str,
    spans_path: Optional[str],
) -> RunResult:
    """Traced run. The per-layer metrics come from the first traced set-up
    and pass. Untraced and traced passes then alternate until ``seconds``
    have been spent; the tracing overhead compares their median passes, as
    ``run_s`` in ``end_to_end``. After every traced pass the wrappers are
    removed and the removal is checked."""
    reps, _, _ = setup(workload, seed, 1)
    checker = Checker([])
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced_reps, _, _ = setup(workload, seed, 1)
        first = run_pass(workload, traced_reps, seed, scratch, tracer)
    finally:
        checker.problems += [f"wrapper left installed: {w}" for w in tracer.uninstall()]
    checker.check(traced_reps, first, "traced pass 0")
    metrics = tracer.metrics()
    if spans_path:
        tracer.write_spans(spans_path)
    traced, untraced = [first], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(workload, reps, seed, scratch))
        checker.check(reps, untraced[-1], f"untraced pass {len(untraced) - 1}")
        extra = layers.Tracer()
        extra.install()
        try:
            traced.append(run_pass(workload, traced_reps, seed, scratch, extra))
        finally:
            checker.problems += [f"wrapper left installed: {w}" for w in extra.uninstall()]
        checker.check(traced_reps, traced[-1], f"traced pass {len(traced) - 1}")
        untraced[-1].outcomes = traced[-1].outcomes = []
    traced_s = statistics.median(p.wall_s for p in traced)
    untraced_s = statistics.median(p.wall_s for p in untraced)
    metrics["tracing.run_s"] = (traced_s, "s")
    metrics["tracing.untraced_run_s"] = (untraced_s, "s")
    metrics["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    report = {
        "passes": {"traced": len(traced), "untraced": len(untraced)},
        "import_s": import_s,
        "spans": len(tracer.spans),
        "spans_file": spans_path,
        "inputs": input_properties(traced_reps, first),
        **checker.report(),
    }
    return RunResult(not checker.problems, checker.attempted, checker.failed, metrics, report)
