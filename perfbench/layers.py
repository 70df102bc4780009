"""Per-layer tracing for the normmon benchmark.

The tracer wraps public functions of the normmon modules from outside the
package: every module namespace that holds a reference to a target function
gets the wrapper, and every original is put back by ``uninstall``. Spans
(name, start, end, parent span, repetition id, self time) and counts are kept
in memory and written out once, when the benchmark ends.

Three kinds of target:

- ``SPAN``: timed, and each call is kept as a span record. Used where calls
  number in the tens of thousands per run.
- ``TIMED``: timed and aggregated per name, but not kept one record per call,
  because these run up to millions of times per run. They still count as
  child time of the enclosing frame, so a parent's self time excludes them.
- ``COUNT``: only the number of calls is kept (the cheapest wrapper).

Self time of a frame is its duration minus the durations of the wrapped
calls made directly inside it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from normmon import actions, harness, logic, monitor, norms, reconstruction, trace
from normmon import scenario as scenario_module

SPAN = "span"
TIMED = "timed"
COUNT = "count"

# (layer metric prefix, owner, attribute, kind)
TARGETS = (
    ("harness.generate", harness, "generate_case_study", SPAN),
    ("harness.generate", harness, "generate_random", SPAN),
    ("harness.simulate", harness, "simulate", SPAN),
    ("harness.score", harness, "score_run", SPAN),
    ("scenario.from_dict", scenario_module, "scenario_from_dict", SPAN),
    ("scenario.ground_actions", scenario_module.Scenario, "ground_actions", TIMED),
    ("monitor.advance", monitor.NormMonitor, "advance", SPAN),
    ("monitor.finish", monitor.NormMonitor, "finish", SPAN),
    ("monitor.check_norms", monitor, "check_norms", SPAN),
    ("monitor.invariant_literals", monitor, "invariant_literals", TIMED),
    ("reconstruction.full", reconstruction, "full_reconstruct", SPAN),
    ("reconstruction.approximate", reconstruction, "approximate_reconstruct", SPAN),
    ("reconstruction.search", reconstruction, "search", SPAN),
    ("reconstruction.candidate_actions", reconstruction, "candidate_actions", TIMED),
    ("logic.consistent_with", logic, "consistent_with", TIMED),
    ("logic.unify", logic, "unify", COUNT),
    ("norms.relevant_instances", norms, "relevant_instances", TIMED),
    ("norms.judge", norms, "judge", COUNT),
    ("actions.effects", actions, "effects", TIMED),
    ("trace.write", trace, "write_trace", SPAN),
    ("trace.read", trace, "read_trace", SPAN),
    ("trace.replay", trace, "replay_trace", SPAN),
)

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "rep", "self_s")

_MARK = "_perfbench_wrapper"


def _normmon_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "normmon" or name.startswith("normmon."))
    ]


class Tracer:
    """Records spans and counts for the wrapped normmon functions.

    Set ``rep`` before each repetition; spans carry it as their repetition
    id.
    """

    def __init__(self):
        self.rep: Optional[int] = None
        self.spans: List[Tuple] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[List] = []  # open frames: [child seconds, span id]
        self._span_stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- counters fed by the wrappers -----------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _candidates(self, result, args) -> None:
        scenario, agent = args[0], args[1]
        self._count("candidate_actions.kept", len(result))
        self._count("candidate_actions.tested", len(self._ground_actions(scenario, agent)))
        if self._open.get("reconstruction.approximate"):
            self._count("approximate.rows")

    def _outcome(self, result, args) -> None:
        outcome = result[0]
        self._count("solution_count", outcome.solution_count or 0)
        self._count("cap_hit", int(outcome.cap_hit))
        self._count("no_completion", int(outcome.no_completion))

    def _trace_written(self, result, args) -> None:
        self._count("trace.bytes_written", os.path.getsize(args[0]))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        if kind == COUNT:

            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)

            setattr(counted, _MARK, True)
            return counted

        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans if kind == SPAN else None
        open_frames = self._open
        clock = time.perf_counter
        after = {
            "reconstruction.candidate_actions": self._candidates,
            "reconstruction.full": self._outcome,
            "reconstruction.approximate": self._outcome,
            "trace.write": self._trace_written,
        }.get(name)

        def timed(*args, **kwargs):
            frame = [0.0, None]
            if spans is not None:
                frame[1] = len(spans) + len(span_stack)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(frame[1])
            stack.append(frame)
            open_frames[name] = open_frames.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_frames[name] -= 1
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                if stack:
                    stack[-1][0] += duration
                if spans is not None:
                    span_stack.pop()
                    spans.append((frame[1], name, start, end, parent, self.rep, own))
            if after is not None:
                after(result, args)
            return result

        setattr(timed, _MARK, True)
        return timed

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._ground_actions = scenario_module.Scenario.__dict__["ground_actions"]
        modules = _normmon_modules()
        for name, owner, attr, kind in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                owners = [owner]
            else:
                original = getattr(owner, attr)
                owners = [m for m in modules if m.__dict__.get(attr) is original]
            wrapper = self._wrap(name, original, kind)
            for o in owners:
                setattr(o, attr, wrapper)
                self._patches.append((o, attr, original))

    def uninstall(self) -> List[str]:
        """Put every original back; return what is still wrapped (empty on
        success)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        problems = [
            f"{getattr(o, '__name__', o)}.{attr} not restored"
            for o, attr, original in self._patches
            if o.__dict__.get(attr) is not original
        ]
        self._patches = []
        problems.extend(still_wrapped())
        return problems

    # -- results ----------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer value, by name, with its unit."""
        out: Dict[str, Tuple[float, str]] = {}
        kinds = {name: kind for name, _, _, kind in TARGETS}
        for name in sorted(self.stats):
            calls, total, own = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            if kinds[name] != COUNT:
                out[f"{name}.s"] = (total, "s")
                out[f"{name}.self_s"] = (own, "s")
        c = self.counts
        kept = c.get("candidate_actions.kept", 0)
        tested = c.get("candidate_actions.tested", 0)
        rows = self.stats["reconstruction.candidate_actions"][0]
        approx_calls = self.stats["reconstruction.approximate"][0]
        out["reconstruction.candidates_kept_ratio"] = (kept / tested if tested else 0.0, "ratio")
        out["reconstruction.candidate_row.mean"] = (kept / rows if rows else 0.0, "count")
        out["reconstruction.approximate.rows_per_call"] = (
            c.get("approximate.rows", 0) / approx_calls if approx_calls else 0.0,
            "count",
        )
        out["reconstruction.solution_count"] = (c.get("solution_count", 0), "count")
        out["reconstruction.cap_hit"] = (c.get("cap_hit", 0), "count")
        out["reconstruction.no_completion"] = (c.get("no_completion", 0), "count")
        out["trace.bytes_written"] = (c.get("trace.bytes_written", 0), "bytes")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def still_wrapped() -> List[str]:
    """Names in the normmon modules and classes that are tracer wrappers."""
    found = []
    for m in _normmon_modules():
        for attr, value in vars(m).items():
            if getattr(value, _MARK, False):
                found.append(f"{m.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == m.__name__:
                found.extend(
                    f"{m.__name__}.{value.__name__}.{a}"
                    for a, v in vars(value).items()
                    if getattr(v, _MARK, False)
                )
    return found
