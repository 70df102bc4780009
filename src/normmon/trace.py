"""Trace files: an append-only JSON-lines record of one monitored run.

The first line is a header carrying the scenario hash, the master seed and
the monitor variant; every following line is one tick's record (executed
actions when known, observed actions, reconstructed and discovered actions,
and the verdicts). Traces are replayable: feeding the recorded observations
back through a fresh monitor must reproduce the recorded verdicts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .actions import ActionInstance
from .logic import atom_text
from .monitor import NormMonitor, TickRecord
from .norms import Verdict
from .scenario import Scenario, constraint_text, parse_atom, scenario_hash

TRACE_FORMAT = "normmon-trace/1"


class TraceError(ValueError):
    """A trace file is malformed or does not belong to the scenario."""


def _action_text(a: ActionInstance) -> str:
    return atom_text(a.schema)


def _verdict_dict(v: Verdict) -> Dict:
    return {
        "norm": v.instance.norm_id,
        "action": atom_text(v.instance.action),
        "constraints": [constraint_text(c) for c in v.instance.constraints],
        "status": v.status,
        "mode": v.mode,
        "culprit": v.culprit,
    }


def _verdict_key(d: Dict) -> Tuple:
    """A total order on verdict dicts; a missing culprit sorts first."""
    culprit = d.get("culprit")
    return (
        d["norm"],
        d["action"],
        tuple(sorted(d.get("constraints", []))),
        d["status"],
        d["mode"],
        culprit is not None,
        culprit or "",
    )


def record_dict(
    record: TickRecord, executed: Optional[Sequence[ActionInstance]] = None
) -> Dict:
    data = {
        "tick": record.tick,
        "observed": [_action_text(a) for a in record.observed],
        "reconstructed": [_action_text(a) for a in record.reconstructed],
        "discovered": [_action_text(a) for a in record.discovered],
        # The monitor emits verdicts in an order that can follow set
        # iteration, so they are written sorted to keep trace bytes
        # independent of the hash seed.
        "verdicts": sorted((_verdict_dict(v) for v in record.verdicts), key=_verdict_key),
    }
    if executed is not None:
        data["executed"] = [_action_text(a) for a in executed]
    return data


def write_trace(
    path: str,
    scenario: Scenario,
    seed: int,
    variant: str,
    records: Sequence[TickRecord],
    executed: Optional[Sequence[Sequence[ActionInstance]]] = None,
) -> None:
    header = {
        "format": TRACE_FORMAT,
        "scenario": scenario_hash(scenario),
        "seed": seed,
        "variant": variant,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for idx, record in enumerate(records):
            row = record_dict(
                record, executed[idx] if executed is not None else None
            )
            fh.write(json.dumps(row, sort_keys=True) + "\n")


_VERDICT_TEXTS = ("norm", "action", "status", "mode")


def read_trace(path: str) -> Tuple[Dict, List[Dict]]:
    """The header and the tick rows of a trace file. The header gives the
    scenario hash and the variant as texts and the seed as an integer.
    Each row must be an object with the next tick, its observed actions as
    a list of texts and its verdicts as a list of objects with the fields
    replay compares; anything else raises :class:`TraceError` naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise TraceError(f"{path}: empty trace")
    try:
        header = json.loads(lines[0])
        rows = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not valid JSON lines: {exc}") from exc
    if not isinstance(header, dict):
        raise TraceError(f"{path}: line 1: the header is not an object")
    if header.get("format") != TRACE_FORMAT:
        raise TraceError(f"{path}: unknown trace format {header.get('format')!r}")
    for field, kind in (("scenario", str), ("seed", int), ("variant", str)):
        if field not in header:
            raise TraceError(f"{path}: header lacks {field!r}")
        if type(header[field]) is not kind:
            raise TraceError(f"{path}: header {field!r} is not a {kind.__name__}")
    for expected, row in enumerate(rows):
        where = f"{path}: line {expected + 2}"
        if not isinstance(row, dict):
            raise TraceError(f"{where}: a tick row is not an object")
        tick = row.get("tick")
        if tick != expected or type(tick) is not int:
            raise TraceError(f"{where}: expected tick {expected}, found {tick!r}")
        observed = row.get("observed")
        if not isinstance(observed, list) or not all(isinstance(a, str) for a in observed):
            raise TraceError(f"{where}: 'observed' is not a list of action texts")
        verdicts = row.get("verdicts")
        if not isinstance(verdicts, list) or not all(map(_is_verdict, verdicts)):
            raise TraceError(f"{where}: 'verdicts' is not a list of verdict objects")
    return header, rows


def _is_verdict(d) -> bool:
    """Does ``d`` hold the fields :func:`_verdict_key` reads, as texts?"""
    return (
        isinstance(d, dict)
        and all(isinstance(d.get(k), str) for k in _VERDICT_TEXTS)
        and isinstance(d.get("constraints", []), list)
        and all(isinstance(c, str) for c in d.get("constraints", []))
        and isinstance(d.get("culprit"), (str, type(None)))
    )


def _observations(scenario: Scenario, rows: Sequence[Dict]) -> List[List[ActionInstance]]:
    out = []
    for row in rows:
        acts = []
        for text in row["observed"]:
            atom, positive = parse_atom(text)
            if not positive:
                raise TraceError(f"negated action in trace: {text}")
            acts.append(scenario.instance_from_schema(atom))
        out.append(acts)
    return out


def replay_trace(
    scenario: Scenario, header: Dict, rows: Sequence[Dict]
) -> Tuple[List[str], List[TickRecord]]:
    """Re-run the monitor on the recorded observations and compare verdicts.

    Returns the per-tick mismatch descriptions (empty on success) and the
    fresh records.
    """
    if header["scenario"] != scenario_hash(scenario):
        raise TraceError(
            "trace was recorded against a different scenario "
            f"({header['scenario'][:12]}… vs {scenario_hash(scenario)[:12]}…)"
        )
    monitor = NormMonitor(scenario, variant=header["variant"])
    records = monitor.run(_observations(scenario, rows))
    diffs: List[str] = []
    by_tick = {r.tick: r for r in records}
    for row in rows:
        rec = by_tick.get(row["tick"])
        recorded = sorted(_verdict_key(d) for d in row["verdicts"])
        fresh = sorted(
            _verdict_key(_verdict_dict(v)) for v in (rec.verdicts if rec else ())
        )
        if recorded != fresh:
            missing = [k for k in recorded if k not in fresh]
            extra = [k for k in fresh if k not in recorded]
            diffs.append(
                f"tick {row['tick']}: recorded-only {missing or '[]'}, "
                f"replay-only {extra or '[]'}"
            )
    return diffs, records
