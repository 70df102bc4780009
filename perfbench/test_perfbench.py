"""Tests of the benchmark itself, on workloads cut down to a tiny size."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from normmon.norms import IDENTIFIED, VIOLATED, NormInstance, Verdict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "office-sweep": lambda: workloads.office_sweep(reps_per_ratio=1, steps=6),
    "random-blind": lambda: workloads.random_blind(reps=2, steps=6),
    "random-observed": lambda: workloads.random_observed(reps=2, steps=6),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def _run(capsys, workload, trace):
    status = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[0])["report"], json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    status, report, result = _run(capsys, workload, trace)
    assert status == 0, report["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert report["environment"]["seed"] == 3
    assert report["environment"]["nproc"] >= 1


def test_spans_nest_and_every_wrapper_is_restored(tmp_path):
    workload = TINY["office-sweep"]()
    originals = {
        (id(owner), attr): (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        for _, owner, attr, _ in layers.TARGETS
    }
    tracer = layers.Tracer()
    tracer.install()
    try:
        reps = workloads.build_inputs(workload, seed=5)
        workloads.run_pass(workload, reps, 5, str(tmp_path), tracer)
    finally:
        leftovers = tracer.uninstall()
    assert leftovers == []
    for _, owner, attr, _ in layers.TARGETS:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is originals[(id(owner), attr)]

    assert tracer.spans
    spans = {s[0]: dict(zip(layers.SPAN_FIELDS, s)) for s in tracer.spans}
    assert len(spans) == len(tracer.spans)
    descendants_self = {i: 0.0 for i in spans}
    for span in spans.values():
        assert span["self_s"] >= -1e-12
        assert span["self_s"] <= span["end"] - span["start"] + 1e-12
        parent = span["parent"]
        while parent is not None:
            outer = spans[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
            descendants_self[parent] += span["self_s"]
            parent = outer["parent"]
    for i, total in descendants_self.items():
        span = spans[i]
        assert total + span["self_s"] <= span["end"] - span["start"] + 1e-9


def _bogus_verdict(scenario):
    norm = scenario.norms[0]
    instance = NormInstance(norm=norm, norm_id=norm.id, action=("bogus",))
    return Verdict(instance, VIOLATED, IDENTIFIED)


def test_check_rejects_an_unsound_verdict(tmp_path):
    workload = TINY["random-observed"]()
    reps = workloads.build_inputs(workload, seed=2)
    result = workloads.run_pass(workload, reps, 2, str(tmp_path))
    problems, attempted, failed = workloads.check_pass(reps, result, workloads.Oracle())
    assert problems == [] and failed == 0

    outcome = result.outcomes[0]["full"]
    first = outcome.records[0]
    outcome.records[0] = dataclasses.replace(
        first, verdicts=first.verdicts + (_bogus_verdict(reps[0].scenario),)
    )
    problems, attempted, failed = workloads.check_pass(reps, result, workloads.Oracle())
    assert len(problems) == 1 and "no oracle event" in problems[0]
    assert failed == outcome.calls


def test_failed_check_makes_the_command_fail(tiny, capsys, monkeypatch):
    real = workloads.monitor_run

    def unsound(rep, variant, knowledge, latency, recon):
        records, calls, failed = real(rep, variant, knowledge, latency, recon)
        if variant == "approximate" and records:
            bogus = _bogus_verdict(rep.scenario)
            records[0] = dataclasses.replace(records[0], verdicts=records[0].verdicts + (bogus,))
        return records, calls, failed

    monkeypatch.setattr(workloads, "monitor_run", unsound)
    status, report, result = _run(capsys, "random-blind", 0)
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] > 0 and report["problem_count"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-blind"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
