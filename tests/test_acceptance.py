"""End-to-end acceptance gate: one test per acceptance criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with -s,
or in the captured output of failing tests) before asserting, so a full run
yields exactly one verdict line per criterion.
"""

import random
import time

import pytest
from click.testing import CliRunner

from normmon.cli import main
from normmon.harness import RandomConfig, generate_random, repetition_seed, simulate
from normmon.logic import LiteralSet
from normmon.monitor import NormMonitor
from normmon.norms import IDENTIFIED, VIOLATED
from normmon.reconstruction import approximate_reconstruct, full_reconstruct, search

from test_reconstruction import EXPECTED_F, closed_state


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _violation_cells(metrics):
    """(traditional, full, approx identified, approx discovered) percentages."""
    return (
        metrics.pooled_rate("traditional", "identified_violations", "gt_violations"),
        metrics.pooled_rate("full", "identified_violations", "gt_violations"),
        metrics.pooled_rate("approximate", "identified_violations", "gt_violations"),
        metrics.pooled_rate("approximate", "discovered_violations", "gt_violations"),
    )


class TestCriterion1WorkedExample:
    def test_worked_example_equivalence(self, fig1, inst):
        start = time.perf_counter()
        observations = [
            [inst("move(r1,a,b)")],
            [inst("move(r1,b,c)"), inst("move(r3,a,b)")],
        ]
        problems = []

        monitor = NormMonitor(fig1, variant="traditional")
        for obs in observations:
            monitor.advance(obs)
        expected_p1 = frozenset(
            {
                (("in", "r1", "b"), True),
                (("in", "r1", "a"), False),
                (("in", "r3", "a"), True),
            }
        )
        if monitor.prev.snapshot() != expected_p1:
            problems.append("pre-reconstruction p1 mismatch")

        i = closed_state(fig1, [("in", "r1", "a"), ("in", "r2", "d"), ("in", "r3", "e")])
        f = LiteralSet(sorted(expected_p1))
        observed = [inst("move(r1,a,b)")]
        solutions, cap_hit = search(fig1, i, f, observed, ["r2", "r3"])
        if cap_hit or sorted(tuple(str(a) for a in s) for s in solutions) != [
            ("move(r2,d,a)", "move(r3,e,a)"),
            ("move(r2,d,e)", "move(r3,e,a)"),
        ]:
            problems.append("solution set mismatch")
        outcome, _ = full_reconstruct(fig1, i, f, observed, ["r2", "r3"])
        if [str(a) for a in outcome.reconstructed] != ["move(r3,e,a)"]:
            problems.append("R mismatch")
        if f.snapshot() != frozenset(EXPECTED_F):
            problems.append("updated p1 mismatch")

        i = closed_state(fig1, [("in", "r1", "a"), ("in", "r2", "d"), ("in", "r3", "e")])
        f = LiteralSet(sorted(expected_p1))
        outcome, _ = approximate_reconstruct(fig1, i, f, observed, ["r2", "r3"])
        if outcome.candidate_counts != {"r2": 2, "r3": 1}:
            problems.append("approximate candidate table mismatch")
        if [str(a) for a in outcome.discovered] != ["move(r2,d,e)"]:
            problems.append("D mismatch")

        records = NormMonitor(fig1, variant="full").run(observations)
        identified = [
            v
            for v in records[0].verdicts
            if v.mode == IDENTIFIED and v.status == VIOLATED
        ]
        if not (
            len(identified) == 1
            and identified[0].culprit == "r3"
            and str(identified[0].witness) == "move(r3,e,a)"
        ):
            problems.append("identified violation mismatch")

        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            problems.append(f"took {elapsed:.2f}s")
        _report(1, not problems, "; ".join(problems) or f"exact match in {elapsed:.2f}s")


class TestCriterion2BoundaryRows:
    def test_boundary_rows_are_exact(self, case_study_sweep):
        m0, t0 = case_study_sweep[0.0]
        m1, t1 = case_study_sweep[1.0]
        cells0 = _violation_cells(m0)
        cells1 = _violation_cells(m1)
        problems = []
        if cells0[0] != 0.0:
            problems.append(f"traditional at ratio 0 detected {cells0[0]:.2f}%")
        if cells1[:3] != (100.0, 100.0, 100.0) or cells1[3] != 0.0:
            problems.append(f"ratio 1 row is {cells1}")
        if t0 + t1 >= 120.0:
            problems.append(f"boundary rows took {t0 + t1:.0f}s")
        _report(
            2,
            not problems,
            "; ".join(problems) or f"exact boundary rows in {t0 + t1:.0f}s",
        )


class TestCriterion3Trend:
    # Reference detection rates for the small-scenario observability
    # experiment: ratio -> (traditional, full, approx identified, discovered).
    REFERENCE = {
        0.0: (0, 0, 0, 0),
        0.2: (16, 32, 32, 6),
        0.4: (32, 68, 67, 5),
        0.6: (56, 88, 88, 3),
        0.8: (76, 99, 99, 0),
        1.0: (100, 100, 100, 0),
    }
    LABELS = ("traditional", "full", "approx identified", "approx discovered")

    def test_rates_track_reference_within_10_points(self, case_study_sweep):
        problems = []
        total = sum(wall for _, wall in case_study_sweep.values())
        means = {label: [] for label in self.LABELS[:3]}
        for ratio, reference in sorted(self.REFERENCE.items()):
            metrics, _ = case_study_sweep[ratio]
            cells = _violation_cells(metrics)
            for label, got, want in zip(self.LABELS, cells, reference):
                if abs(got - want) > 10.0:
                    problems.append(
                        f"ratio {ratio:.1f} {label}: {got:.0f}% vs reference {want}%"
                    )
            for label, got in zip(self.LABELS, cells):
                if label in means:
                    means[label].append(got)
        for label, series in means.items():
            if any(b < a - 1e-9 for a, b in zip(series, series[1:])):
                problems.append(f"{label} means not monotone: {series}")
        if total >= 1800.0:
            problems.append(f"sweep took {total:.0f}s")
        _report(3, not problems, "; ".join(problems) or f"all cells within 10pp, {total:.0f}s")


class TestCriterion4Soundness:
    def test_soundness_properties_hold(self, soundness_report):
        ok = (
            soundness_report["scenarios"] >= 200
            and not soundness_report["failures"]
        )
        detail = (
            f"{soundness_report['scenarios']} scenarios, "
            f"{soundness_report['full_calls']} reconstructions, "
            f"{len(soundness_report['failures'])} counterexamples"
        )
        if soundness_report["failures"]:
            detail += ": " + "; ".join(soundness_report["failures"][:3])
        _report(4, ok, detail)


class TestCriterion5SearchOracle:
    def test_search_equals_brute_force(self, search_oracle_report):
        ok = (
            search_oracle_report["instances"] >= 100
            and search_oracle_report["conditioned"] >= 20
            and not search_oracle_report["mismatches"]
        )
        detail = (
            f"{search_oracle_report['instances']} instances "
            f"({search_oracle_report['conditioned']} with concurrency conditions), "
            f"{len(search_oracle_report['mismatches'])} mismatches"
        )
        _report(5, ok, detail)


class TestCriterion6Dominance:
    def test_approximate_dominates_traditional_per_run(self, case_study_sweep):
        pairs = 0
        violations = []
        for ratio, (metrics, _) in sorted(case_study_sweep.items()):
            trad = metrics.per_run["traditional"]
            approx = metrics.per_run["approximate"]
            for idx, (a, b) in enumerate(zip(trad, approx)):
                pairs += 1
                lower = a.identified_violations + a.identified_fulfilments
                upper = b.identified_violations + b.identified_fulfilments
                if upper < lower:
                    violations.append(f"ratio {ratio:.1f} run {idx}: {upper} < {lower}")
        ok = pairs >= 100 and not violations
        detail = f"{pairs} paired runs, {len(violations)} dominance violations"
        if violations:
            detail += ": " + "; ".join(violations[:3])
        _report(6, ok, detail)


class TestCriterion7CostAsymmetry:
    def test_full_reconstruction_is_an_order_of_magnitude_slower(self):
        # Worst-case regime for the exhaustive search: nothing observed and
        # an uninformed monitor, so candidate rows stay unpruned.
        cfg = RandomConfig(
            agents=5,
            actions=8,
            observation_probability=0.0,
            steps=50,
            repetitions=500,
            seed=0,
        )
        seconds = {"full": 0.0, "approximate": 0.0}
        ticks = {"full": 0, "approximate": 0}
        for idx in range(cfg.repetitions):
            rng = random.Random(repetition_seed(cfg.seed, idx))
            scenario = generate_random(cfg, rng)
            log = simulate(scenario, cfg.steps, rng)
            for variant in seconds:
                records = NormMonitor(
                    scenario, variant=variant, initial_knowledge="empty"
                ).run(log.observed)
                seconds[variant] += sum(r.reconstruction_seconds for r in records)
                ticks[variant] += sum(
                    1 for r in records if r.reconstruction_ran
                )
        full_ms = 1000.0 * seconds["full"] / max(ticks["full"], 1)
        approx_ms = 1000.0 * seconds["approximate"] / max(ticks["approximate"], 1)
        ratio = full_ms / approx_ms if approx_ms else float("inf")
        _report(
            7,
            ratio >= 10.0,
            f"full {full_ms:.3f} ms/tick vs approximate {approx_ms:.3f} ms/tick "
            f"({ratio:.1f}x over {ticks['full']} ticks)",
        )


class TestCriterion8Determinism:
    def test_fixed_seed_output_is_byte_identical(self, tmp_path):
        runner = CliRunner()
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.csv"
            trace = tmp_path / f"{name}.trace"
            result = runner.invoke(
                main,
                [
                    "case-study",
                    "--camera-ratio",
                    "0.5",
                    "--reps",
                    "5",
                    "--steps",
                    "20",
                    "--seed",
                    "11",
                    "--variant",
                    "approximate",
                    "--out",
                    str(out),
                    "--trace",
                    str(trace),
                ],
            )
            assert result.exit_code == 0, result.output
            payloads.append((out.read_bytes(), trace.read_bytes()))
        ok = payloads[0] == payloads[1]
        _report(8, ok, "CSV and trace byte-identical across two runs")
