import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from normmon.cli import CSV_HEADER, main

from conftest import FIG1, RUNNING_EXAMPLE_TRACE

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def runner():
    return CliRunner()


CASE_FAST = [
    "case-study",
    "--camera-ratio",
    "1.0",
    "--reps",
    "2",
    "--steps",
    "10",
    "--seed",
    "5",
]


class TestCaseStudy:
    def test_full_observability_row(self, runner):
        result = runner.invoke(main, CASE_FAST)
        assert result.exit_code == 0, result.output
        assert CSV_HEADER in result.output
        assert "1.00,100.00,100.00,100.00,0.00" in result.output

    def test_csv_written_to_out(self, runner, tmp_path):
        out = tmp_path / "row.csv"
        result = runner.invoke(main, CASE_FAST + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_seed_determinism_is_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            trace = tmp_path / (name + ".trace")
            result = runner.invoke(
                main,
                CASE_FAST
                + [
                    "--variant",
                    "approximate",
                    "--out",
                    str(out),
                    "--trace",
                    str(trace),
                ],
            )
            assert result.exit_code == 0, result.output
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_output_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        outs = []
        for hash_seed in ("1", "2", "3"):
            out = tmp_path / f"{hash_seed}.csv"
            trace = tmp_path / f"{hash_seed}.trace"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            args = ["--camera-ratio", "0.5", "--reps", "5", "--steps", "20", "--seed", "11"]
            subprocess.run(
                [sys.executable, "-m", "normmon.cli", "case-study", *args]
                + ["--variant", "approximate", "--out", str(out), "--trace", str(trace)],
                env=env,
                check=True,
                capture_output=True,
            )
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1] == outs[2]

    def test_missing_ratio_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["case-study", "--reps", "1"])
        assert result.exit_code == 2

    def test_zero_reps_is_a_usage_error(self, runner):
        result = runner.invoke(
            main, ["case-study", "--camera-ratio", "0.5", "--reps", "0"]
        )
        assert result.exit_code == 2

    def test_full_variant_size_guard(self, runner):
        result = runner.invoke(
            main,
            [
                "case-study",
                "--camera-ratio",
                "0.5",
                "--offices-max",
                "50",
                "--robots-max",
                "20",
                "--reps",
                "1",
            ],
        )
        assert result.exit_code == 2
        assert "--force" in result.output

    def test_out_dir_env_var(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("NORMMON_OUT_DIR", str(tmp_path))
        result = runner.invoke(main, CASE_FAST + ["--out", "row.csv"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "row.csv").exists()


class TestRandom:
    def test_emits_violation_and_fulfilment_tables(self, runner):
        result = runner.invoke(
            main,
            [
                "random",
                "--obs-prob",
                "0.5",
                "--agents-min",
                "2",
                "--agents-max",
                "3",
                "--actions",
                "4",
                "--reps",
                "2",
                "--steps",
                "10",
                "--variant",
                "approximate",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "-- violations --" in result.output
        assert "-- fulfilments --" in result.output
        assert result.output.count(CSV_HEADER) == 2

    def test_sweep_conflicts_with_single_probability(self, runner):
        result = runner.invoke(
            main, ["random", "--obs-prob", "0.5", "--sweep", "--reps", "1"]
        )
        assert result.exit_code == 2


class TestReplay:
    def test_bundled_fixture(self, runner):
        result = runner.invoke(main, ["replay", RUNNING_EXAMPLE_TRACE, FIG1])
        assert result.exit_code == 0, result.output
        assert "R={move(r3,e,a)}" in result.output
        assert "D={move(r2,d,e)}" in result.output
        assert "0 mismatches" in result.output

    def test_mutated_trace_exits_nonzero(self, runner, tmp_path):
        lines = open(RUNNING_EXAMPLE_TRACE).read().splitlines()
        row = json.loads(lines[1])
        row["verdicts"] = row["verdicts"][1:]
        lines[1] = json.dumps(row, sort_keys=True)
        path = tmp_path / "tampered.trace"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(path), FIG1])
        assert result.exit_code == 1
        assert "tick 0" in result.output

    def test_scenario_declaring_decomposable_is_a_usage_error(self, runner, tmp_path):
        data = json.load(open(FIG1))
        data["decomposable"] = True
        path = tmp_path / "flagged.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["replay", RUNNING_EXAMPLE_TRACE, str(path)])
        assert result.exit_code == 2
        assert "'decomposable' was unexpected" in result.output

    @pytest.mark.parametrize(
        "observed, message",
        [
            (["move(r1,a,b)", "move(r9,a,b)"], "unknown agents ['r9']"),
            (["move(r1,a,b)", "move(r1,a,c)"], "share an actor"),
        ],
    )
    def test_observations_the_monitor_refuses_are_a_usage_error(
        self, runner, tmp_path, observed, message
    ):
        lines = open(RUNNING_EXAMPLE_TRACE).read().splitlines()
        row = json.loads(lines[1])
        row["observed"] = observed
        lines[1] = json.dumps(row, sort_keys=True)
        path = tmp_path / "faulty.trace"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(path), FIG1])
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize(
        "field, value, kind",
        [("scenario", 5, "str"), ("seed", "0", "int"), ("seed", True, "int"), ("variant", [], "str")],
    )
    def test_header_field_of_the_wrong_type_is_refused(
        self, runner, tmp_path, field, value, kind
    ):
        lines = open(RUNNING_EXAMPLE_TRACE).read().splitlines()
        header = {**json.loads(lines[0]), field: value}
        path = tmp_path / "retyped.trace"
        path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
        result = runner.invoke(main, ["replay", str(path), FIG1])
        assert result.exit_code == 2, result.output
        assert f"header {field!r} is not a {kind}" in result.output

    def test_hash_mismatch_is_refused(self, runner, tmp_path, fig1):
        lines = open(RUNNING_EXAMPLE_TRACE).read().splitlines()
        header = json.loads(lines[0])
        header["scenario"] = "f" * 64
        path = tmp_path / "foreign.trace"
        path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
        result = runner.invoke(main, ["replay", str(path), FIG1])
        assert result.exit_code == 2
