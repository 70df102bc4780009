import json

import pytest

from normmon.monitor import NormMonitor
from normmon.trace import (
    TraceError,
    read_trace,
    replay_trace,
    write_trace,
)

from conftest import RUNNING_EXAMPLE_TRACE


@pytest.fixture
def example_run(fig1, inst):
    observations = [
        [inst("move(r1,a,b)")],
        [inst("move(r1,b,c)"), inst("move(r3,a,b)")],
    ]
    monitor = NormMonitor(fig1, variant="approximate")
    return observations, monitor.run(observations)


class TestRoundTrip:
    def test_write_read_replay(self, tmp_path, fig1, example_run):
        _, records = example_run
        path = str(tmp_path / "run.trace")
        write_trace(path, fig1, 7, "approximate", records)
        header, rows = read_trace(path)
        assert header["seed"] == 7
        assert header["variant"] == "approximate"
        assert len(rows) == len(records)
        diffs, _ = replay_trace(fig1, header, rows)
        assert diffs == []

    def test_bundled_fixture_replays_cleanly(self, fig1):
        header, rows = read_trace(RUNNING_EXAMPLE_TRACE)
        diffs, records = replay_trace(fig1, header, rows)
        assert diffs == []
        assert [str(a) for a in records[0].reconstructed] == ["move(r3,e,a)"]
        assert [str(a) for a in records[0].discovered] == ["move(r2,d,e)"]


class TestTamperDetection:
    def test_edited_verdict_names_the_tick(self, tmp_path, fig1, example_run):
        _, records = example_run
        path = str(tmp_path / "run.trace")
        write_trace(path, fig1, 0, "approximate", records)
        lines = open(path).read().splitlines()
        row = json.loads(lines[1])
        row["verdicts"][0]["culprit"] = "r1"
        lines[1] = json.dumps(row, sort_keys=True)
        open(path, "w").write("\n".join(lines) + "\n")
        header, rows = read_trace(path)
        diffs, _ = replay_trace(fig1, header, rows)
        assert len(diffs) == 1 and diffs[0].startswith("tick 0:")

    def test_foreign_scenario_is_refused(self, tmp_path, fig1, example_run):
        _, records = example_run
        path = str(tmp_path / "run.trace")
        write_trace(path, fig1, 0, "approximate", records)
        header, rows = read_trace(path)
        header["scenario"] = "0" * 64
        with pytest.raises(TraceError):
            replay_trace(fig1, header, rows)

    def test_gap_in_ticks_is_rejected(self, tmp_path, fig1, example_run):
        _, records = example_run
        path = str(tmp_path / "run.trace")
        write_trace(path, fig1, 0, "approximate", records)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join([lines[0]] + lines[2:]) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError):
            read_trace(str(path))


@pytest.mark.parametrize(
    "row",
    [
        {"tick": 0},
        [0],
        {"tick": 0, "observed": "move(r1,a,b)", "verdicts": []},
        {"tick": 0, "observed": ["move(r1,a,b)"], "verdicts": [{"norm": "x"}]},
    ],
    ids=["no-observed", "not-an-object", "observed-text", "verdict-fields"],
)
def test_malformed_row_raises_trace_error(tmp_path, fig1, row):
    header = open(RUNNING_EXAMPLE_TRACE).read().splitlines()[0]
    path = tmp_path / "bad.trace"
    path.write_text(header + "\n" + json.dumps(row) + "\n")
    with pytest.raises(TraceError, match="line 2"):
        replay_trace(fig1, *read_trace(str(path)))
