"""Trend-report tests: sparklines, deltas, markdown structure."""

import pytest

from repro.errors import ValidationError
from repro.obs.perf import append_run, read_ledger, render_trend, write_trend_report
from repro.obs.perf.trend import _delta, sparkline
from tests.obs.perf.conftest import make_record, make_schema1_record


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_uses_middle_block(self):
        assert sparkline([4.0, 4.0, 4.0]) == "▄▄▄"

    def test_monotone_series_spans_the_ramp(self):
        line = sparkline([1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 3


class TestDelta:
    def test_first_run(self):
        assert _delta(8.0, None) == "· first run"

    def test_up_down_and_flat(self):
        assert _delta(8.2, 8.0) == "▲ +0.20x"
        assert _delta(7.8, 8.0) == "▼ -0.20x"
        assert _delta(8.001, 8.0).startswith("·")


class TestRenderTrend:
    def test_empty_ledger_message(self):
        text = render_trend([])
        assert "ledger is empty" in text
        assert "repro-8t bench --history" in text

    def test_tables_and_provenance(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        text = render_trend(entries)
        assert "## Per-technique trajectory" in text
        assert "## Recent runs" in text
        assert "`testhost`" in text
        assert "Ledger runs: **5**" in text
        # One trajectory row per technique, sorted.
        conv_row = next(
            line for line in text.splitlines()
            if line.startswith("| conventional |")
        )
        assert "8.00x" in conv_row  # latest of the seeded series
        assert "`" in conv_row  # sparkline cell

    def test_window_and_recent_bound_the_tables(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        text = render_trend(entries, window=3, recent_runs=2)
        assert "(showing the last 3)" in text
        run_rows = [
            line for line in text.splitlines()
            if line.startswith("| 2026-")
        ]
        assert len(run_rows) == 2

    def test_technique_missing_from_some_runs(self, ledger_path):
        append_run(ledger_path, make_record({"conventional": 8.0}))
        append_run(
            ledger_path,
            make_record(
                {"conventional": 8.1, "wg": 4.0},
                timestamp="2026-08-08T11:00:00+00:00",
            ),
        )
        text = render_trend(read_ledger(ledger_path))
        # wg appears with a single-sample row and a "-" cell for the
        # run that did not measure it.
        assert "| wg | 4.00x | · first run |" in text
        assert "| - |" in text or "| - " in text

    def test_only_current_schema_runs_are_trended(self, ledger_path):
        append_run(ledger_path, make_schema1_record({"wg": 3.5}))
        assert "ledger is empty" in render_trend(read_ledger(ledger_path))
        append_run(
            ledger_path,
            make_record({"wg": 6.0}, timestamp="2026-08-08T11:00:00+00:00"),
        )
        text = render_trend(read_ledger(ledger_path))
        assert "Ledger runs: **1**" in text
        assert "| wg | 6.00x | · first run |" in text
        assert "3.50x" not in text

    def test_bad_parameters_rejected(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        with pytest.raises(ValidationError):
            render_trend(entries, window=0)
        with pytest.raises(ValidationError):
            render_trend(entries, recent_runs=0)


class TestWriteTrendReport:
    def test_writes_and_creates_parents(self, tmp_path, seeded_ledger):
        out = tmp_path / "docs" / "perf-trend.md"
        path = write_trend_report(out, read_ledger(seeded_ledger))
        assert path == out
        assert out.read_text(encoding="utf-8").startswith(
            "# Hot-path performance trend"
        )
