"""Ledger tests: append/read round-trip, torn lines, schema skew."""

import json

import pytest

from repro.errors import ValidationError
from repro.obs.perf import (
    LEDGER_SCHEMA_VERSION,
    append_run,
    read_ledger,
    run_record,
)
from tests.obs.perf.conftest import (
    ENV,
    WORKLOAD,
    make_record,
    make_schema1_record,
    result_dict,
)


class TestRunRecord:
    def test_record_shape(self):
        record = make_record({"conventional": 8.0})
        assert record["schema"] == LEDGER_SCHEMA_VERSION
        assert record["benchmark"] == "bwaves"
        assert record["env"]["hostname"] == "testhost"
        (result,) = record["results"]
        assert result["technique"] == "conventional"
        assert result["speedup"] == 8.0

    def test_accepts_bench_result_objects(self):
        class FakeBenchResult:
            def to_dict(self):
                return result_dict("rmw", 7.5)

        record = run_record(
            [FakeBenchResult()],
            benchmark="bwaves",
            geometry="g",
            accesses=10,
            seed=1,
            repeats=1,
            env=ENV,
            timestamp="2026-08-08T10:00:00+00:00",
        )
        assert record["results"][0]["technique"] == "rmw"

    def test_rejects_non_result_payloads(self):
        with pytest.raises(ValidationError):
            run_record(
                ["not-a-result"],
                benchmark="bwaves",
                geometry="g",
                accesses=10,
                seed=1,
                repeats=1,
                env=ENV,
                timestamp="t",
            )


class TestAppendRead:
    def test_round_trip(self, ledger_path):
        append_run(ledger_path, make_record({"conventional": 8.0, "wg": 4.1}))
        append_run(
            ledger_path,
            make_record(
                {"conventional": 8.2}, timestamp="2026-08-08T11:00:00+00:00"
            ),
        )
        entries = read_ledger(ledger_path)
        assert len(entries) == 2
        first, second = entries
        assert first.speedup("conventional") == 8.0
        assert first.speedup("wg") == 4.1
        assert first.speedup("rmw") is None
        assert second.timestamp_utc == "2026-08-08T11:00:00+00:00"
        assert first.matches_workload(**WORKLOAD)

    def test_missing_file_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "nope.jsonl") == []

    def test_append_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "ledger.jsonl"
        append_run(path, make_record({"wg": 4.0}))
        assert len(read_ledger(path)) == 1

    def test_append_rejects_arbitrary_dicts(self, ledger_path):
        with pytest.raises(ValidationError):
            append_run(ledger_path, {"speedup": 8.0})

    def test_torn_final_line_is_skipped(self, ledger_path):
        append_run(ledger_path, make_record({"wg": 4.0}))
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "benchmark": "bw')  # killed mid-write
        skipped = []
        entries = read_ledger(
            ledger_path, on_skip=lambda n, why: skipped.append((n, why))
        )
        assert len(entries) == 1
        assert skipped and skipped[0][0] == 2

    def test_append_after_a_torn_tail_is_kept(self, ledger_path):
        for hour in (10, 11):
            append_run(
                ledger_path,
                make_record({"wg": 4.0}, timestamp=f"2026-08-08T{hour}:00:00"),
            )
        # A crash tore run 2: cut its line 25 bytes short.
        ledger_path.write_bytes(ledger_path.read_bytes()[:-25])
        append_run(
            ledger_path, make_record({"wg": 5.0}, timestamp="2026-08-08T12:00:00")
        )
        skipped = []
        entries = read_ledger(
            ledger_path, on_skip=lambda n, why: skipped.append(n)
        )
        assert [entry.timestamp_utc for entry in entries] == [
            "2026-08-08T10:00:00",
            "2026-08-08T12:00:00",
        ]
        assert skipped == [2]
        assert ledger_path.read_text().count("\n") == 3  # no blank line

    def test_future_schema_is_skipped_not_guessed(self, ledger_path):
        append_run(ledger_path, make_record({"wg": 4.0}))
        future = make_record({"wg": 9.9})
        future["schema"] = LEDGER_SCHEMA_VERSION + 1
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(future) + "\n")
        entries = read_ledger(ledger_path)
        assert len(entries) == 1
        assert entries[0].speedup("wg") == 4.0

    def test_schema_1_records_still_parse(self, ledger_path):
        append_run(ledger_path, make_schema1_record({"wg": 3.5}))
        append_run(ledger_path, make_record({"wg": 6.0}))
        old, new = read_ledger(ledger_path)
        assert old.schema == 1 and not old.current_schema
        assert old.speedup("wg") == 3.5
        assert old.results["wg"]["batched_seconds"] == pytest.approx(1 / 3.5)
        assert new.schema == LEDGER_SCHEMA_VERSION == 2
        assert new.current_schema
        assert new.columnar_aps("wg") == pytest.approx(6.0 * 200_000)

    def test_blank_lines_ignored(self, ledger_path):
        append_run(ledger_path, make_record({"wg": 4.0}))
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(read_ledger(ledger_path)) == 1


class TestEntryAccessors:
    def test_provenance_shorthands(self, ledger_path):
        record = make_record({"wg": 4.0})
        record["env"]["commit"] = "deadbeef" * 5 + "+dirty"
        append_run(ledger_path, record)
        (entry,) = read_ledger(ledger_path)
        assert entry.short_commit == "deadbeefde+dirty"
        assert entry.hostname == "testhost"
        assert entry.short_timestamp == "2026-08-08 10:00"

    def test_unknown_env_degrades_gracefully(self, ledger_path):
        record = make_record({"wg": 4.0})
        record["env"] = {}
        append_run(ledger_path, record)
        (entry,) = read_ledger(ledger_path)
        assert entry.commit == "unknown"
        assert entry.short_commit == "unknown"
        assert entry.hostname == "unknown"

    def test_workload_mismatch(self, ledger_path):
        append_run(ledger_path, make_record({"wg": 4.0}))
        (entry,) = read_ledger(ledger_path)
        assert not entry.matches_workload("mcf", WORKLOAD["geometry"], 200_000)
        assert not entry.matches_workload("bwaves", "other", 200_000)
        assert not entry.matches_workload(
            "bwaves", WORKLOAD["geometry"], 100
        )
