"""Estimation-record cache: keys, persistence, damage tolerance."""

import json
import multiprocessing
import os
import re
import sys

import pytest

from repro.analysis.figures import reproduce_figure
from repro.analysis.report import generate_report
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.obs.telemetry import Telemetry
from repro.power.estimator import (
    Estimation,
    EstimationQuery,
    EstimationRecordCache,
    default_registry,
)
from repro.power.estimator.records import (
    RECORDS_FILENAME,
    estimator_code_version,
    record_key,
)
from repro.sim.resilience import ExecutionPolicy, execution_policy
from repro.store.keys import digest
from repro.store.version import ENV_CODE_VERSION


def _query():
    return EstimationQuery.area(BASELINE_GEOMETRY)


def _estimation(total=123.0):
    return Estimation(
        values={"total_fj": total},
        accuracy_pct=85.0,
        backend="library",
    )


class TestRecordKey:
    def test_deterministic(self):
        assert record_key("library", _query()) == record_key(
            "library", _query()
        )

    def test_backend_is_part_of_identity(self):
        assert (
            record_key("library", _query())[0]
            != record_key("analytical", _query())[0]
        )

    def test_key_is_digest_of_meta(self):
        key, meta = record_key("library", _query())
        assert key == digest(meta)
        assert meta["kind"] == "estimation"
        assert meta["code"] == estimator_code_version()

    def test_code_version_rotates_the_key(self, monkeypatch):
        before = record_key("library", _query())[0]
        monkeypatch.setenv(ENV_CODE_VERSION, "deadbeefcafe0000")
        after = record_key("library", _query())[0]
        assert before != after


class TestRoundtrip:
    def test_put_then_get_marks_cached(self, tmp_path):
        cache = EstimationRecordCache(tmp_path)
        key, meta = record_key("library", _query())
        assert cache.get(key) is None
        cache.put(key, meta, _estimation())
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.cached is True
        assert loaded["total_fj"] == 123.0
        assert cache.counters["hits"] == 1
        assert cache.counters["misses"] == 1
        assert cache.counters["puts"] == 1

    def test_directory_path_gets_the_standard_filename(self, tmp_path):
        cache = EstimationRecordCache(tmp_path)
        assert cache.path == tmp_path / RECORDS_FILENAME

    def test_persists_across_instances(self, tmp_path):
        key, meta = record_key("library", _query())
        EstimationRecordCache(tmp_path).put(key, meta, _estimation(7.0))
        reloaded = EstimationRecordCache(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get(key)["total_fj"] == 7.0

    def test_last_writer_wins(self, tmp_path):
        key, meta = record_key("library", _query())
        first = EstimationRecordCache(tmp_path)
        first.put(key, meta, _estimation(1.0))
        first.put(key, meta, _estimation(2.0))
        assert EstimationRecordCache(tmp_path).get(key)["total_fj"] == 2.0


class TestDamage:
    def test_torn_final_line_is_skipped(self, tmp_path):
        key, meta = record_key("library", _query())
        cache = EstimationRecordCache(tmp_path)
        cache.put(key, meta, _estimation())
        with open(cache.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "meta": {"tr')  # torn mid-write
        reloaded = EstimationRecordCache(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.counters["skipped_lines"] == 1
        assert reloaded.get(key) is not None

    def test_put_after_a_torn_tail_is_kept(self, tmp_path):
        keys = [
            record_key("library", EstimationQuery.area(geometry))
            for geometry in (
                BASELINE_GEOMETRY,
                CacheGeometry(32 * 1024, 4, 32),
                CacheGeometry(16 * 1024, 2, 32),
            )
        ]
        cache = EstimationRecordCache(tmp_path)
        for number, (key, meta) in enumerate(keys[:2], start=1):
            cache.put(key, meta, _estimation(float(number)))
        # A crash tore record 2: cut its line 25 bytes short.
        cache.path.write_bytes(cache.path.read_bytes()[:-25])
        key, meta = keys[2]
        EstimationRecordCache(tmp_path).put(key, meta, _estimation(3.0))
        reloaded = EstimationRecordCache(tmp_path)
        assert reloaded.counters["skipped_lines"] == 1
        assert reloaded.get(keys[0][0])["total_fj"] == 1.0
        assert reloaded.get(keys[1][0]) is None
        assert reloaded.get(keys[2][0])["total_fj"] == 3.0

    def test_tampered_meta_fails_digest_check(self, tmp_path):
        key, meta = record_key("library", _query())
        cache = EstimationRecordCache(tmp_path)
        cache.put(key, meta, _estimation())
        document = json.loads(cache.path.read_text().splitlines()[0])
        document["meta"]["backend"] = "somebody-else"
        cache.path.write_text(json.dumps(document) + "\n")
        reloaded = EstimationRecordCache(tmp_path)
        assert len(reloaded) == 0
        assert reloaded.counters["skipped_lines"] == 1

    def test_unwritable_cache_degrades_to_warning(self, tmp_path):
        target = tmp_path / "records.jsonl"
        target.mkdir()  # a directory where the file should be -> OSError
        telemetry = Telemetry(enabled=True)
        cache = EstimationRecordCache(target / "nope.jsonl", telemetry)
        cache.path = target  # open() on a directory raises OSError
        key, meta = record_key("library", _query())
        persisted = cache.put(key, meta, _estimation())
        assert persisted is False
        assert cache.counters["write_failures"] == 1
        # The record is still served from memory for this process.
        assert cache.get(key) is not None
        assert (
            telemetry.registry.value("warning.estimator.cache_unwritable")
            == 1
        )


class TestStats:
    def test_stats_shape(self, tmp_path):
        cache = EstimationRecordCache(tmp_path)
        stats = cache.stats()
        assert stats["records"] == 0
        assert stats["code_version"] == estimator_code_version()
        assert set(cache.counters) <= set(stats)


def _counting_fsyncs(monkeypatch):
    calls = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
    return calls


def _keys(count):
    return [
        record_key("library", EstimationQuery.area(CacheGeometry(1024 << n, 4, 32)))
        for n in range(count)
    ]


#: Estimator-aware figures small enough for a unit test.
REPORT_FIGURES = ("sec5.4", "overheads", "dvfs_energy")


def _estimates(report):
    """A report's figure tables, without the per-figure timings."""
    return re.sub(r"^### (\S+)  \([0-9.]+s\)$", r"### \1", report, flags=re.M)


def _record_then_die(cache_dir):
    registry = default_registry(cache_path=cache_dir)
    reproduce_figure("sec5.4", estimator=registry)
    with registry.cache.batch():
        reproduce_figure("overheads", estimator=registry, accesses=300)
        os._exit(7)


class TestBatch:
    """Records put inside a batch reach the file in one append."""

    def test_one_fsync_per_batch_whatever_the_records(self, tmp_path, monkeypatch):
        cache = EstimationRecordCache(tmp_path)
        calls = _counting_fsyncs(monkeypatch)
        keys = _keys(12)
        for batch in (keys[:1], keys[1:4], keys[4:]):
            del calls[:]
            with cache.batch():
                for key, meta in batch:
                    assert cache.put(key, meta, _estimation()) is True
                assert calls == []
            assert len(calls) == 1
        reloaded = EstimationRecordCache(tmp_path)
        assert len(reloaded) == 12
        assert reloaded.counters["skipped_lines"] == 0

    def test_records_are_served_while_queued(self, tmp_path):
        cache = EstimationRecordCache(tmp_path)
        (key, meta), = _keys(1)
        with cache.batch():
            cache.put(key, meta, _estimation(5.0))
            assert cache.get(key)["total_fj"] == 5.0
            assert not cache.path.exists()
        assert EstimationRecordCache(tmp_path).get(key)["total_fj"] == 5.0

    def test_unwritable_batch_counts_every_queued_record(self, tmp_path):
        target = tmp_path / "records.jsonl"
        target.mkdir()
        telemetry = Telemetry(enabled=True)
        cache = EstimationRecordCache(target / "nope.jsonl", telemetry)
        cache.path = target  # open() on a directory raises OSError
        with cache.batch():
            for key, meta in _keys(5):
                cache.put(key, meta, _estimation())
        assert cache.counters["write_failures"] == 5
        assert cache.counters["puts"] == 5
        assert (
            telemetry.registry.value("warning.estimator.cache_unwritable")
            == 1
        )

    def test_a_figure_makes_one_append(self, tmp_path, monkeypatch):
        registry = default_registry(cache_path=tmp_path)
        calls = _counting_fsyncs(monkeypatch)
        reproduce_figure("dvfs_energy", estimator=registry, accesses=300)
        assert len(calls) == 1
        assert len(registry.cache.path.read_text().splitlines()) > 1

    def test_a_crash_inside_a_batch_loses_that_batch_only(self, tmp_path):
        cache_dir = tmp_path / "estimates"
        ctx = multiprocessing.get_context(
            "fork" if sys.platform != "win32" else "spawn"
        )
        child = ctx.Process(target=_record_then_die, args=(cache_dir,))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 7
        survived = EstimationRecordCache(cache_dir)
        assert survived.counters["skipped_lines"] == 0
        # The sec5.4 batch ended before the crash; the overheads one not.
        area_only = default_registry(cache_path=tmp_path / "area")
        reproduce_figure("sec5.4", estimator=area_only)
        assert len(survived) == len(area_only.cache) > 0
        clean = generate_report(accesses=300, figure_ids=REPORT_FIGURES)
        with execution_policy(ExecutionPolicy(estimator_cache=str(cache_dir))):
            resumed = generate_report(accesses=300, figure_ids=REPORT_FIGURES)
        assert _estimates(resumed) == _estimates(clean)
