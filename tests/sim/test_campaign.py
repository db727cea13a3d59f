"""Unit tests for the campaign runner (kept small and fast)."""

import dataclasses
import json

import pytest

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.sim.campaign import (
    deserialize_row,
    execute_row,
    run_campaign,
    run_geometry_sweep,
    serialize_row,
)
from repro.sim.experiment import ExperimentConfig

BENCHMARKS = ("bwaves", "mcf", "gcc")


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        benchmarks=BENCHMARKS,
        accesses_per_benchmark=4000,
        seed=7,
    )


@pytest.fixture(scope="module")
def campaign(config):
    return run_campaign(config)


class TestCampaign:
    def test_one_row_per_benchmark(self, campaign):
        assert [row.benchmark for row in campaign.rows] == list(BENCHMARKS)

    def test_row_lookup(self, campaign):
        assert campaign.row("mcf").benchmark == "mcf"
        with pytest.raises(ValueError):
            campaign.row("nope")

    def test_reductions_sane(self, campaign):
        for row in campaign.rows:
            assert 0.0 <= row.access_reduction("wg") < 1.0
            assert row.access_reduction("wg_rb") >= row.access_reduction("wg")

    def test_mean_and_max(self, campaign):
        reductions = [row.access_reduction("wg") for row in campaign.rows]
        assert campaign.mean_reduction("wg") == pytest.approx(
            sum(reductions) / len(reductions)
        )
        assert campaign.max_reduction("wg") == pytest.approx(max(reductions))

    def test_best_benchmark(self, campaign):
        assert campaign.best_benchmark("wg") == "bwaves"

    def test_rmw_overhead_stats(self, campaign):
        assert 0.0 < campaign.mean_rmw_overhead < 1.0
        assert campaign.max_rmw_overhead >= campaign.mean_rmw_overhead

    def test_warmup_excluded_from_requests(self, campaign, config):
        expected = config.accesses_per_benchmark - config.warmup_accesses
        for row in campaign.rows:
            for result in row.results.values():
                assert result.requests == expected


class TestRowSerialisation:
    def test_roundtrip_is_exact(self):
        config = ExperimentConfig(
            geometry=BASELINE_GEOMETRY,
            benchmarks=("bwaves", "mcf"),
            techniques=("rmw", "wg"),
            accesses_per_benchmark=1500,
            seed=11,
        )
        row = execute_row("bwaves", config)
        payload = serialize_row(row)
        # Must survive an actual JSON encode/decode, as the store does.
        restored = deserialize_row(json.loads(json.dumps(payload)))
        assert restored.benchmark == row.benchmark
        assert set(restored.results) == set(row.results)
        for technique, result in row.results.items():
            other = restored.results[technique]
            assert dataclasses.asdict(other.counts) == dataclasses.asdict(
                result.counts
            )
            assert other.events.to_dict() == result.events.to_dict()
            assert dataclasses.asdict(other.cache_stats) == dataclasses.asdict(
                result.cache_stats
            )
            assert other.geometry == result.geometry
            assert other.requests == result.requests


class TestGeometrySweep:
    def test_sweep_keys(self, config):
        geometries = (
            CacheGeometry(32 * 1024, 4, 32),
            CacheGeometry(128 * 1024, 4, 32),
        )
        sweep = run_geometry_sweep(config, geometries)
        assert set(sweep) == {"32KB/4-way/32B", "128KB/4-way/32B"}
        for result in sweep.values():
            assert len(result.rows) == len(BENCHMARKS)


class TestCampaignTelemetry:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "reset_telemetry_counters zeroes the shared registry at every "
            "row's warm-up boundary, so a sequential campaign reports only "
            "the last row's ctrl.* counters (a parallel one sums its rows)"
        ),
    )
    def test_ctrl_counters_sum_over_rows(self):
        from repro.obs.telemetry import Telemetry

        config = ExperimentConfig(
            benchmarks=("bwaves", "mcf"), accesses_per_benchmark=500
        )
        telemetry = Telemetry()
        result = run_campaign(config, telemetry=telemetry)
        for technique in config.techniques:
            assert telemetry.registry.value(
                f"ctrl.{technique}.read_requests"
            ) == sum(
                row.results[technique].counts.read_requests
                for row in result.rows
            )


class TestScopedStore:
    """Inside a memo scope (one report) campaigns share one store open."""

    SMALL = ExperimentConfig(
        benchmarks=("bwaves", "mcf"), accesses_per_benchmark=300, seed=7
    )

    @staticmethod
    def counting_opens(monkeypatch):
        from repro.store import ResultStore

        opens = []
        init = ResultStore.__init__

        def counting(self, *args, **kwargs):
            opens.append(args[0] if args else kwargs["root"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "__init__", counting)
        return opens

    def test_each_campaign_opens_its_own_store_outside_a_scope(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        run_campaign(self.SMALL, result_cache=root)
        opens = self.counting_opens(monkeypatch)
        for _ in range(4):
            warm = run_campaign(self.SMALL, result_cache=root)
            assert warm.health.cached == 2
        assert len(opens) == 4

    def test_one_open_per_scope_and_root(self, tmp_path, monkeypatch):
        from repro.utils.memo import memo_scope

        run_campaign(self.SMALL, result_cache=tmp_path / "a")
        opens = self.counting_opens(monkeypatch)
        with memo_scope():
            for _ in range(4):
                warm = run_campaign(self.SMALL, result_cache=tmp_path / "a")
                assert warm.health.cached == 2
            run_campaign(self.SMALL, result_cache=tmp_path / "b")
        assert opens == [tmp_path / "a", tmp_path / "b"]
        with memo_scope():
            run_campaign(self.SMALL, result_cache=tmp_path / "a")
        assert len(opens) == 3

    def test_events_reach_the_campaign_that_caused_them(self, tmp_path):
        from repro.obs.telemetry import Telemetry
        from repro.utils.memo import memo_scope

        root = tmp_path / "store"
        run_campaign(self.SMALL, result_cache=root)
        wider = dataclasses.replace(
            self.SMALL, benchmarks=("bwaves", "mcf", "gcc")
        )
        first, second = Telemetry(), Telemetry()
        with memo_scope():
            run_campaign(self.SMALL, first, result_cache=root)
            run_campaign(wider, second, result_cache=root)
        assert first.registry.value("store.hit") == 2
        assert first.registry.value("store.miss") == 0
        assert second.registry.value("store.hit") == 2
        assert second.registry.value("store.miss") == 1

    def test_a_lookup_pass_makes_one_index_fsync(self, tmp_path, monkeypatch):
        import os

        config = dataclasses.replace(self.SMALL, benchmarks=BENCHMARKS)
        root = tmp_path / "store"
        run_campaign(config, result_cache=root)
        calls = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
        warm = run_campaign(config, result_cache=root)
        assert warm.health.cached == len(BENCHMARKS)
        assert len(calls) == 1

    def test_an_unwritable_journal_keeps_the_served_rows(
        self, tmp_path, monkeypatch
    ):
        import repro.store.index
        from repro.obs.telemetry import Telemetry

        root = tmp_path / "store"
        run_campaign(self.SMALL, result_cache=root)

        def refuse(path, lines):
            if lines:
                raise OSError("read-only journal")

        monkeypatch.setattr(repro.store.index, "append_lines", refuse)
        telemetry = Telemetry()
        warm = run_campaign(self.SMALL, telemetry, result_cache=root)
        assert warm.health.cached == 2
        assert telemetry.registry.value("warning.store.get_failed") == 1
