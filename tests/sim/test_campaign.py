"""Unit tests for the campaign runner (kept small and fast)."""

import dataclasses
import json

import pytest

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.errors import ReproError
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


class TestRowPayload:
    """``serialize_row`` builds its field dicts without ``asdict``."""

    @pytest.mark.parametrize("warmup_fraction", (0.0, 0.1))
    def test_equals_the_asdict_form(self, warmup_fraction):
        config = ExperimentConfig(
            benchmarks=("mcf",),
            accesses_per_benchmark=1200,
            seed=5,
            warmup_fraction=warmup_fraction,
        )
        row = execute_row("mcf", config)
        expected = {
            "benchmark": row.benchmark,
            "results": {
                technique: {
                    "technique": result.technique,
                    "geometry": {
                        name: getattr(result.geometry, name)
                        for name in (
                            "size_bytes",
                            "associativity",
                            "block_bytes",
                            "address_bits",
                        )
                    },
                    "requests": result.requests,
                    "events": result.events.to_dict(),
                    "counts": dataclasses.asdict(result.counts),
                    "cache_stats": dataclasses.asdict(result.cache_stats),
                }
                for technique, result in row.results.items()
            },
        }
        assert serialize_row(row) == expected

    def test_stored_geometries_are_shared_and_still_validated(self):
        config = ExperimentConfig(
            benchmarks=("mcf",), accesses_per_benchmark=600, seed=5
        )
        payload = json.loads(json.dumps(serialize_row(execute_row("mcf", config))))
        first, second = deserialize_row(payload), deserialize_row(payload)
        geometries = {
            id(result.geometry)
            for row in (first, second)
            for result in row.results.values()
        }
        assert len(geometries) == 1
        assert first.results["wg"].geometry == config.geometry
        # An equal float must not be served the memoised int geometry.
        payload["results"]["wg"]["geometry"]["size_bytes"] = 65536.0
        with pytest.raises(ReproError):
            deserialize_row(payload)
        payload["results"]["wg"]["geometry"]["size_bytes"] = 3000
        with pytest.raises(ReproError):
            deserialize_row(payload)


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


    def test_each_row_times_every_technique(self):
        """Observed rows run each technique under ``warmup.<t>`` and
        ``measure.<t>`` spans, as ``repro-8t profile`` reports them."""
        from repro.obs.telemetry import Telemetry

        config = ExperimentConfig(
            benchmarks=("bwaves", "mcf", "gcc"), accesses_per_benchmark=500
        )
        telemetry = Telemetry()
        result = run_campaign(config, telemetry=telemetry)
        registry = telemetry.registry
        assert registry.value("span.trace_gen.calls") == len(result.rows) == 3
        for technique in config.techniques:
            for phase in ("warmup", "measure"):
                assert registry.value(f"span.{phase}.{technique}.calls") == 3


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

    def test_a_removed_shard_is_made_again_not_warned(self, tmp_path):
        import shutil

        from repro.obs.telemetry import Telemetry
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        run_campaign(self.SMALL, result_cache=store)
        shutil.rmtree(store.objects_dir)
        telemetry = Telemetry()
        again = run_campaign(self.SMALL, telemetry, result_cache=store)
        assert again.health.recomputed == 2
        assert telemetry.registry.value("warning.store.put_failed") == 0
        warm = run_campaign(self.SMALL, result_cache=store)
        assert warm.health.cached == 2


class TestDerivedRows:
    """Inside a memo scope a row without telemetry takes the paper's
    techniques from one conventional traversal, which builds no
    ``Simulator``."""

    SMALL = ExperimentConfig(
        benchmarks=("bwaves", "mcf", "gcc"), accesses_per_benchmark=600, seed=7
    )

    @staticmethod
    def counting(monkeypatch):
        """Tally ``Simulator`` builds and ``_run_one`` calls by technique,
        and list the traversals."""
        from collections import Counter

        import repro.sim.campaign as campaign_module
        from repro.sim.simulator import Simulator

        from tests.conftest import count_traversals

        built, own_runs = Counter(), Counter()
        init, run_one = Simulator.__init__, campaign_module._run_one

        def counting_init(self, technique, *args, **kwargs):
            built[technique] += 1
            init(self, technique, *args, **kwargs)

        def counting_run_one(trace, technique, *args, **kwargs):
            own_runs[technique] += 1
            return run_one(trace, technique, *args, **kwargs)

        monkeypatch.setattr(Simulator, "__init__", counting_init)
        monkeypatch.setattr(campaign_module, "_run_one", counting_run_one)
        return built, own_runs, count_traversals(monkeypatch)

    def test_rows_equal_the_rows_outside_a_scope(self, monkeypatch):
        from repro.utils.memo import memo_scope

        alone = run_campaign(self.SMALL)
        built, own_runs, walked = self.counting(monkeypatch)
        with memo_scope():
            shared = run_campaign(self.SMALL)
        assert [serialize_row(row) for row in shared.rows] == [
            serialize_row(row) for row in alone.rows
        ]
        assert len(walked) == 3
        assert not built
        assert not own_runs

    def test_campaigns_on_one_trace_share_one_traversal(self, monkeypatch):
        from repro.utils.memo import memo_scope

        built, own_runs, walked = self.counting(monkeypatch)
        claim = dataclasses.replace(self.SMALL, techniques=("conventional", "rmw"))
        with memo_scope():
            run_campaign(self.SMALL)
            run_campaign(claim)
            run_campaign(dataclasses.replace(self.SMALL, warmup_fraction=0.2))
            run_campaign(self.SMALL.with_geometry(CacheGeometry(32 * 1024, 4, 64)))
        assert len(walked) == 9
        assert not built
        assert not own_runs

    def test_other_techniques_run_on_their_own(self, monkeypatch):
        from repro.utils.memo import memo_scope

        config = dataclasses.replace(
            self.SMALL, techniques=("wg", "write_buffer", "rmw_local")
        )
        alone = run_campaign(config)
        built, own_runs, walked = self.counting(monkeypatch)
        with memo_scope():
            shared = run_campaign(config)
            run_campaign(dataclasses.replace(config, techniques=("write_buffer",)))
        assert [serialize_row(row) for row in shared.rows] == [
            serialize_row(row) for row in alone.rows
        ]
        assert own_runs == {"write_buffer": 6, "rmw_local": 3}
        assert len(walked) == 3
        assert built == {"write_buffer": 6, "rmw_local": 3}

    def test_a_telemetry_campaign_in_a_scope_runs_every_technique(
        self, monkeypatch
    ):
        from repro.obs.telemetry import Telemetry
        from repro.utils.memo import memo_scope

        built, own_runs, walked = self.counting(monkeypatch)
        with memo_scope():
            run_campaign(self.SMALL, telemetry=Telemetry())
        assert own_runs == {technique: 3 for technique in self.SMALL.techniques}
        assert built == own_runs
        assert not walked

    def test_outside_a_scope_every_technique_runs_on_its_own(self, monkeypatch):
        built, own_runs, walked = self.counting(monkeypatch)
        run_campaign(self.SMALL)
        assert own_runs == {technique: 3 for technique in self.SMALL.techniques}
        assert built == own_runs
        assert not walked
