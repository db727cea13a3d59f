"""Profiler report + analysis-layer export of metrics and snapshots."""

import csv
import json
from dataclasses import asdict

import pytest

from repro.analysis.export import metrics_to_json, snapshots_to_csv
from repro.cache.config import CacheGeometry
from repro.obs.profiler import profile_benchmark
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import IntervalSampler
from repro.obs.telemetry import Telemetry
from repro.sim.campaign import execute_row
from repro.sim.experiment import ExperimentConfig

SMALL = CacheGeometry(size_bytes=4096, associativity=2, block_bytes=32)


class TestProfiler:
    def test_profile_produces_phases_and_counters(self):
        report = profile_benchmark(
            "bwaves",
            geometry=SMALL,
            accesses=3_000,
            techniques=("rmw", "wg"),
        )
        phases = {name for name, *_rest in report.phase_rows()}
        assert phases == {
            "trace_gen", "warmup.rmw", "warmup.wg", "measure.rmw", "measure.wg",
        }
        assert all(total >= 0 for _n, _c, total, _m in report.phase_rows())
        hot = dict(report.hot_counters())
        assert hot["ctrl.rmw.rmw_issued"] > 0
        assert not any(name.startswith("span.") for name in hot)
        # Techniques' logs aggregate through SRAMEventLog.__add__.
        assert report.total_events.array_accesses == sum(
            result.events.array_accesses for result in report.results.values()
        )

    def test_warmup_excluded_from_results(self):
        report = profile_benchmark(
            "mcf",
            geometry=SMALL,
            accesses=2_000,
            techniques=("rmw",),
            warmup_fraction=0.25,
        )
        assert report.results["rmw"].requests == 1_500

    def test_caller_telemetry_is_used(self):
        telem = Telemetry(sampler=IntervalSampler(500))
        report = profile_benchmark(
            "bwaves",
            geometry=SMALL,
            accesses=2_000,
            techniques=("wg",),
            warmup_fraction=0.0,
            telemetry=telem,
        )
        assert report.telemetry is telem
        assert len(telem.sampler.series("wg")) == 4


    @pytest.mark.parametrize("fraction", (0.0, 0.1, 0.37))
    def test_results_are_the_campaign_row(self, fraction):
        """The profiler times the row a campaign ships: every field of
        every technique equals ``execute_row`` on the same config."""
        techniques = ("conventional", "rmw", "wg", "wg_rb", "write_buffer")
        report = profile_benchmark(
            "mcf",
            geometry=SMALL,
            accesses=1_500,
            seed=7,
            techniques=techniques,
            warmup_fraction=fraction,
        )
        config = ExperimentConfig(
            geometry=SMALL,
            benchmarks=("mcf",),
            techniques=techniques,
            accesses_per_benchmark=1_500,
            warmup_fraction=fraction,
            seed=7,
        )
        row = execute_row("mcf", config)
        assert list(report.results) == list(row.results) == list(techniques)
        for technique, expected in row.results.items():
            result = report.results[technique]
            assert result.technique == expected.technique
            assert result.geometry == expected.geometry
            assert result.requests == expected.requests
            assert result.events.to_dict() == expected.events.to_dict()
            assert asdict(result.counts) == asdict(expected.counts)
            assert result.cache_stats == expected.cache_stats


class TestExport:
    def test_metrics_to_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("a.b", 3)
        registry.set_gauge("g", 7)
        registry.observe("h", 0.2, bounds=(0.5, 1.0))
        path = metrics_to_json(registry, tmp_path / "m.json")
        state = json.loads(path.read_text())
        restored = MetricsRegistry.from_state(state)
        assert restored.state_dict() == registry.state_dict()

    def test_snapshots_to_csv(self, tmp_path):
        telem = Telemetry(sampler=IntervalSampler(400))
        profile_benchmark(
            "bwaves",
            geometry=SMALL,
            accesses=1_600,
            techniques=("wg",),
            warmup_fraction=0.0,
            telemetry=telem,
        )
        out = tmp_path / "snaps.csv"
        rows = snapshots_to_csv(telem.sampler.snapshots, out)
        assert rows == 4
        with open(out, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 4
        assert parsed[0]["label"] == "wg"
        assert int(parsed[-1]["end_request"]) == 1_600
        assert 0.0 <= float(parsed[0]["miss_rate"]) <= 1.0
