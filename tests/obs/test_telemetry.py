"""Telemetry facade, structured warnings, worker merge, and the
observable parallel-campaign fallback."""

import io
import json
import logging


from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import JsonlSink, NullSink
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.campaign import run_campaign
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import _run_benchmark

CONFIG = ExperimentConfig(
    benchmarks=("bwaves", "mcf"),
    techniques=("rmw", "wg"),
    accesses_per_benchmark=1500,
)


class TestTelemetryFacade:
    def test_defaults(self):
        telem = Telemetry()
        assert telem.enabled
        assert isinstance(telem.registry, MetricsRegistry)
        assert isinstance(telem.sink, NullSink)
        assert telem.sampler is None

    def test_null_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.instant("ignored")  # must be a no-op
        assert len(NULL_TELEMETRY.registry) == 0

    def test_from_outputs_none_when_nothing_requested(self):
        assert Telemetry.from_outputs() is None

    def test_from_outputs_builds_requested_pieces(self, tmp_path):
        telem = Telemetry.from_outputs(
            metrics_out=tmp_path / "m.json",
            trace_out=tmp_path / "t.jsonl",
            sample_window=500,
        )
        assert telem is not None
        assert isinstance(telem.sink, JsonlSink)
        assert telem.sampler is not None and telem.sampler.window == 500
        telem.close()

    def test_warn_is_structured(self, caplog):
        buffer = io.StringIO()
        telem = Telemetry(sink=JsonlSink(buffer))
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            telem.warn("parallel.pool_fallback", "pool died", benchmarks=2)
        # 1. a log record
        assert any("pool died" in record.message for record in caplog.records)
        # 2. a metrics counter
        assert telem.registry.value("warning.parallel.pool_fallback") == 1
        # 3. a trace instant
        event = json.loads(buffer.getvalue())
        assert event["cat"] == "warning"
        assert event["args"]["benchmarks"] == 2


class TestWorkerMetrics:
    def test_worker_ships_metrics_state(self):
        row, state = _run_benchmark(("bwaves", CONFIG, True, 1))
        assert row.benchmark == "bwaves"
        assert state is not None
        assert state["counters"]["ctrl.rmw.read_requests"] > 0

    def test_worker_skips_metrics_when_dark(self):
        _row, state = _run_benchmark(("bwaves", CONFIG, False, 1))
        assert state is None

    def test_parallel_campaign_merges_worker_registries(self):
        # No warm-up, so the merged per-worker counters must equal the
        # rows' own request accounting exactly.
        config = ExperimentConfig(
            benchmarks=CONFIG.benchmarks,
            techniques=CONFIG.techniques,
            accesses_per_benchmark=CONFIG.accesses_per_benchmark,
            warmup_fraction=0.0,
        )
        telem = Telemetry()
        result = run_campaign(config, processes=2, telemetry=telem)
        assert len(result.rows) == 2
        expected = sum(
            row.results["rmw"].counts.read_requests for row in result.rows
        )
        assert telem.registry.value("ctrl.rmw.read_requests") == expected

    def test_sequential_processes_one_uses_caller_telemetry(self):
        telem = Telemetry()
        result = run_campaign(CONFIG, processes=1, telemetry=telem)
        assert len(result.rows) == 2
        assert telem.registry.value("ctrl.wg.read_requests") > 0


class TestPoolFallbackObservability:
    def test_fallback_warns_and_counts(self, monkeypatch, caplog):
        def no_workers(*_args, **_kwargs):
            raise PermissionError("fork forbidden")

        monkeypatch.setattr("repro.sim.parallel.run_supervised", no_workers)
        telem = Telemetry()
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            result = run_campaign(CONFIG, processes=4, telemetry=telem)
        # Results still correct...
        assert len(result.rows) == 2
        assert result.mean_reduction("wg") > 0
        # ...and the degradation is visible on every plane.
        assert telem.registry.value("warning.parallel.pool_fallback") == 1
        assert any(
            "in-process" in record.message for record in caplog.records
        )

    def test_fallback_without_telemetry_still_logs(self, monkeypatch, caplog):
        def no_workers(*_args, **_kwargs):
            raise OSError("no pool for you")

        monkeypatch.setattr("repro.sim.parallel.run_supervised", no_workers)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            result = run_campaign(CONFIG, processes=2)
        assert len(result.rows) == 2
        assert any(
            "pool unavailable" in record.message for record in caplog.records
        )
