"""Unit tests for the simulation runner."""

import pytest

from repro.engine.batch import iter_batches
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator, run_simulation

from tests.conftest import ScalarSimulator, make_random_trace


class TestRunSimulation:
    def test_basic_result(self, tiny_geometry):
        trace = make_random_trace(200, seed=1)
        result = run_simulation(trace, "rmw", tiny_geometry)
        assert result.technique == "rmw"
        assert result.requests == 200
        assert result.array_accesses > 200  # writes cost double
        assert result.cache_stats.accesses == 200

    def test_accesses_per_request(self, tiny_geometry):
        trace = make_random_trace(100, seed=2, write_share=0.0)
        result = run_simulation(trace, "rmw", tiny_geometry)
        assert result.accesses_per_request == pytest.approx(1.0)

    def test_controller_kwargs_forwarded(self, tiny_geometry):
        trace = make_random_trace(100, seed=3)
        result = run_simulation(
            trace, "wg", tiny_geometry, detect_silent_writes=False
        )
        assert result.counts.silent_writes_detected == 0

    def test_events_are_snapshot(self, tiny_geometry):
        simulator = Simulator("rmw", tiny_geometry)
        simulator.feed(make_random_trace(50, seed=4))
        result = simulator.finish()
        before = result.events.array_accesses
        # Further mutation of the controller must not affect the result.
        simulator.controller.events.record_row_read(1)
        assert result.events.array_accesses == before


class TestEngines:
    def test_default_engine_is_columnar(self, tiny_geometry):
        simulator = Simulator("rmw", tiny_geometry)

        def per_access(access):
            raise AssertionError("feed left the columnar kernel")

        simulator.controller.process = per_access
        simulator.feed(make_random_trace(200, seed=6))
        assert simulator.finish().requests == 200

    def test_engines_agree(self, tiny_geometry):
        trace = make_random_trace(400, seed=7)
        reference = ScalarSimulator("wg", tiny_geometry)
        reference.feed(trace)
        expected = reference.finish()
        result = run_simulation(trace, "wg", tiny_geometry)
        assert result.requests == expected.requests == len(trace)
        assert result.events == expected.events
        assert result.counts == expected.counts
        assert result.cache_stats == expected.cache_stats

    def test_feed_batches(self, tiny_geometry):
        trace = make_random_trace(300, seed=8)
        direct = Simulator("rmw", tiny_geometry)
        direct.feed(trace)
        via_batches = Simulator("rmw", tiny_geometry)
        via_batches.feed_batches(iter_batches(trace, tiny_geometry, 64))
        assert via_batches.finish().events == direct.finish().events

    def test_requests_counted_across_batches(self, tiny_geometry):
        simulator = Simulator("conventional", tiny_geometry, batch_size=16)
        simulator.feed(make_random_trace(100, seed=9))
        assert simulator.finish().requests == 100


class TestWarmupReset:
    def test_reset_zeroes_counters_keeps_state(self, tiny_geometry):
        # Footprint (48 words) fits the tiny cache (64 words), so the
        # warmed cache can serve the replayed slice almost entirely.
        trace = make_random_trace(300, seed=5, word_span=48)
        simulator = Simulator("wg", tiny_geometry)
        simulator.feed(trace[:150])
        warm_hits = simulator.cache.stats.hits
        assert warm_hits > 0
        simulator.reset_measurements()
        assert simulator.cache.stats.hits == 0
        assert simulator.controller.array_accesses == 0
        # Cache content survived: replaying the same slice now hits a lot.
        simulator.feed(trace[:150])
        result = simulator.finish()
        assert result.cache_stats.hit_rate > 0.9

    def test_warmup_changes_measured_counts(self, tiny_geometry):
        trace = make_random_trace(300, seed=6)
        cold = Simulator("rmw", tiny_geometry)
        cold.feed(trace)
        cold_result = cold.finish()
        warm = Simulator("rmw", tiny_geometry)
        warm.feed(trace[:100])
        warm.reset_measurements()
        warm.feed(trace[100:])
        warm_result = warm.finish()
        assert warm_result.requests == 200
        assert warm_result.array_accesses < cold_result.array_accesses

    def test_reset_zeroes_prebound_telemetry_counters(self, tiny_geometry):
        # Regression: reset_measurements used to replace the events/
        # counts objects but leave the controller's pre-bound registry
        # counters holding the warm-up traffic, so the metrics plane
        # disagreed with the measurement plane after a warm-up reset.
        telemetry = Telemetry(registry=MetricsRegistry())
        trace = make_random_trace(300, seed=10)
        simulator = Simulator("rmw", tiny_geometry, telemetry=telemetry)
        simulator.feed(trace[:200])
        assert telemetry.registry.value("ctrl.rmw.read_requests") > 0
        simulator.reset_measurements()
        assert telemetry.registry.value("ctrl.rmw.read_requests") == 0
        assert telemetry.registry.value("ctrl.rmw.write_requests") == 0
        simulator.feed(trace[200:])
        result = simulator.finish()
        reads = telemetry.registry.value("ctrl.rmw.read_requests")
        writes = telemetry.registry.value("ctrl.rmw.write_requests")
        assert reads == result.counts.read_requests
        assert writes == result.counts.write_requests
        assert reads + writes == 100


class TestStreamingRun:
    def test_collect_outcomes_false_returns_none(self, tiny_geometry):
        from repro.cache.cache import SetAssociativeCache
        from repro.core.registry import make_controller

        trace = make_random_trace(200, seed=11)
        collecting = make_controller(
            "wg", SetAssociativeCache(tiny_geometry)
        )
        outcomes = collecting.run(trace)
        assert outcomes is not None and len(outcomes) == 200
        streaming = make_controller(
            "wg", SetAssociativeCache(tiny_geometry)
        )
        assert streaming.run(trace, collect_outcomes=False) is None
        assert streaming.events == collecting.events
        assert streaming.counts == collecting.counts
