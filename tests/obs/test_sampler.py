"""Interval-sampler tests: window boundaries, deltas, reset handling."""

import pytest

from repro.cache.config import CacheGeometry
from repro.obs.sampler import IntervalSampler
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator
from tests.conftest import make_random_trace

TINY = CacheGeometry(size_bytes=1024, associativity=2, block_bytes=32)


def _run(technique="wg", accesses=2500, window=500):
    sampler = IntervalSampler(window)
    telem = Telemetry(sampler=sampler)
    simulator = Simulator(technique, TINY, telemetry=telem)
    simulator.feed(make_random_trace(accesses, seed=11))
    return simulator, sampler


class TestWindows:
    def test_window_count_and_indices(self):
        _, sampler = _run(accesses=2500, window=500)
        series = sampler.series("wg")
        assert len(series) == 5  # 2500 / 500, trailing partial dropped
        assert [snap.window_index for snap in series] == [0, 1, 2, 3, 4]
        assert [snap.end_request for snap in series] == [
            500, 1000, 1500, 2000, 2500,
        ]

    def test_partial_window_not_snapshotted(self):
        _, sampler = _run(accesses=2499, window=500)
        assert len(sampler.series("wg")) == 4

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            IntervalSampler(0)

    def test_deltas_sum_to_totals(self):
        simulator, sampler = _run(accesses=2000, window=500)
        series = sampler.series("wg")
        # Every request landed in a full window, so window deltas must
        # add up exactly to the cumulative counters.
        assert sum(s.array_accesses for s in series) == (
            simulator.controller.events.array_accesses
        )
        stats = simulator.cache.stats
        assert sum(s.hits for s in series) == stats.hits
        assert sum(s.misses for s in series) == stats.misses

    def test_miss_rate_and_rates(self):
        _, sampler = _run()
        for snap in sampler.snapshots:
            assert 0.0 <= snap.miss_rate <= 1.0
            assert snap.hits + snap.misses == snap.window_size
            assert snap.accesses_per_request >= 0.0

    def test_occupancy_zero_for_unbuffered_controller(self):
        _, sampler = _run(technique="rmw")
        assert all(s.set_buffer_occupancy == 0 for s in sampler.snapshots)

    def test_occupancy_observed_for_wg(self):
        _, sampler = _run(technique="wg")
        # The Set-Buffer should be dirty at at least one window edge on
        # a write-heavy random trace.
        assert any(s.set_buffer_occupancy > 0 for s in sampler.snapshots)


class TestResetHandling:
    def test_reset_measurements_rebaselines(self):
        sampler = IntervalSampler(250)
        telem = Telemetry(sampler=sampler)
        simulator = Simulator("wg", TINY, telemetry=telem)
        trace = make_random_trace(1000, seed=3)
        simulator.feed(trace[:500])
        simulator.reset_measurements()  # warm-up boundary
        simulator.feed(trace[500:])
        # No negative deltas even though cumulative counters dropped.
        for snap in sampler.snapshots:
            assert snap.array_accesses >= 0
            assert snap.hits >= 0
            assert snap.misses >= 0

    def test_labels_tracked_independently(self):
        sampler = IntervalSampler(300)
        telem = Telemetry(sampler=sampler)
        trace = make_random_trace(900, seed=5)
        for technique in ("rmw", "wg"):
            simulator = Simulator(technique, TINY, telemetry=telem)
            simulator.feed(trace)
        assert sampler.labels() == ["rmw", "wg"]
        assert len(sampler.series("rmw")) == 3
        assert len(sampler.series("wg")) == 3


class _StubStats:
    def __init__(self):
        self.hits = 0
        self.misses = 0


class _StubEvents:
    def __init__(self):
        self.array_accesses = 0


class _StubController:
    """Minimal controller surface the sampler reads at window edges."""

    def __init__(self, name="stub"):
        self.name = name
        self.events = _StubEvents()

        class _Cache:
            pass

        self.cache = _Cache()
        self.cache.stats = _StubStats()

    def set_buffer_occupancy(self):
        return 0


class TestEmptyWindows:
    def test_trace_shorter_than_window_yields_no_snapshots(self):
        _, sampler = _run(accesses=300, window=500)
        assert len(sampler) == 0
        assert sampler.labels() == []
        assert sampler.series("wg") == []

    def test_idle_window_snapshots_all_zero_deltas(self):
        # A window can close with no cache activity at all (e.g. every
        # request filtered upstream); deltas and derived rates must be
        # zero, not a ZeroDivisionError.
        sampler = IntervalSampler(10)
        controller = _StubController()
        for _ in range(10):
            sampler.tick(controller)
        assert len(sampler) == 1
        snap = sampler.snapshots[0]
        assert snap.array_accesses == 0
        assert snap.hits == 0
        assert snap.misses == 0
        assert snap.miss_rate == 0.0
        assert snap.accesses_per_request == 0.0

    def test_idle_then_active_window_keeps_clean_deltas(self):
        sampler = IntervalSampler(10)
        controller = _StubController()
        for _ in range(10):  # idle window
            sampler.tick(controller)
        controller.events.array_accesses = 7
        controller.cache.stats.hits = 4
        controller.cache.stats.misses = 3
        for _ in range(10):  # active window
            sampler.tick(controller)
        idle, active = sampler.snapshots
        assert (idle.array_accesses, idle.hits, idle.misses) == (0, 0, 0)
        assert (active.array_accesses, active.hits, active.misses) == (7, 4, 3)
        assert active.window_index == 1


class TestBlockAdvance:
    """``remaining``/``advance``: the columnar engine's block accounting."""

    def test_advance_matches_ticks(self):
        ticked, advanced = IntervalSampler(10), IntervalSampler(10)
        controller = _StubController()
        for step in (3, 7, 10, 1, 9, 4):
            controller.events.array_accesses += 2 * step
            for _ in range(step):
                ticked.tick(controller)
            advanced.advance(controller, step)
        assert advanced.snapshots == ticked.snapshots
        assert [snap.end_request for snap in advanced.snapshots] == [10, 20, 30]
        assert advanced.remaining("stub") == ticked.remaining("stub") == 6

    def test_remaining_of_unseen_label_is_a_full_window(self):
        assert IntervalSampler(10).remaining("wg") == 10

    @pytest.mark.parametrize("count", (0, 11))
    def test_advance_past_a_boundary_is_refused(self, count):
        sampler = IntervalSampler(10)
        with pytest.raises(ValueError, match="window closes in 10"):
            sampler.advance(_StubController(), count)
        assert len(sampler) == 0
