"""Unit tests for the inline invariant checker.

Each corruption test deliberately vandalises live cache or buffer
state and asserts the checker names the broken invariant — proving the
checks detect real damage, not just that healthy runs stay quiet.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.check.invariants import InvariantChecker, check_controller_invariants
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.errors import InvariantViolation

from tests.conftest import make_random_trace

TINY = CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)


def run_healthy(technique, accesses=400, **kwargs):
    cache = SetAssociativeCache(TINY)
    controller = make_controller(technique, cache, **kwargs)
    checker = controller.enable_invariant_checks()
    trace = make_random_trace(accesses, seed=41, word_span=120)
    for access in trace:
        controller.process(access)
    return controller, checker


class TestHealthyRuns:
    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_no_violation_on_random_trace(self, technique):
        controller, checker = run_healthy(technique)
        assert checker.checks_run == 400

    def test_every_n_checks_sparsely(self):
        cache = SetAssociativeCache(TINY)
        controller = make_controller("wg", cache)
        checker = controller.enable_invariant_checks(every=10)
        for access in make_random_trace(100, seed=42):
            controller.process(access)
        assert checker.checks_run == 10

    def test_disable_stops_checking(self):
        cache = SetAssociativeCache(TINY)
        controller = make_controller("wg", cache)
        checker = controller.enable_invariant_checks()
        controller.disable_invariant_checks()
        for access in make_random_trace(50, seed=43):
            controller.process(access)
        assert checker.checks_run == 0

    def test_bad_every_rejected(self):
        with pytest.raises(ValueError, match="every"):
            InvariantChecker(every=0)


class TestCacheCorruption:
    def _resident_controller(self):
        cache = SetAssociativeCache(TINY)
        controller = make_controller("conventional", cache)
        for access in make_random_trace(200, seed=44, word_span=120):
            controller.process(access)
        return controller, cache

    def _full_set(self, cache):
        for set_index in range(cache.geometry.num_sets):
            tags = [t for t in cache.set_tags(set_index) if t >= 0]
            if len(tags) == cache.geometry.associativity:
                return set_index
        pytest.fail("no fully occupied set to corrupt")

    def test_duplicate_tag_detected(self):
        controller, cache = self._resident_controller()
        set_index = self._full_set(cache)
        slot = cache._tags[set_index]  # noqa: SLF001
        slot[1] = slot[0]
        with pytest.raises(InvariantViolation, match="duplicate tag"):
            check_controller_invariants(controller)

    def test_dirty_invalid_way_detected(self):
        controller, cache = self._resident_controller()
        set_index = self._full_set(cache)
        cache._tags[set_index][0] = -1  # noqa: SLF001
        cache._dirty[set_index][0] = True  # noqa: SLF001
        with pytest.raises(InvariantViolation, match="dirty but invalid"):
            check_controller_invariants(controller)

    def test_stamp_duplication_detected(self):
        controller, cache = self._resident_controller()
        set_index = self._full_set(cache)
        slot = cache._stamps[set_index]  # noqa: SLF001
        slot[1] = slot[0]
        with pytest.raises(InvariantViolation, match="stamp"):
            check_controller_invariants(controller)


class TestBufferCorruption:
    def _buffered_controller(self, technique="wg"):
        cache = SetAssociativeCache(TINY)
        controller = make_controller(technique, cache)
        # Writes establish a valid, dirty Set-Buffer entry.
        for access in make_random_trace(
            60, seed=45, word_span=16, write_share=1.0, silent_share=0.0
        ):
            controller.process(access)
        entry = next(e for e in controller.buffer_entries if e.tag_buffer.valid)
        return controller, entry

    def test_stale_tag_snapshot_detected(self):
        controller, entry = self._buffered_controller()
        tags = list(entry.tag_buffer.tags)
        tags[0] = (tags[0] or 0) ^ 0x1F
        entry.tag_buffer._tags = tuple(tags)  # noqa: SLF001
        with pytest.raises(InvariantViolation, match="stale"):
            check_controller_invariants(controller)

    def test_lost_writeback_detected(self):
        controller, entry = self._buffered_controller()
        assert entry.set_buffer.has_modifications
        entry.tag_buffer.dirty = False
        with pytest.raises(InvariantViolation, match="Dirty bit is clear"):
            check_controller_invariants(controller)

    def test_set_buffer_disagreement_detected(self):
        controller, entry = self._buffered_controller()
        entry.set_buffer.set_index = (entry.set_buffer.set_index + 1) % 8
        with pytest.raises(InvariantViolation, match="Set-Buffer holds"):
            check_controller_invariants(controller)


class TestMonotonicity:
    def test_counter_decrease_detected(self):
        cache = SetAssociativeCache(TINY)
        controller = make_controller("conventional", cache)
        checker = InvariantChecker()
        for access in make_random_trace(20, seed=46):
            controller.process(access)
        checker.check(controller)
        controller.events.row_writes -= 1
        with pytest.raises(InvariantViolation, match="decreased|not row_reads"):
            checker.check(controller)

    def test_negative_counter_detected(self):
        cache = SetAssociativeCache(TINY)
        controller = make_controller("conventional", cache)
        checker = InvariantChecker()
        controller.counts.read_requests = -1
        with pytest.raises(InvariantViolation, match="negative"):
            checker.check(controller)


class TestBatchedPathUnderDebugMode:
    """``Simulator.feed`` in batches of 64: the checker sends every
    access through ``process()`` instead of the columnar kernel."""

    def test_fast_path_disengages_and_results_match(self):
        from repro.sim.simulator import Simulator

        trace = make_random_trace(500, seed=47, word_span=120)
        results = []
        for debug in (False, True):
            simulator = Simulator("wg", TINY, batch_size=64)
            if debug:
                checker = simulator.controller.enable_invariant_checks()
            simulator.feed(trace)
            result = simulator.finish()
            results.append((result.events, result.counts, result.cache_stats))
        assert results[0] == results[1]
        # Debug mode really audited every access despite batched feeding.
        assert checker.checks_run == 500
