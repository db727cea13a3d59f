"""Differential suite: scalar vs columnar must be bit-identical.

The columnar engine exists purely for throughput — it must never change
a number.  Every test here replays the *same* randomized trace through
the scalar reference (every record through ``controller.process``) and
through :class:`Simulator`'s columnar engine, and asserts that the
:class:`SRAMEventLog`, :class:`OperationCounts`, :class:`CacheStats`
and the final :class:`FunctionalMemory` contents (after flushing every
dirty line) are equal, across techniques, geometries, controller knobs
and chunk boundaries.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.core.registry import ALL_CONTROLLER_NAMES, CONTROLLER_NAMES, make_controller
from repro.engine.columnar import iter_chunks, process_chunk
from repro.sim.simulator import Simulator

from tests.conftest import ScalarSimulator, make_random_trace

GEOMETRIES = {
    "tiny": CacheGeometry(size_bytes=512, associativity=2, block_bytes=32),
    "small": CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=32),
    "wide": CacheGeometry(size_bytes=32 * 1024, associativity=8, block_bytes=64),
}


def run_engine(trace, technique, geometry, simulator_type, batch_size=None,
               **kwargs):
    """One full run; returns (result, post-flush memory snapshot)."""
    simulator = simulator_type(
        technique, geometry, batch_size=batch_size, **kwargs
    )
    simulator.feed(trace)
    result = simulator.finish()
    # Flushing every dirty line folds the cache's data arrays and dirty
    # bits into the memory image, so the snapshot comparison also
    # proves the *cache contents* agree, not just the counters.
    simulator.cache.flush_all_dirty()
    return result, simulator.memory.snapshot()


def assert_identical(trace, technique, geometry, batch_size=None, **kwargs):
    scalar, scalar_memory = run_engine(
        trace, technique, geometry, ScalarSimulator, **kwargs
    )
    candidate, candidate_memory = run_engine(
        trace, technique, geometry, Simulator, batch_size=batch_size, **kwargs
    )
    assert candidate.requests == scalar.requests
    assert candidate.events == scalar.events
    assert candidate.counts == scalar.counts
    assert candidate.cache_stats == scalar.cache_stats
    assert candidate_memory == scalar_memory


class TestAllTechniques:
    @pytest.mark.parametrize("technique", ALL_CONTROLLER_NAMES)
    @pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_bit_identical(self, technique, geometry):
        trace = make_random_trace(3_000, seed=11, word_span=700)
        assert_identical(trace, technique, geometry)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_with_miss_traffic_accounting(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=12, word_span=400)
        assert_identical(
            trace, technique, tiny_geometry, count_miss_traffic=True
        )

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_read_only_and_write_only(self, technique, tiny_geometry):
        reads = make_random_trace(800, seed=13, write_share=0.0)
        writes = make_random_trace(800, seed=14, write_share=1.0)
        assert_identical(reads, technique, tiny_geometry)
        assert_identical(writes, technique, tiny_geometry)


class TestBatchBoundaries:
    """A same-set write run split across chunks must merge identically."""

    @pytest.mark.parametrize("technique", ("conventional", "wg", "wg_rb"))
    @pytest.mark.parametrize("batch_size", (1, 3, 7, 64, 4096))
    def test_write_runs_split_across_batches(
        self, technique, batch_size, tiny_geometry
    ):
        # Write-heavy + compact footprint: long consecutive same-set
        # write runs that every chunk size except 4096 will split.
        trace = make_random_trace(
            1_500, seed=15, word_span=64, write_share=0.85
        )
        assert_identical(trace, technique, tiny_geometry, batch_size=batch_size)

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("batch_size", (2, 3, 4))
    def test_same_set_run_spans_boundary_with_dirty_buffer(
        self, technique, batch_size, tiny_geometry
    ):
        """Pinned corner: a same-set write run crosses a chunk boundary
        while the Set-Buffer is dirty from the records before the cut.

        The columnar engine must treat the post-boundary writes as a
        continuation of the buffered run — re-filling (or prematurely
        flushing) at the boundary would change write-back counts and,
        with a lost modification, the final memory image.
        """
        from repro.trace.record import AccessType, MemoryAccess

        g = tiny_geometry
        stride = 1 << (g.offset_bits + g.index_bits)

        def addr(tag, word):
            return tag * stride + word * 8  # set 0 throughout

        trace = []
        icount = 0
        # Ten dirty writes into set 0 across two tags: whatever the
        # chunk size in (2, 3, 4), at least one boundary lands inside
        # this run with modifications pending in the Set-Buffer.
        for i in range(10):
            icount += 1
            trace.append(
                MemoryAccess(
                    icount=icount,
                    kind=AccessType.WRITE,
                    address=addr(i % 2, i % g.words_per_block),
                    value=100 + i,
                )
            )
        # Then a read of a buffered word and an eviction-forcing fill.
        icount += 1
        trace.append(
            MemoryAccess(
                icount=icount, kind=AccessType.READ, address=addr(0, 0)
            )
        )
        icount += 1
        trace.append(
            MemoryAccess(
                icount=icount,
                kind=AccessType.WRITE,
                address=addr(5, 0),
                value=999,
            )
        )
        assert_identical(trace, technique, g, batch_size=batch_size)

    def test_single_record_trace(self, tiny_geometry):
        trace = make_random_trace(1, seed=16)
        for technique in CONTROLLER_NAMES:
            assert_identical(trace, technique, tiny_geometry)

    def test_empty_trace(self, tiny_geometry):
        for technique in CONTROLLER_NAMES:
            assert_identical([], technique, tiny_geometry)


class TestControllerKnobs:
    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("entries", (2, 3))
    def test_multi_entry_tag_buffer(self, technique, entries, tiny_geometry):
        trace = make_random_trace(2_000, seed=17, word_span=256, write_share=0.6)
        assert_identical(trace, technique, tiny_geometry, entries=entries)

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    def test_silent_detection_off(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=18, word_span=256, silent_share=0.6)
        assert_identical(
            trace, technique, tiny_geometry, detect_silent_writes=False
        )


class TestFallbackPaths:
    """Configurations the kernels must refuse — and still match."""

    @pytest.mark.parametrize("replacement", ("fifo", "random", "plru"))
    def test_non_lru_replacement_falls_back(self, replacement, tiny_geometry):
        trace = make_random_trace(1_500, seed=19, word_span=400)
        for technique in CONTROLLER_NAMES:
            results = []
            for use_chunks in (False, True):
                cache = SetAssociativeCache(
                    tiny_geometry, replacement=replacement
                )
                assert not cache.engine_fast_ok
                controller = make_controller(technique, cache)
                if use_chunks:
                    for chunk in iter_chunks(trace, tiny_geometry, 128):
                        process_chunk(controller, chunk)
                else:
                    for access in trace:
                        controller.process(access)
                controller.finalize()
                results.append(
                    (controller.events, controller.counts, cache.stats)
                )
            assert results[0] == results[1], technique

    def test_telemetry_forces_scalar_path_same_results(
        self, tiny_geometry, tmp_path
    ):
        import json

        from repro.obs.registry import MetricsRegistry
        from repro.obs.sinks import JsonlSink
        from repro.obs.telemetry import Telemetry

        trace = make_random_trace(1_000, seed=20, word_span=200)
        plain, plain_memory = run_engine(
            trace, "wg", tiny_geometry, ScalarSimulator
        )
        # A live trace sink needs one instant per instrumentation
        # point, so it sends every chunk through ``process()``.
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            telemetry = Telemetry(registry=MetricsRegistry(), sink=sink)
            instrumented = Simulator("wg", tiny_geometry, telemetry=telemetry)
            instrumented.feed(trace)
            result = instrumented.finish()
        instrumented.cache.flush_all_dirty()
        assert result.events == plain.events
        assert result.counts == plain.counts
        assert instrumented.memory.snapshot() == plain_memory
        # The per-access instrumentation really ran.
        assert telemetry.registry.value("ctrl.wg.read_requests") > 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(event["name"] == "wg.sb_fill" for event in events)

    def test_geometry_mismatch_rejected(self, tiny_geometry, small_geometry):
        trace = make_random_trace(10, seed=21)
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        chunk = next(iter_chunks(trace, small_geometry))
        with pytest.raises(ValueError, match="batch decoded for"):
            process_chunk(controller, chunk)
