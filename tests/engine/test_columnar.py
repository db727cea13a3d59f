"""Columnar engine suite: kernels, gating, fallbacks, adversarial fuzz,
and metrics-only telemetry riding the kernels."""

from collections import Counter

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.check.differential import observed_state, run_differential
from repro.check.fuzz import SCENARIO_NAMES, TraceFuzzer
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.engine.batch import AccessBatch, iter_batches
from repro.engine.columnar import (
    ColumnarChunk,
    iter_chunks,
    process_chunk,
)
from repro.errors import StateError, ValidationError
from repro.obs.sampler import IntervalSampler
from repro.obs.sinks import TraceSink
from repro.obs.telemetry import Telemetry
from repro.sim import campaign
from repro.sim.experiment import ExperimentConfig
from repro.sim.simulator import Simulator
from repro.trace.columns import TraceColumns

from tests.conftest import ScalarSimulator, make_random_trace
from tests.engine.test_differential import GEOMETRIES, assert_identical

COLUMNS = (
    "icounts", "kinds", "addresses", "values",
    "set_indices", "tags", "word_offsets",
)


def run_columnar_direct(trace, technique, geometry, batch_size=None, **kwargs):
    """Drive process_chunk by hand (no Simulator); returns run artefacts."""
    cache = SetAssociativeCache(geometry)
    controller = make_controller(technique, cache, **kwargs)
    consumed = 0
    for chunk in iter_chunks(trace, geometry, batch_size):
        consumed += process_chunk(controller, chunk)
    controller.finalize()
    cache.flush_all_dirty()
    return controller, cache, consumed


def run_scalar_direct(trace, technique, geometry, **kwargs):
    cache = SetAssociativeCache(geometry)
    controller = make_controller(technique, cache, **kwargs)
    for access in trace:
        controller.process(access)
    controller.finalize()
    cache.flush_all_dirty()
    return controller, cache


def assert_runs_equal(scalar, columnar):
    s_controller, s_cache = scalar
    c_controller, c_cache = columnar[:2]
    assert c_controller.events == s_controller.events
    assert c_controller.counts == s_controller.counts
    assert c_cache.stats == s_cache.stats
    assert c_cache.memory.snapshot() == s_cache.memory.snapshot()


class TestKernelEquality:
    """The columnar kernels must be bit-identical to scalar execution."""

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_bit_identical(self, technique, geometry):
        trace = make_random_trace(3_000, seed=31, word_span=700)
        assert_identical(trace, technique, geometry)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_miss_traffic_accounting(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=32, word_span=400)
        scalar = run_scalar_direct(
            trace, technique, tiny_geometry, count_miss_traffic=True
        )
        columnar = run_columnar_direct(
            trace, technique, tiny_geometry, count_miss_traffic=True
        )
        assert_runs_equal(scalar, columnar)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("batch_size", (1, 3, 64, 4096))
    def test_chunk_boundaries(self, technique, batch_size, tiny_geometry):
        trace = make_random_trace(1_500, seed=33, word_span=64, write_share=0.85)
        scalar = run_scalar_direct(trace, technique, tiny_geometry)
        columnar = run_columnar_direct(
            trace, technique, tiny_geometry, batch_size=batch_size
        )
        assert_runs_equal(scalar, columnar)
        assert columnar[2] == len(trace)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_read_only_and_write_only(self, technique, tiny_geometry):
        for seed, share in ((34, 0.0), (35, 1.0)):
            trace = make_random_trace(800, seed=seed, write_share=share)
            assert_runs_equal(
                run_scalar_direct(trace, technique, tiny_geometry),
                run_columnar_direct(trace, technique, tiny_geometry),
            )

    def test_empty_chunk_is_noop(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        empty = ColumnarChunk.from_access_batch(
            AccessBatch(geometry=tiny_geometry)
        )
        assert len(empty) == 0
        assert process_chunk(controller, empty) == 0
        controller.finalize()
        assert controller.counts.read_requests == 0


class TestAdversarialScenarios:
    """The fuzzer's adversarial scenarios, replayed three ways.

    Each case below is an oracle↔scalar↔columnar comparison, plus the
    differential's scalar↔columnar telemetry leg.
    """

    @pytest.mark.parametrize("scenario_index", range(len(SCENARIO_NAMES)))
    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_fuzz_scenarios(self, scenario_index, technique):
        fuzzer = TraceFuzzer(seed=99, max_accesses=300)
        # case(i) cycles scenarios; i and i + len(SCENARIO_NAMES) give
        # two independent cases of the same scenario.
        for iteration in (
            scenario_index,
            scenario_index + len(SCENARIO_NAMES),
        ):
            case = fuzzer.case(iteration)
            assert case.scenario == SCENARIO_NAMES[scenario_index]
            divergences = run_differential(
                case.trace,
                technique,
                case.geometry,
                batch_size=case.batch_size,
                count_miss_traffic=case.count_miss_traffic,
                detect_silent_writes=case.detect_silent_writes,
                entries=case.entries,
            )
            assert divergences == []


class TestFallbacks:
    """Configurations the columnar kernels refuse — and still match."""

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("entries", (2, 3))
    def test_multi_entry_falls_back(self, technique, entries, tiny_geometry):
        trace = make_random_trace(1_200, seed=36, word_span=256, write_share=0.6)
        assert_runs_equal(
            run_scalar_direct(
                trace, technique, tiny_geometry, entries=entries
            ),
            run_columnar_direct(
                trace, technique, tiny_geometry, entries=entries
            ),
        )

    @pytest.mark.parametrize("replacement", ("fifo", "random", "plru"))
    def test_non_lru_replacement_falls_back(self, replacement, tiny_geometry):
        trace = make_random_trace(1_000, seed=37, word_span=400)
        results = []
        for use_chunks in (False, True):
            cache = SetAssociativeCache(tiny_geometry, replacement=replacement)
            assert not cache.engine_fast_ok
            controller = make_controller("wg", cache)
            if use_chunks:
                for chunk in iter_chunks(trace, tiny_geometry, 128):
                    process_chunk(controller, chunk)
            else:
                for access in trace:
                    controller.process(access)
            controller.finalize()
            results.append((controller.events, controller.counts, cache.stats))
        assert results[0] == results[1]


def forbid_per_access(controller):
    """Make any per-access replay of ``controller`` fail the test."""

    def per_access(access):
        raise AssertionError("chunk left the columnar kernel")

    controller.process = per_access


def count_per_access(controller):
    """Count per-access replays of ``controller``; returns the tally."""
    calls = Counter()
    process = controller.process

    def per_access(access):
        calls["process"] += 1
        return process(access)

    controller.process = per_access
    return calls


class CaptureSink(TraceSink):
    """In-memory sink keeping every instant."""

    def __init__(self):
        self.instants = []

    def instant(self, name, category="event", args=None):
        self.instants.append((name, category, dict(args or {})))

    def complete(self, name, start, duration, category="span", args=None):
        pass


def observed_feed(simulator_type, trace, technique, geometry, telemetry,
                  warmup=0, batch_size=None, per_access=None, **kwargs):
    """Feed ``trace`` (warm-up slice, reset, rest) under ``telemetry``."""
    simulator = simulator_type(
        technique, geometry, telemetry=telemetry, batch_size=batch_size,
        **kwargs,
    )
    if per_access is not None:
        per_access(simulator.controller)
    if warmup:
        simulator.feed(trace[:warmup])
        simulator.reset_measurements()
    simulator.feed(trace[warmup:])
    return simulator.finish()


def assert_observed_equal(trace, technique, geometry, window,
                          per_access=None, **kwargs):
    """Scalar and columnar agree on results, registry and snapshots;
    ``per_access`` instruments the columnar run's controller."""
    runs = []
    for simulator_type, hook in (
        (ScalarSimulator, None), (Simulator, per_access)
    ):
        telemetry = Telemetry(sampler=IntervalSampler(window))
        result = observed_feed(
            simulator_type, trace, technique, geometry, telemetry,
            per_access=hook, **kwargs,
        )
        runs.append((result, *observed_state(telemetry)))
    (s_result, s_registry, s_snaps), (c_result, c_registry, c_snaps) = runs
    assert c_result.events == s_result.events
    assert c_result.counts == s_result.counts
    assert c_result.cache_stats == s_result.cache_stats
    assert c_registry == s_registry
    assert c_snaps == s_snaps
    return s_registry, s_snaps


class TestTelemetryOnKernels:
    """Metrics-only telemetry stays on the kernels, bit-identically."""

    def test_metrics_telemetry_rides_kernel_same_results(self, tiny_geometry):
        trace = make_random_trace(1_000, seed=38, word_span=200)
        plain = run_scalar_direct(trace, "wg", tiny_geometry)
        telemetry = Telemetry()
        instrumented = Simulator("wg", tiny_geometry, telemetry=telemetry)
        forbid_per_access(instrumented.controller)
        instrumented.feed(trace)
        result = instrumented.finish()
        instrumented.cache.flush_all_dirty()
        assert result.events == plain[0].events
        assert result.counts == plain[0].counts
        assert instrumented.memory.snapshot() == plain[1].memory.snapshot()
        reads = sum(1 for access in trace if access.is_read)
        assert telemetry.registry.value("ctrl.wg.read_requests") == reads

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize(
        "window,batch_size",
        [
            (1, 64),  # a boundary after every request
            (7, 7),  # boundaries exactly at chunk ends
            (7, 64),  # boundaries mid-chunk
            (1000, 4096),  # one boundary mid-chunk
            (1000, 500),  # boundaries at every other chunk end
        ],
    )
    def test_registry_and_snapshots_match_scalar(
        self, technique, window, batch_size, small_geometry
    ):
        trace = make_random_trace(2_000, seed=44, word_span=900, write_share=0.5)
        registry, snapshots = assert_observed_equal(
            trace, technique, small_geometry, window,
            batch_size=batch_size, per_access=forbid_per_access,
        )
        assert len(snapshots) == len(trace) // window
        counters = registry["counters"]
        assert counters[f"ctrl.{technique}.read_requests"] + counters[
            f"ctrl.{technique}.write_requests"
        ] == len(trace)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_window_straddles_warmup_reset(self, technique, tiny_geometry):
        trace = make_random_trace(1_500, seed=45, word_span=300, write_share=0.6)
        _, snapshots = assert_observed_equal(
            trace, technique, tiny_geometry, 400, warmup=250, batch_size=128,
            per_access=forbid_per_access,
        )
        # The first window closes 150 requests after the reset.
        assert snapshots[0].end_request == 400

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_miss_traffic_counters(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=46, word_span=400)
        registry, _ = assert_observed_equal(
            trace, technique, tiny_geometry, 7, count_miss_traffic=True,
            per_access=forbid_per_access,
        )
        if technique == "rmw":
            # One RMW issued per write request; the fills charged under
            # count_miss_traffic are RMW operations but not issued RMWs.
            writes = sum(1 for access in trace if access.is_write)
            assert registry["counters"]["ctrl.rmw.rmw_issued"] == writes

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    def test_multi_entry_wg_falls_back_per_access(self, technique, tiny_geometry):
        trace = make_random_trace(1_200, seed=47, word_span=256, write_share=0.6)
        assert_observed_equal(trace, technique, tiny_geometry, 7, entries=2)
        simulator = Simulator(
            technique, tiny_geometry, entries=2,
            telemetry=Telemetry(sampler=IntervalSampler(7)),
        )
        calls = count_per_access(simulator.controller)
        simulator.feed(trace)
        assert calls["process"] == len(trace)

    def test_window_spans_two_campaign_rows(self, monkeypatch, small_geometry):
        config = ExperimentConfig(
            geometry=small_geometry,
            benchmarks=("bwaves", "mcf"),
            accesses_per_benchmark=600,
        )
        runs = []
        for simulator_type in (ScalarSimulator, Simulator):
            monkeypatch.setattr(campaign, "Simulator", simulator_type)
            telemetry = Telemetry(sampler=IntervalSampler(1000))
            result = campaign.run_campaign(config, telemetry=telemetry)
            runs.append(
                ([row.results for row in result.rows], *observed_state(telemetry))
            )
        assert runs[0] == runs[1]
        snapshots = runs[1][2]
        # Each technique's first window closes 400 requests into row 2.
        assert {snap.end_request for snap in snapshots} == {1000}
        assert len(snapshots) == len(config.techniques)

    def test_differential_leg_catches_dropped_deltas(
        self, monkeypatch, tiny_geometry
    ):
        from repro.core.controller import CacheController

        monkeypatch.setattr(
            CacheController, "_add_telemetry_deltas", lambda self, marks: None
        )
        trace = make_random_trace(300, seed=52, write_share=0.5)
        divergences = run_differential(trace, "rmw", tiny_geometry)
        assert any(
            "telemetry" in line and "counters.ctrl.rmw.rmw_issued" in line
            for line in divergences
        )

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_trace_sink_emits_one_instant_per_point(self, technique, tiny_geometry):
        trace = make_random_trace(800, seed=48, word_span=200, write_share=0.6)
        runs = []
        for simulator_type in (ScalarSimulator, Simulator):
            sink = CaptureSink()
            telemetry = Telemetry(sink=sink, sampler=IntervalSampler(50))
            observed_feed(
                simulator_type, trace, technique, tiny_geometry, telemetry
            )
            runs.append((sink.instants, *observed_state(telemetry)))
        assert runs[0] == runs[1]
        instants, registry, _ = runs[1]
        per_point = Counter(
            f"ctrl.{name}" for name, category, _ in instants
            if category == "controller"
        )
        expected = {
            name: value for name, value in registry["counters"].items()
            if name.rsplit(".", 1)[1] not in (
                "read_requests", "write_requests", "hits", "misses"
            )
        }
        assert per_point == expected
        if technique != "conventional":
            assert per_point


class TestGates:
    def test_finalized_controller_rejected(self, tiny_geometry):
        trace = make_random_trace(4, seed=39)
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        chunk = next(iter_chunks(trace, tiny_geometry))
        controller.finalize()
        with pytest.raises(StateError, match="already finalized"):
            process_chunk(controller, chunk)

    def test_geometry_mismatch_rejected(self, tiny_geometry, small_geometry):
        trace = make_random_trace(10, seed=40)
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        chunk = next(iter_chunks(trace, small_geometry))
        with pytest.raises(ValidationError, match="decoded for"):
            process_chunk(controller, chunk)


class TestChunkRoundTrip:
    def test_batch_chunk_batch_round_trip(self, tiny_geometry):
        trace = make_random_trace(257, seed=41, word_span=120)
        for batch in iter_batches(trace, tiny_geometry, 64):
            chunk = ColumnarChunk.from_access_batch(batch)
            # The records the per-access fallback builds from a chunk.
            records = TraceColumns(
                chunk.icounts, chunk.kinds, chunk.addresses, chunk.values
            )
            again = AccessBatch.from_accesses(records, tiny_geometry)
            assert again == batch

    def test_grouped_projection_is_cached(self, tiny_geometry):
        trace = make_random_trace(100, seed=42)
        chunk = next(iter_chunks(trace, tiny_geometry))
        first = chunk.grouped()
        assert chunk.grouped() is first

    def test_grouped_projection_counts_writes(self, tiny_geometry):
        trace = make_random_trace(500, seed=43, write_share=0.5)
        chunk = next(iter_chunks(trace, tiny_geometry, 4096))
        writes = chunk.grouped()[-1]
        assert writes == sum(1 for access in trace if access.is_write)

    @pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_direct_decode_matches_batch_lift(self, geometry):
        trace = make_random_trace(1_000, seed=49, word_span=5_000)
        direct = list(iter_chunks(trace, geometry, 256))
        lifted = [
            ColumnarChunk.from_access_batch(batch)
            for batch in iter_batches(trace, geometry, 256)
        ]
        assert [len(chunk) for chunk in direct] == [256, 256, 256, 232]
        assert len(lifted) == len(direct)
        for got, expected in zip(direct, lifted):
            for column in COLUMNS:
                a, b = getattr(got, column), getattr(expected, column)
                assert a.dtype == b.dtype, column
                assert np.array_equal(a, b), column

    def test_iter_chunks_streams_one_chunk_at_a_time(self, tiny_geometry):
        trace = make_random_trace(100, seed=50)
        pulled = []

        def source():
            for access in trace:
                pulled.append(access)
                yield access

        chunks = iter_chunks(source(), tiny_geometry, 16)
        assert len(next(chunks)) == 16
        assert len(pulled) == 16

    def test_iter_chunks_rejects_bad_batch_size(self, tiny_geometry):
        with pytest.raises(ValidationError, match="batch_size must be positive"):
            next(iter_chunks([], tiny_geometry, 0))

    def test_slice_is_a_zero_copy_view(self, tiny_geometry):
        trace = make_random_trace(40, seed=51)
        chunk = next(iter_chunks(trace, tiny_geometry))
        part = chunk[5:12]
        assert len(part) == 7
        for column in COLUMNS:
            assert np.shares_memory(getattr(part, column), getattr(chunk, column))
        assert part.icounts.tolist() == [a.icount for a in trace[5:12]]
