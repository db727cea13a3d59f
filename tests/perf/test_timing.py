"""Unit tests for the port-contention timing model (Section 5.5)."""

import gc
import weakref
from contextlib import nullcontext

import pytest

from repro.cache.config import CacheGeometry
from repro.perf import timing as timing_module
from repro.perf.derive import DERIVED_TECHNIQUES
from repro.perf.timing import (
    PerfResult,
    TimingSimulator,
    evaluate_performance,
    timed_replay,
)
from repro.sim.simulator import SimulationResult
from repro.sram.timing import PhaseTiming
from repro.trace.record import AccessType, MemoryAccess
from repro.utils.memo import memo_scope, scope_memo
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

from tests.conftest import make_random_trace


def R(icount, address):
    return MemoryAccess(icount=icount, kind=AccessType.READ, address=address)


def W(icount, address, value):
    return MemoryAccess(
        icount=icount, kind=AccessType.WRITE, address=address, value=value
    )


class TestBasicLatency:
    def test_uncontended_read_latency(self, tiny_geometry):
        result = TimingSimulator("rmw", tiny_geometry).run([R(0, 0)])
        assert result.mean_read_latency == PhaseTiming().array_read_cycles

    def test_rmw_write_blocks_following_read(self, tiny_geometry):
        """RMW's read phase occupies the read port: a read arriving
        right behind a write stalls (the paper's 1R/1W complaint)."""
        trace = [W(0, 0x00, 1), R(1, 0x20)]
        rmw = TimingSimulator("rmw", tiny_geometry).run(trace)
        assert rmw.read_port_conflicts >= 1
        assert rmw.mean_read_latency > PhaseTiming().array_read_cycles

    def test_grouped_write_frees_read_port(self, tiny_geometry):
        """Under WG the same pattern leaves the read port alone once the
        set is buffered."""
        trace = [W(0, 0x00, 1), W(2, 0x08, 2), R(3, 0x20)]
        wg = TimingSimulator("wg", tiny_geometry).run(trace)
        rmw = TimingSimulator("rmw", tiny_geometry).run(trace)
        assert wg.read_port_busy < rmw.read_port_busy

    def test_bypassed_read_is_fast(self, tiny_geometry):
        trace = [W(0, 0x00, 1), R(5, 0x00)]
        result = TimingSimulator("wg_rb", tiny_geometry).run(trace)
        assert result.bypassed_reads == 1
        # One array read (none for the bypass) plus the buffer latency.
        assert result.total_read_latency == PhaseTiming().set_buffer_cycles


class TestSuiteLevelDirections:
    @pytest.fixture(scope="class")
    def results(self, ):
        from repro.cache.config import CacheGeometry

        geometry = CacheGeometry(512, 2, 32)
        trace = make_random_trace(800, seed=3, word_span=100, write_share=0.45)
        return evaluate_performance(trace, geometry)

    def test_wg_rb_has_lowest_read_latency(self, results):
        """Section 5.5: WG+RB improves read latency."""
        assert (
            results["wg_rb"].mean_read_latency
            <= results["wg"].mean_read_latency
        )
        assert (
            results["wg_rb"].mean_read_latency
            < results["rmw"].mean_read_latency
        )

    def test_wg_reduces_read_port_pressure(self, results):
        assert results["wg"].read_port_busy < results["rmw"].read_port_busy

    def test_conventional_is_fastest_reference(self, results):
        assert (
            results["conventional"].mean_read_latency
            <= results["rmw"].mean_read_latency
        )

    def test_counts_consistent(self, results):
        for result in results.values():
            assert result.reads + result.writes == 800
            assert result.elapsed_cycles > 0
            assert 0.0 <= result.read_port_utilisation <= 1.0


class TestRejectsIterator:
    def test_one_shot_iterator_rejected(self, tiny_geometry):
        with pytest.raises(TypeError, match="reusable"):
            evaluate_performance(iter([]), tiny_geometry)
        with pytest.raises(TypeError, match="reusable"):
            evaluate_performance((a for a in [R(0, 0)]), tiny_geometry)


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every TimingSimulator that timed_replay builds."""
    made = []

    class Tracked(TimingSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(timing_module, "TimingSimulator", Tracked)
    return made


class TestTimedReplay:
    TECHNIQUES = ("conventional", "rmw", "wg", "wg_rb")

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(get_profile("bwaves"), 1500, seed=7)

    @pytest.mark.parametrize("scoped", (False, True), ids=("fresh", "shared"))
    def test_equals_a_fresh_simulator_field_by_field(
        self, trace, small_geometry, scoped
    ):
        timing = PhaseTiming(array_read_cycles=3, array_write_cycles=4)
        with memo_scope() if scoped else nullcontext():
            for technique in self.TECHNIQUES:
                for _ in range(2):
                    perf, result = timed_replay(
                        trace, technique, small_geometry, timing
                    )
                    simulator = TimingSimulator(technique, small_geometry, timing)
                    assert perf == simulator.run(trace)
                    expected = simulator.result
                    assert result.technique == expected.technique
                    assert result.geometry == expected.geometry
                    assert result.requests == expected.requests
                    assert result.events.to_dict() == expected.events.to_dict()
                    assert result.counts == expected.counts
                    assert result.cache_stats == expected.cache_stats

    def test_one_run_per_key_and_no_simulator_kept(
        self, trace, small_geometry, simulators
    ):
        """One conventional traversal per (trace, geometry, timing)
        yields all four paper techniques; the memo keeps only results."""
        with memo_scope():
            first = timed_replay(trace, "wg_rb", small_geometry)
            assert timed_replay(trace, "wg_rb", small_geometry, PhaseTiming()) == first
            assert len(simulators) == 1
            for technique in self.TECHNIQUES:
                timed_replay(trace, technique, small_geometry)
            assert len(simulators) == 1
            timed_replay(trace, "rmw", small_geometry, PhaseTiming(set_buffer_cycles=2))
            timed_replay(trace, "wg_rb", CacheGeometry(4 * 1024, 8, 32))
            assert len(simulators) == 3
            gc.collect()
            assert all(ref() is None for ref in simulators)
            kept = scope_memo("perf.timed_replay")
            assert len(kept) == 3 * len(self.TECHNIQUES)
            for entry in kept.values():
                assert entry[0] is trace
                assert [type(part) for part in entry[1:]] == [
                    PerfResult,
                    SimulationResult,
                ]

    def test_keyed_on_the_trace_object(self, small_geometry, simulators):
        profile = get_profile("mcf")
        first = generate_trace(profile, 600, seed=1)
        equal = generate_trace(profile, 600, seed=1)
        with memo_scope():
            assert timed_replay(first, "wg", small_geometry) == timed_replay(
                equal, "wg", small_geometry
            )
            assert len(simulators) == 2

    def test_outside_a_scope_every_call_runs(self, trace, small_geometry, simulators):
        timed_replay(trace, "wg", small_geometry)
        timed_replay(trace, "wg", small_geometry)
        assert len(simulators) == 2
        assert scope_memo("perf.timed_replay") is None

    def test_evaluate_performance_traverses_once(
        self, trace, small_geometry, simulators
    ):
        """The four paper techniques come from one traversal, in a scope
        of their own that ends with the call."""
        results = evaluate_performance(trace, small_geometry)
        assert len(simulators) == 1
        assert scope_memo("perf.timed_replay") is None
        assert list(results) == list(self.TECHNIQUES)
        for technique, perf in results.items():
            assert perf == TimingSimulator(technique, small_geometry).run(trace)


def assert_same_run(first, second):
    """Two ``(PerfResult, SimulationResult)`` pairs agree field by field."""
    assert first[0] == second[0]
    assert first[1].technique == second[1].technique
    assert first[1].geometry == second[1].geometry
    assert first[1].requests == second[1].requests
    assert first[1].events.to_dict() == second[1].events.to_dict()
    assert first[1].counts == second[1].counts
    assert first[1].cache_stats == second[1].cache_stats


class TestInputForms:
    """A record list, a one-shot generator and the columns of one trace
    give the same run, derived replays included."""

    @pytest.mark.parametrize("batch_size", (1, 7, None), ids=("1", "7", "default"))
    @pytest.mark.parametrize(
        "technique", ("conventional", "rmw", "wg", "wg_rb", "rmw_local")
    )
    def test_list_generator_and_columns(self, small_geometry, technique, batch_size):
        columns = generate_trace(get_profile("mcf"), 700, seed=7)
        derive = DERIVED_TECHNIQUES if technique == "conventional" else ()
        runs = []
        for given in (list(columns), (access for access in columns), columns):
            simulator = TimingSimulator(
                technique, small_geometry, batch_size=batch_size
            )
            perf = simulator.run(given, derive)
            assert simulator.replays[technique] == (perf, simulator.result)
            runs.append(simulator.replays)
        for replays in runs[1:]:
            assert list(replays) == list(runs[0])
            for name, replay in replays.items():
                assert_same_run(replay, runs[0][name])
