"""Derived timed replays and campaign rows equal each technique's own
run, field by field.

One conventional :class:`TimingSimulator` run with ``derive`` yields
RMW, WG and WG+RB (``repro.perf.derive``).  Every ``PerfResult`` and
``SimulationResult`` field of each must equal that technique's own
``TimingSimulator`` run: over the 25 profiles at four geometries, two
trace lengths and two seeds, at several chunk sizes, from list and
column input, on random traces that force conflict misses and silent
writes, and on the empty trace.

A campaign row (:func:`repro.perf.derive.derive_row`) derives the same
three across a warm-up boundary; every field of all four of its
results must equal :func:`repro.sim.campaign._run_one` at warm-up
fractions 0, 0.1 and 0.37, on a small and a large cache, at several
chunk sizes.
"""

from dataclasses import asdict

import pytest

from repro.cache.config import CacheGeometry
from repro.errors import ValidationError
from repro.perf.derive import DERIVED_TECHNIQUES, PAPER_TECHNIQUES, derive_row
from repro.perf.timing import TimingSimulator
from repro.sim.campaign import _run_one
from repro.sim.experiment import ExperimentConfig
from repro.sram.timing import PhaseTiming
from repro.trace.columns import TraceColumns
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import benchmark_names, get_profile

from tests.conftest import make_random_trace

GEOMETRIES = (
    CacheGeometry(64 * 1024, 4, 32),
    CacheGeometry(4 * 1024, 2, 32),
    CacheGeometry(16 * 1024, 8, 64),
    CacheGeometry(32 * 1024, 4, 64),
)


def assert_derived_equal_own_runs(trace, geometry, timing=None, batch_size=None):
    traversal = TimingSimulator("conventional", geometry, timing, batch_size)
    conventional = traversal.run(trace, DERIVED_TECHNIQUES)
    assert traversal.replays["conventional"] == (conventional, traversal.result)
    assert set(traversal.replays) == {"conventional", *DERIVED_TECHNIQUES}
    for technique in DERIVED_TECHNIQUES:
        own = TimingSimulator(technique, geometry, timing, batch_size)
        perf, result = traversal.replays[technique]
        assert perf == own.run(trace), technique
        expected = own.result
        assert result.technique == expected.technique
        assert result.geometry == expected.geometry
        assert result.requests == expected.requests
        assert result.events.to_dict() == expected.events.to_dict(), technique
        assert result.counts == expected.counts, technique
        assert result.cache_stats == expected.cache_stats, technique


@pytest.mark.parametrize("profile", benchmark_names())
def test_every_profile_geometry_length_and_seed(profile):
    for length in (600, 5000):
        for seed in (2012, 7):
            trace = generate_trace(get_profile(profile), length, seed=seed)
            for geometry in GEOMETRIES:
                assert_derived_equal_own_runs(trace, geometry)


@pytest.mark.parametrize("batch_size", (1, 7, None), ids=("1", "7", "default"))
@pytest.mark.parametrize("as_records", (False, True), ids=("columns", "list"))
def test_chunk_sizes_and_input_forms(batch_size, as_records):
    for profile in ("gamess", "mcf", "bwaves"):
        trace = generate_trace(get_profile(profile), 600, seed=7)
        assert isinstance(trace, TraceColumns)
        if as_records:
            trace = list(trace)
        assert_derived_equal_own_runs(trace, GEOMETRIES[1], batch_size=batch_size)


@pytest.mark.parametrize("seed", range(6))
def test_conflict_misses_and_silent_writes(seed, tiny_geometry):
    """A compact footprint on a tiny cache: every write-back site, dirty
    and clean victims, and silent writes in every window."""
    trace = make_random_trace(1500, seed=seed, word_span=200, write_share=0.5)
    timing = PhaseTiming(array_read_cycles=3, array_write_cycles=4)
    assert_derived_equal_own_runs(trace, tiny_geometry, timing, batch_size=97)


@pytest.mark.parametrize(
    "trace", ([], TraceColumns.from_lists([], [], [], [])), ids=("list", "columns")
)
def test_the_empty_trace(trace):
    assert_derived_equal_own_runs(trace, GEOMETRIES[0])


class TestGate:
    def test_only_a_conventional_replay_derives(self, tiny_geometry):
        with pytest.raises(ValidationError, match="only a conventional"):
            TimingSimulator("rmw", tiny_geometry).run([], ("wg",))
        with pytest.raises(ValidationError, match="miss traffic"):
            TimingSimulator(
                "conventional", tiny_geometry, count_miss_traffic=True
            ).run([], ("wg",))

    def test_unknown_technique_rejected(self, tiny_geometry):
        with pytest.raises(ValidationError, match="cannot derive"):
            TimingSimulator("conventional", tiny_geometry).run([], ("write_buffer",))

    def test_a_plain_run_replays_only_itself(self, tiny_geometry):
        simulator = TimingSimulator("wg", tiny_geometry)
        perf = simulator.run(make_random_trace(50))
        assert simulator.replays == {"wg": (perf, simulator.result)}


ROW_GEOMETRIES = (CacheGeometry(4 * 1024, 2, 32), CacheGeometry(128 * 1024, 4, 32))
WARMUP_FRACTIONS = (0.0, 0.1, 0.37)


def assert_row_equals_own_runs(trace, geometry, warmup_fraction, batch_size=None):
    config = ExperimentConfig(
        geometry=geometry,
        accesses_per_benchmark=len(trace),
        warmup_fraction=warmup_fraction,
    )
    warmup = config.warmup_accesses
    row = derive_row(trace, geometry, warmup, batch_size)
    assert set(row) == set(PAPER_TECHNIQUES)
    for technique in PAPER_TECHNIQUES:
        expected = _run_one(trace, technique, config)
        result = row[technique]
        assert result.technique == expected.technique
        assert result.geometry == expected.geometry
        assert result.requests == expected.requests == len(trace) - warmup
        assert result.events.to_dict() == expected.events.to_dict(), technique
        assert asdict(result.counts) == asdict(expected.counts), technique
        assert result.cache_stats == expected.cache_stats, technique


class TestRows:
    @pytest.mark.parametrize("batch_size", (1, 7, None), ids=("1", "7", "default"))
    @pytest.mark.parametrize("geometry", ROW_GEOMETRIES, ids=lambda g: g.describe())
    @pytest.mark.parametrize("fraction", WARMUP_FRACTIONS)
    def test_warmup_fractions_geometries_and_chunk_sizes(
        self, fraction, geometry, batch_size
    ):
        for profile in ("gamess", "mcf", "bwaves"):
            trace = generate_trace(get_profile(profile), 2000, seed=7)
            assert_row_equals_own_runs(trace, geometry, fraction, batch_size)

    @pytest.mark.parametrize("profile", benchmark_names())
    def test_every_profile(self, profile):
        trace = generate_trace(get_profile(profile), 3000, seed=2012)
        for geometry in ROW_GEOMETRIES:
            for fraction in WARMUP_FRACTIONS:
                assert_row_equals_own_runs(trace, geometry, fraction)

    @pytest.mark.parametrize("seed", range(4))
    def test_conflict_misses_and_silent_writes(self, seed, tiny_geometry):
        """Dirty windows, resident blocks and evictions straddle the
        boundary, down to one request before or after it."""
        trace = make_random_trace(1500, seed=seed, word_span=200, write_share=0.5)
        for fraction in (0.001, 0.37, 0.999):
            assert_row_equals_own_runs(trace, tiny_geometry, fraction, batch_size=97)

    def test_record_list_input(self):
        trace = list(generate_trace(get_profile("mcf"), 1200, seed=7))
        assert_row_equals_own_runs(trace, ROW_GEOMETRIES[0], 0.37, batch_size=7)
