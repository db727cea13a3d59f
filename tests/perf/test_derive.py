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
fractions 0, 0.1 and 0.37, on a small and a large cache, and the same
two slices run on a ``Simulator`` fed in chunks of 1 and 7 records.

Both take one tag walk (:func:`repro.perf.derive.traverse`), which
takes each slice whole.  Its miss trail must equal every paper
technique's per-access misses, its tag slots a value-accurate
``Simulator``'s at the warm-up boundary and at the end, and its
conventional result that ``Simulator``'s and
:func:`repro.sim.campaign._run_one`'s: at 1, 2, 4 and 8 ways and 1,024
sets, warm-up fractions 0, 0.1 and 0.37, and with the ``Simulator``
fed in chunks of 1, 7 and the default, so chunk boundaries fall inside
the walk's same-(set, tag) runs.
"""

from dataclasses import asdict

import numpy
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.core.registry import make_controller
from repro.errors import ValidationError
from repro.obs.telemetry import Telemetry
from repro.perf.derive import (
    DERIVED_TECHNIQUES,
    PAPER_TECHNIQUES,
    derive_row,
    traverse,
)
from repro.perf.timing import TimingSimulator
from repro.sim.campaign import _run_one
from repro.sim.experiment import ExperimentConfig
from repro.sim.simulator import Simulator
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

    def test_a_telemetry_controller_does_not_derive(self, tiny_geometry):
        """The tag walk runs no controller, so it has none to observe."""
        with pytest.raises(ValidationError, match="with telemetry"):
            TimingSimulator(
                "conventional", tiny_geometry, telemetry=Telemetry()
            ).run([], ("wg",))

    def test_a_plain_run_replays_only_itself(self, tiny_geometry):
        simulator = TimingSimulator("wg", tiny_geometry)
        perf = simulator.run(make_random_trace(50))
        assert simulator.replays == {"wg": (perf, simulator.result)}
        assert simulator.controller.name == "wg"
        assert simulator.cache is simulator.controller.cache

    def test_a_derived_run_builds_no_simulator(self, tiny_geometry, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a derived run built a Simulator")

        monkeypatch.setattr(Simulator, "__init__", refuse)
        simulator = TimingSimulator("conventional", tiny_geometry)
        simulator.run(make_random_trace(50), DERIVED_TECHNIQUES)
        assert simulator.cache is None and simulator.controller is None
        assert list(simulator.replays) == list(PAPER_TECHNIQUES)


ROW_GEOMETRIES = (CacheGeometry(4 * 1024, 2, 32), CacheGeometry(128 * 1024, 4, 32))
WARMUP_FRACTIONS = (0.0, 0.1, 0.37)


def chunked_run(trace, technique, geometry, warmup, batch_size):
    """:func:`_run_one`'s warm-up and measured slices on a ``Simulator``
    fed ``batch_size`` records at a time (the default chunk at None).

    Returns the result and the tag slots at the boundary (None without
    a warm-up) and at the end."""
    simulator = Simulator(technique, geometry, batch_size=batch_size)
    start_tags = None
    if warmup:
        simulator.feed(trace[:warmup])
        start_tags = simulator.cache.tag_slots()
        simulator.reset_measurements()
    simulator.feed(trace[warmup:])
    return simulator.finish(), start_tags, simulator.cache.tag_slots()


def assert_row_equals_own_runs(trace, geometry, warmup_fraction, batch_size=None):
    """``batch_size`` chunks the own runs the row is held to; the row's
    walk takes each slice whole."""
    config = ExperimentConfig(
        geometry=geometry,
        accesses_per_benchmark=len(trace),
        warmup_fraction=warmup_fraction,
    )
    warmup = config.warmup_accesses
    row = derive_row(trace, geometry, warmup)
    assert set(row) == set(PAPER_TECHNIQUES)
    for technique in PAPER_TECHNIQUES:
        expected = (
            _run_one(trace, technique, config)
            if batch_size is None
            else chunked_run(trace, technique, geometry, warmup, batch_size)[0]
        )
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


class TestOneSort:
    """With a warm-up the prefix's dirty evictions reuse the whole
    trace's (set, tag) order: one ``np.lexsort`` per derived row (its
    fields are ``TestRows``'s to check)."""

    @pytest.mark.parametrize("fraction", WARMUP_FRACTIONS)
    def test_one_sort_per_derived_row(self, fraction, monkeypatch):
        sorts = []
        lexsort = numpy.lexsort

        def counting(keys, *args, **kwargs):
            sorts.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        trace = generate_trace(get_profile("mcf"), 2000, seed=7)
        monkeypatch.setattr(numpy, "lexsort", counting)
        derive_row(trace, ROW_GEOMETRIES[0], int(len(trace) * fraction))
        assert sorts == [len(trace)]


def scalar_trail(trace, technique, geometry):
    """``not cache_hit`` of each request of a per-access run."""
    controller = make_controller(technique, SetAssociativeCache(geometry))
    return [not controller.process(access).cache_hit for access in trace]


def assert_result_equal(result, expected):
    assert result.technique == expected.technique
    assert result.geometry == expected.geometry
    assert result.requests == expected.requests
    assert result.events.to_dict() == expected.events.to_dict()
    assert asdict(result.counts) == asdict(expected.counts)
    assert result.cache_stats == expected.cache_stats


WALK_GEOMETRIES = (
    CacheGeometry(2 * 1024, 1, 32),
    CacheGeometry(4 * 1024, 2, 32),
    CacheGeometry(8 * 1024, 4, 32),
    CacheGeometry(16 * 1024, 8, 64),
    CacheGeometry(64 * 1024, 2, 32),  # 1,024 sets
)


class TestWalk:
    """The tag walk behind every derived row and timed replay."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            "mcf": generate_trace(get_profile("mcf"), 2000, seed=7),
            "conflicts": make_random_trace(
                2000, seed=3, word_span=3000, write_share=0.5
            ),
        }

    @pytest.mark.parametrize("batch_size", (1, 7, None), ids=("1", "7", "default"))
    @pytest.mark.parametrize("fraction", WARMUP_FRACTIONS)
    @pytest.mark.parametrize(
        "geometry",
        WALK_GEOMETRIES,
        ids=lambda g: f"{g.associativity}w-{g.num_sets}s",
    )
    def test_trail_tag_slots_and_result(self, traces, geometry, fraction, batch_size):
        for trace in traces.values():
            config = ExperimentConfig(
                geometry=geometry,
                accesses_per_benchmark=len(trace),
                warmup_fraction=fraction,
            )
            warmup = config.warmup_accesses
            walked = traverse(trace, geometry, warmup)
            expected = scalar_trail(trace, "conventional", geometry)
            assert walked.missed.tolist() == expected
            assert any(expected) and not all(expected)

            result, start_tags, final_tags = chunked_run(
                trace, "conventional", geometry, warmup, batch_size
            )
            if warmup:
                assert numpy.array_equal(walked.start_tags, start_tags)
            else:
                assert walked.start_tags is None
            assert numpy.array_equal(walked.final_tags, final_tags)
            assert walked.start == warmup
            assert_result_equal(walked.result, result)
            assert_result_equal(
                walked.result, _run_one(trace, "conventional", config)
            )

    @pytest.mark.parametrize("batch_size", (1, 7, None), ids=("1", "7", "default"))
    @pytest.mark.parametrize("technique", PAPER_TECHNIQUES)
    def test_trail_matches_scalar_outcomes(self, technique, batch_size, tiny_geometry):
        """Every paper technique hits and misses alike, so one trail
        serves all four, and one walk leaves the tags each technique's
        chunked run leaves."""
        trace = make_random_trace(1_500, seed=44, word_span=300, write_share=0.5)
        expected = scalar_trail(trace, technique, tiny_geometry)
        walked = traverse(trace, tiny_geometry)
        assert walked.missed.tolist() == expected
        assert any(expected) and not all(expected)
        result, _, final_tags = chunked_run(
            trace, technique, tiny_geometry, 0, batch_size
        )
        assert result.cache_stats.misses == sum(expected)
        assert numpy.array_equal(walked.final_tags, final_tags)

    @pytest.mark.parametrize("batch_size", (1, 7, None), ids=("1", "7", "default"))
    def test_trail_across_a_warmup_boundary(self, batch_size, tiny_geometry):
        """The trail runs through the boundary; only the rest is
        measured."""
        trace = make_random_trace(900, seed=46, word_span=300, write_share=0.5)
        expected = scalar_trail(trace, "conventional", tiny_geometry)
        walked = traverse(trace, tiny_geometry, 300)
        assert walked.missed.tolist() == expected
        assert walked.result.requests == 600
        result, start_tags, final_tags = chunked_run(
            trace, "conventional", tiny_geometry, 300, batch_size
        )
        assert numpy.array_equal(walked.start_tags, start_tags)
        assert numpy.array_equal(walked.final_tags, final_tags)
        assert_result_equal(walked.result, result)

    def test_the_empty_trace(self, tiny_geometry):
        walked = traverse([], tiny_geometry)
        assert walked.missed.tolist() == []
        assert (walked.final_tags == -1).all()
        assert walked.result.requests == 0

    def test_a_warmup_over_the_whole_trace(self, tiny_geometry):
        """The measured slice is empty and walks nothing."""
        trace = make_random_trace(400, seed=47, word_span=300, write_share=0.5)
        walked = traverse(trace, tiny_geometry, len(trace))
        assert walked.missed.tolist() == scalar_trail(
            trace, "conventional", tiny_geometry
        )
        assert numpy.array_equal(walked.start_tags, walked.final_tags)
        assert walked.result.requests == 0
        assert walked.result.cache_stats.evictions == 0
