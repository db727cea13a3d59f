"""Unit tests for TraceStatistics (Figures 3/4/5 machinery)."""

import pytest

from repro.cache.address import AddressMapper
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stats import ScenarioBreakdown, TraceStatistics, collect_statistics
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import benchmark_names, get_profile


def R(icount, address):
    return MemoryAccess(icount=icount, kind=AccessType.READ, address=address)


def W(icount, address, value):
    return MemoryAccess(
        icount=icount, kind=AccessType.WRITE, address=address, value=value
    )


def same_set(_address):
    """Set mapping that puts everything in one set."""
    return 0


def by_64(address):
    """Set mapping with 64-byte granularity."""
    return address // 64


class TestCounts:
    def test_read_write_counts(self):
        stats = collect_statistics([R(1, 0), W(2, 8, 5), R(3, 16)])
        assert stats.reads == 2
        assert stats.writes == 1
        assert stats.accesses == 3

    def test_instruction_span(self):
        stats = collect_statistics([R(10, 0), R(29, 8)])
        assert stats.instructions == 20

    def test_frequencies(self):
        stats = collect_statistics([R(0, 0), W(9, 8, 1)])
        assert stats.read_frequency == pytest.approx(0.1)
        assert stats.write_frequency == pytest.approx(0.1)
        assert stats.memory_access_frequency == pytest.approx(0.2)

    def test_empty_trace(self):
        stats = collect_statistics([])
        assert stats.instructions == 0
        assert stats.read_frequency == 0.0
        assert stats.silent_write_fraction == 0.0


class TestSilentWrites:
    def test_first_zero_write_is_silent(self):
        stats = collect_statistics([W(0, 0, 0)])
        assert stats.silent_writes == 1

    def test_repeat_value_is_silent(self):
        stats = collect_statistics([W(0, 0, 7), W(1, 0, 7)])
        assert stats.silent_writes == 1
        assert stats.silent_write_fraction == 0.5

    def test_changing_value_not_silent(self):
        stats = collect_statistics([W(0, 0, 7), W(1, 0, 8), W(2, 0, 7)])
        assert stats.silent_writes == 0

    def test_different_words_tracked_separately(self):
        stats = collect_statistics([W(0, 0, 7), W(1, 8, 7), W(2, 0, 7)])
        assert stats.silent_writes == 1  # only the third repeats word 0


class TestScenarios:
    def test_all_four_scenarios(self):
        trace = [R(0, 0), R(1, 8), W(2, 16, 1), W(3, 24, 2), R(4, 0)]
        stats = collect_statistics(trace, same_set)
        assert stats.scenarios.read_read == 1
        assert stats.scenarios.read_write == 1
        assert stats.scenarios.write_write == 1
        assert stats.scenarios.write_read == 1
        assert stats.scenarios.total_pairs == 4
        assert stats.scenarios.same_set_share == 1.0

    def test_different_sets_not_counted(self):
        trace = [R(0, 0), R(1, 64), R(2, 128)]
        stats = collect_statistics(trace, by_64)
        assert stats.scenarios.same_set_pairs == 0
        assert stats.scenarios.total_pairs == 2

    def test_mixed_sets(self):
        trace = [R(0, 0), R(1, 8), R(2, 64)]
        stats = collect_statistics(trace, by_64)
        assert stats.scenarios.read_read == 1
        assert stats.scenarios.same_set_share == pytest.approx(0.5)

    def test_no_mapping_no_scenarios(self):
        stats = collect_statistics([R(0, 0), R(1, 8)])
        assert stats.scenarios.same_set_pairs == 0
        assert stats.scenarios.total_pairs == 1

    def test_share_unknown_scenario_rejected(self):
        breakdown = ScenarioBreakdown()
        with pytest.raises(ValueError):
            breakdown.share("XX")

    def test_share_names(self):
        trace = [W(0, 0, 1), W(1, 8, 2)]
        stats = collect_statistics(trace, same_set)
        assert stats.scenarios.share("WW") == 1.0
        assert stats.scenarios.share("RR") == 0.0


class TestIncremental:
    def test_observe_matches_collect(self):
        trace = [R(0, 0), W(3, 8, 4), R(5, 8), W(9, 8, 4)]
        incremental = TraceStatistics(set_index_fn=same_set)
        for access in trace:
            incremental.observe(access)
        batch = collect_statistics(trace, same_set)
        assert incremental.reads == batch.reads
        assert incremental.silent_writes == batch.silent_writes
        assert incremental.scenarios == batch.scenarios

    def test_write_share_of_accesses(self):
        stats = collect_statistics([R(0, 0), W(1, 0, 1), W(2, 0, 2), R(3, 0)])
        assert stats.write_share_of_accesses == pytest.approx(0.5)


# -- the column path ---------------------------------------------------------

#: The set mappings the column path is checked under: none, and the
#: baseline plus three other geometries.
MAPPINGS = {
    "none": None,
    "64KB/4-way/32B": BASELINE_GEOMETRY,
    "4KB/2-way/32B": CacheGeometry(4 * 1024, 2, 32),
    "32KB/4-way/64B": CacheGeometry(32 * 1024, 4, 64),
}
#: One set holds everything: every consecutive pair is same-set.
ONE_SET = CacheGeometry(256, 8, 32)


def as_columns(records):
    return TraceColumns.from_lists(
        [access.icount for access in records],
        [int(access.is_write) for access in records],
        [access.address for access in records],
        [access.value for access in records],
    )


def reference(records, set_index_fn=None):
    stats = TraceStatistics(set_index_fn=set_index_fn)
    for access in records:
        stats.observe(access)
    return stats


@pytest.fixture
def built_records(monkeypatch):
    """Count the record builds of every :class:`TraceColumns`."""
    calls = []
    original = TraceColumns._built_records

    def counting(self):
        calls.append(len(self))
        return original(self)

    monkeypatch.setattr(TraceColumns, "_built_records", counting)
    return calls


def on_columns(records, geometry=None):
    """The column path's statistics of ``records``, checked against
    ``observe``: every public count and the state ``observe`` would
    carry on from."""
    set_index_fn = AddressMapper(geometry).set_index if geometry else None
    stats = collect_statistics(as_columns(records), set_index_fn)
    assert stats == reference(records, set_index_fn)
    return stats


class TestColumnsMatchObserve:
    @pytest.mark.parametrize("seed", (2012, 7))
    @pytest.mark.parametrize("name", benchmark_names())
    def test_every_profile_and_mapping(self, name, seed):
        trace = generate_trace(get_profile(name), 1500, seed=seed)
        records = list(trace)
        for geometry in MAPPINGS.values():
            set_index_fn = AddressMapper(geometry).set_index if geometry else None
            stats = collect_statistics(trace, set_index_fn)
            expected = reference(records, set_index_fn)
            for count in (
                "reads", "writes", "silent_writes", "first_icount",
                "last_icount", "instructions", "scenarios",
            ):
                assert getattr(stats, count) == getattr(expected, count), count
            assert stats == expected

    def test_builds_no_records(self, built_records):
        trace = generate_trace(get_profile("bwaves"), 500, seed=1)
        collect_statistics(trace)
        collect_statistics(trace, AddressMapper(BASELINE_GEOMETRY).set_index)
        assert built_records == []

    def test_empty_trace(self):
        for geometry in (None, BASELINE_GEOMETRY):
            stats = on_columns([], geometry)
            assert stats.instructions == 0
            assert stats.scenarios.total_pairs == 0

    def test_single_access(self):
        stats = on_columns([W(4, 8, 3)], BASELINE_GEOMETRY)
        assert stats.instructions == 1
        assert stats.scenarios.total_pairs == 0

    def test_first_write_of_zero_is_silent(self):
        stats = on_columns([W(0, 0, 0), W(1, 8, 0), W(2, 0, 5), W(3, 0, 0)])
        assert stats.silent_writes == 2

    def test_repeated_values(self):
        records = [
            W(0, 0, 7), W(1, 8, 7), W(2, 0, 7), R(3, 0), W(4, 0, 7),
            W(5, 0, 8), W(6, 8, 7), W(7, 0, 7), W(8, 16, 0), W(9, 16, 0),
        ]
        stats = on_columns(records)
        assert stats.silent_writes == 5

    def test_no_writes(self):
        stats = on_columns([R(0, 0), R(1, 8), R(2, 64)], ONE_SET)
        assert stats.silent_writes == 0
        assert stats.scenarios.read_read == 2

    def test_all_four_scenarios(self):
        trace = [R(0, 0), R(1, 8), W(2, 16, 1), W(3, 24, 2), R(4, 0)]
        stats = on_columns(trace, ONE_SET)
        assert stats.scenarios == ScenarioBreakdown(1, 1, 1, 1, 4)

    def test_observe_carries_on_from_collected_columns(self):
        trace = [W(0, 0, 7), R(1, 8), W(2, 8, 0)]
        more = [W(3, 0, 7), W(4, 8, 0), R(5, 0)]
        mapper = AddressMapper(ONE_SET)
        stats = collect_statistics(as_columns(trace), mapper.set_index)
        for access in more:
            stats.observe(access)
        assert stats == reference(trace + more, mapper.set_index)

    def test_other_mappings_fall_back_to_observe(self, built_records):
        trace = as_columns([R(0, 0), R(1, 8), W(2, 64, 1), W(3, 72, 2)])

        class CoarseMapper(AddressMapper):
            def set_index(self, address):
                return address // 64

        for set_index_fn in (by_64, CoarseMapper(BASELINE_GEOMETRY).set_index):
            stats = collect_statistics(trace, set_index_fn)
            assert stats.scenarios == ScenarioBreakdown(1, 0, 1, 0, 3)
        assert built_records
