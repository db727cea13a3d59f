"""Tests for column-backed traces (:class:`TraceColumns`)."""

import numpy as np
import pytest

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.columnar import iter_chunks
from repro.errors import ValidationError
from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

COLUMNS = ("icounts", "kinds", "addresses", "values")
CHUNK_FIELDS = COLUMNS + ("set_indices", "tags", "word_offsets")
SMALL_GEOMETRY = CacheGeometry(size_bytes=1024, associativity=2, block_bytes=32)


def _trace(length=300, name="gcc", seed=5):
    return generate_trace(get_profile(name), length, seed=seed)


def _records(trace):
    """The equivalent plain list, built column by column (not via the trace)."""
    return [
        MemoryAccess(
            icount, AccessType.WRITE if kind else AccessType.READ, address, value
        )
        for icount, kind, address, value in zip(
            *(getattr(trace, column).tolist() for column in COLUMNS)
        )
    ]


@pytest.fixture
def post_init_calls(monkeypatch):
    """Count MemoryAccess validations (one per record built)."""
    calls = []
    original = MemoryAccess.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(MemoryAccess, "__post_init__", counting)
    return calls


class TestListContract:
    def test_column_dtypes(self):
        trace = _trace()
        assert [getattr(trace, c).dtype for c in COLUMNS] == [
            np.uint64, np.uint8, np.uint64, np.uint64
        ]

    def test_equals_the_list_it_replaces(self):
        trace = _trace()
        records = _records(trace)
        assert trace == records
        assert records == trace
        assert not trace != records
        assert trace != records[:-1]
        assert trace != records[::-1]

    def test_equality_between_column_traces(self):
        assert _trace() == _trace()
        assert _trace() != _trace(seed=6)
        assert _trace(300) != _trace(301)

    def test_not_equal_to_other_types(self):
        trace = _trace()
        assert trace != tuple(_records(trace))
        assert trace != "trace"

    def test_len_and_bool(self):
        trace = _trace(17)
        assert len(trace) == 17
        assert trace
        empty = trace[5:5]
        assert len(empty) == 0
        assert not empty
        assert list(empty) == []

    def test_int_and_negative_indexing(self):
        trace = _trace()
        records = _records(trace)
        for index in (0, 1, 150, len(records) - 1, -1, -2, -len(records)):
            assert trace[index] == records[index]
        with pytest.raises(IndexError):
            trace[len(records)]
        with pytest.raises(IndexError):
            trace[-len(records) - 1]

    def test_iteration(self):
        trace = _trace()
        assert list(trace) == _records(trace)
        assert list(reversed(trace)) == _records(trace)[::-1]

    @pytest.mark.parametrize(
        "key",
        [slice(None, 30), slice(30, None), slice(10, 250), slice(-40, -3),
         slice(None, None, 3), slice(250, 10, -7), slice(400, 500)],
    )
    def test_slices_equal_list_slices(self, key):
        trace = _trace()
        part = trace[key]
        assert isinstance(part, TraceColumns)
        assert part == _records(trace)[key]

    def test_slices_are_column_views(self, post_init_calls):
        trace = _trace()
        part = trace[20:120]
        for column in COLUMNS:
            assert np.shares_memory(getattr(part, column), getattr(trace, column))
        assert post_init_calls == []

    def test_membership_and_index(self):
        trace = _trace()
        records = _records(trace)
        assert records[42] in trace
        assert trace.index(records[42]) == records.index(records[42])


class TestLazyRecords:
    def test_records_built_once_on_first_use(self, post_init_calls):
        trace = _trace(50)
        assert post_init_calls == []
        first = trace[7]
        assert len(post_init_calls) == 50
        assert trace[7] is first
        assert list(trace)[7] is first
        assert len(post_init_calls) == 50

    def test_slice_of_built_trace_shares_records(self, post_init_calls):
        trace = _trace(50)
        built = list(trace)
        assert trace[10:20][0] is built[10]
        assert len(post_init_calls) == 50

    def test_validation_still_runs(self):
        trace = TraceColumns.from_lists([1, 2], [0, 1], [0, 12], [0, 5])
        assert len(trace) == 2
        with pytest.raises(ValidationError, match="aligned"):
            list(trace)
        with pytest.raises(ValidationError):
            trace[0]

    def test_kinds_map_to_access_types(self):
        trace = TraceColumns.from_lists([3, 9], [1, 0], [64, 128], [7, 0])
        assert list(trace) == [
            MemoryAccess(3, AccessType.WRITE, 64, 7),
            MemoryAccess(9, AccessType.READ, 128, 0),
        ]


class TestOf:
    def test_columns_come_back_as_they_are(self, post_init_calls):
        trace = _trace(50)
        assert TraceColumns.of(trace) is trace
        assert post_init_calls == []

    @pytest.mark.parametrize("wrap", (list, iter, tuple))
    def test_records_are_packed_and_kept(self, wrap, post_init_calls):
        records = _records(_trace(60))
        post_init_calls.clear()
        columns = TraceColumns.of(wrap(records))
        assert [getattr(columns, c).dtype for c in COLUMNS] == [
            np.uint64, np.uint8, np.uint64, np.uint64
        ]
        assert columns == TraceColumns.of(_trace(60))
        assert list(columns) == records
        assert columns[5] is records[5]
        assert post_init_calls == []

    def test_empty(self):
        columns = TraceColumns.of([])
        assert len(columns) == 0
        assert columns.kinds.dtype == np.uint8


def _assert_same_chunks(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.geometry == theirs.geometry
        for field in CHUNK_FIELDS:
            a, b = getattr(mine, field), getattr(theirs, field)
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field


class TestIterChunks:
    @pytest.mark.parametrize("batch_size", [1, 7, None])
    @pytest.mark.parametrize(
        "key", [slice(None), slice(13, None), slice(DEFAULT_BATCH_SIZE - 5, None)]
    )
    def test_chunks_match_list_path(self, batch_size, key):
        trace = _trace(2 * DEFAULT_BATCH_SIZE + 37)[key]
        records = _records(trace)
        for geometry in (BASELINE_GEOMETRY, SMALL_GEOMETRY):
            _assert_same_chunks(
                list(iter_chunks(trace, geometry, batch_size)),
                list(iter_chunks(records, geometry, batch_size)),
            )

    def test_trace_shorter_than_one_chunk(self):
        trace = _trace(40)
        chunks = list(iter_chunks(trace, BASELINE_GEOMETRY))
        assert [len(chunk) for chunk in chunks] == [40]
        _assert_same_chunks(
            chunks, list(iter_chunks(_records(trace), BASELINE_GEOMETRY))
        )

    def test_empty_trace_yields_nothing(self):
        assert list(iter_chunks(_trace(40)[40:], BASELINE_GEOMETRY)) == []

    def test_builds_no_records(self, post_init_calls):
        trace = _trace()
        for chunk in iter_chunks(trace[25:], BASELINE_GEOMETRY, 64):
            chunk.grouped()
        assert post_init_calls == []

    def test_bad_batch_size_raises_like_the_list_path(self):
        trace = _trace(10)
        for source in (trace, _records(trace)):
            with pytest.raises(ValidationError, match="batch_size"):
                next(iter_chunks(source, BASELINE_GEOMETRY, 0))
