"""Unit tests for trace stream transformers."""

import pytest

from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stream import (
    limit_accesses,
    materialize,
    sample_accesses,
    skip_warmup,
)


def _trace(n):
    return [
        MemoryAccess(icount=i, kind=AccessType.READ, address=8 * i)
        for i in range(n)
    ]


class TestSkipWarmup:
    def test_skips_exactly(self):
        result = list(skip_warmup(_trace(10), 4))
        assert len(result) == 6
        assert result[0].icount == 4

    def test_skip_zero(self):
        assert len(list(skip_warmup(_trace(5), 0))) == 5

    def test_skip_more_than_length(self):
        assert list(skip_warmup(_trace(3), 10)) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(skip_warmup(_trace(3), -1))

    def test_lazy(self):
        # Works on a generator without materialising it.
        def infinite():
            i = 0
            while True:
                yield MemoryAccess(icount=i, kind=AccessType.READ, address=0)
                i += 1

        stream = skip_warmup(infinite(), 3)
        assert next(stream).icount == 3


class TestLimitAccesses:
    def test_truncates(self):
        assert len(list(limit_accesses(_trace(10), 4))) == 4

    def test_limit_zero(self):
        assert list(limit_accesses(_trace(10), 0)) == []

    def test_limit_beyond_length(self):
        assert len(list(limit_accesses(_trace(3), 10))) == 3

    def test_shared_iterator_keeps_next_element(self):
        # Regression: the limiter used to pull one record *beyond* the
        # limit off the underlying iterator before returning, silently
        # consuming an element that a later consumer expected to see.
        shared = iter(_trace(10))
        taken = list(limit_accesses(shared, 4))
        assert [a.icount for a in taken] == [0, 1, 2, 3]
        assert next(shared).icount == 4

    def test_limit_zero_consumes_nothing(self):
        shared = iter(_trace(3))
        assert list(limit_accesses(shared, 0)) == []
        assert next(shared).icount == 0

    def test_exact_length_exhausts_cleanly(self):
        shared = iter(_trace(3))
        assert len(list(limit_accesses(shared, 3))) == 3
        assert next(shared, None) is None


class TestSampleAccesses:
    def test_period_one_keeps_all(self):
        assert len(list(sample_accesses(_trace(7), 1))) == 7

    def test_period_three(self):
        result = list(sample_accesses(_trace(9), 3))
        assert [a.icount for a in result] == [0, 3, 6]

    def test_period_zero_rejected(self):
        with pytest.raises(ValueError):
            list(sample_accesses(_trace(3), 0))


class TestMaterialize:
    def test_returns_list(self):
        result = materialize(a for a in _trace(4))
        assert isinstance(result, list)
        assert len(result) == 4

    def test_list_becomes_a_new_list(self):
        trace = _trace(3)
        result = materialize(trace)
        assert isinstance(result, list)
        assert result == trace and result is not trace

    def test_trace_columns_come_back_as_they_are(self):
        columns = TraceColumns.from_lists([1, 2], [0, 1], [0, 8], [0, 5])
        assert materialize(columns) is columns

    def test_composition(self):
        result = materialize(
            limit_accesses(skip_warmup(_trace(20), 5), 10)
        )
        assert [a.icount for a in result] == list(range(5, 15))
