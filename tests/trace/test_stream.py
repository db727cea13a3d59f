"""Unit tests for :func:`materialize` and the slices that cut a trace."""

import pytest

from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stream import materialize


def _trace(n):
    return [
        MemoryAccess(icount=i, kind=AccessType.READ, address=8 * i)
        for i in range(n)
    ]


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
        # A warm-up cut and a length limit are slices of the columns.
        columns = TraceColumns.from_lists(
            range(20), [0] * 20, range(0, 160, 8), [0] * 20
        )
        result = materialize(columns[5:][:10])
        assert isinstance(result, TraceColumns)
        assert [a.icount for a in result] == list(range(5, 15))


def _columns(n):
    return TraceColumns.from_lists(
        range(n), [0] * n, range(0, 8 * n, 8), [0] * n
    )


class TestSlicesCutTraces:
    """A warm-up cut, a length limit and a sample are slices of the columns."""

    def test_warmup_cut(self):
        result = _columns(10)[4:]
        assert isinstance(result, TraceColumns)
        assert result.icounts.tolist() == [4, 5, 6, 7, 8, 9]
        assert _columns(5)[0:] == _columns(5)
        assert list(_columns(3)[10:]) == []

    def test_length_limit(self):
        assert _columns(10)[:4].icounts.tolist() == [0, 1, 2, 3]
        assert list(_columns(10)[:0]) == []
        assert len(_columns(3)[:10]) == 3

    def test_sample(self):
        assert _columns(9)[::3].icounts.tolist() == [0, 3, 6]
        assert _columns(7)[::1] == _columns(7)

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            _columns(3)[::0]

    def test_cuts_build_no_records(self, monkeypatch):
        built = []
        original = MemoryAccess.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MemoryAccess, "__post_init__", counting)
        result = _columns(40)[5:][:20][::2]
        assert len(result) == 10
        assert built == []
        assert [a.icount for a in result] == list(range(5, 25, 2))
