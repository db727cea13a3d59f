"""Column-backed traces: a trace held as four arrays, used as a list.

:func:`repro.workload.generator.generate_trace` and the trace file
readers (:func:`repro.trace.read_binary_trace`,
:func:`repro.trace.read_text_trace`) return a :class:`TraceColumns`.
It stores a trace as four parallel NumPy columns — ``icounts``,
``addresses`` and ``values`` as u64, ``kinds`` as u8 with 1 for a
write — and behaves like the list of :class:`MemoryAccess` records it
stands for: ``len``, truth value, int and negative indexing,
iteration, slicing, and ``==`` against lists.

Records are built only when a consumer asks for one: the first
iteration or int index builds every record once, through the validating
:class:`MemoryAccess` constructor, and caches the list.  Consumers that
can work on columns never pay for records: the columnar engine's
:func:`repro.engine.columnar.iter_chunks` slices the columns directly,
and a slice of a :class:`TraceColumns` is a :class:`TraceColumns` over
column views (sharing any records already built).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Union, overload

import numpy

from repro.trace.record import AccessType, MemoryAccess

# Bound as ``Any``: the columns are checked by the trace tests, and
# NumPy's stubs would only add casts.
np: Any = numpy

__all__ = ["TraceColumns"]

_KINDS = (AccessType.READ, AccessType.WRITE)
_COLUMNS = ("icounts", "kinds", "addresses", "values")


class TraceColumns(Sequence[MemoryAccess]):
    """A trace as ``icounts``/``kinds``/``addresses``/``values`` columns.

    Construct with :meth:`from_lists` (plain ints), :meth:`of` (any
    trace) or directly from arrays of the column dtypes.  Columns are
    taken as given; record validation runs when records are built.
    """

    __slots__ = _COLUMNS + ("_records",)

    def __init__(
        self,
        icounts: Any,
        kinds: Any,
        addresses: Any,
        values: Any,
        records: Optional[List[MemoryAccess]] = None,
    ) -> None:
        self.icounts = icounts
        self.kinds = kinds
        self.addresses = addresses
        self.values = values
        self._records = records

    @classmethod
    def from_lists(
        cls,
        icounts: Sequence[int],
        kinds: Sequence[int],
        addresses: Sequence[int],
        values: Sequence[int],
    ) -> "TraceColumns":
        """Columns from plain-int sequences (``kinds``: 1 = write)."""
        return cls(
            np.array(icounts, dtype=np.uint64),
            np.array(kinds, dtype=np.uint8),
            np.array(addresses, dtype=np.uint64),
            np.array(values, dtype=np.uint64),
        )

    @classmethod
    def of(cls, trace: Iterable[MemoryAccess]) -> "TraceColumns":
        """``trace`` as columns: a :class:`TraceColumns` comes back as
        it is, and any other iterable of records is packed into new
        columns that keep a copy of the records."""
        if isinstance(trace, TraceColumns):
            return trace
        records = list(trace)
        columns = cls.from_lists(
            [access.icount for access in records],
            [access.kind is AccessType.WRITE for access in records],
            [access.address for access in records],
            [access.value for access in records],
        )
        columns._records = records
        return columns

    def make_read_only(self) -> "TraceColumns":
        """Make the four columns read-only and return this trace.

        For a trace that several consumers share: one that writes to a
        column gets ``ValueError`` instead of changing what the others
        see.
        """
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False
        return self

    def _built_records(self) -> List[MemoryAccess]:
        """The trace as validated records, built on first use and cached."""
        if self._records is None:
            self._records = [
                MemoryAccess(icount, _KINDS[kind], address, value)
                for icount, kind, address, value in zip(
                    self.icounts.tolist(),
                    self.kinds.tolist(),
                    self.addresses.tolist(),
                    self.values.tolist(),
                )
            ]
        return self._records

    def __len__(self) -> int:
        return len(self.kinds)

    @overload
    def __getitem__(self, index: int) -> MemoryAccess: ...

    @overload
    def __getitem__(self, index: slice) -> "TraceColumns": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[MemoryAccess, "TraceColumns"]:
        if isinstance(index, slice):
            records = self._records
            return TraceColumns(
                self.icounts[index],
                self.kinds[index],
                self.addresses[index],
                self.values[index],
                records[index] if records is not None else None,
            )
        return self._built_records()[index]

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._built_records())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceColumns):
            return all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _COLUMNS
            )
        if isinstance(other, list):
            return self._built_records() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceColumns({len(self)} accesses)"
