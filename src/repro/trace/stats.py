"""Trace statistics behind the paper's motivation figures.

:class:`TraceStatistics` holds:

* read/write access counts and their frequency per executed instruction
  (Figure 3);
* the breakdown of *consecutive accesses to the same cache set* into the
  four scenarios Read-Read, Read-Write, Write-Write and Write-Read
  (Figure 4) — a pair is classified by ``(previous kind, current kind)``
  and counted only when both accesses map to the same set;
* silent-write frequency (Figure 5) — a write is silent when the value
  it stores equals the value already held at that word, judged against a
  functional memory that starts zero-filled, exactly like the silent
  stores of Lepak & Lipasti that the paper cites.

:func:`collect_statistics` counts a :class:`TraceColumns` trace on its
four columns with NumPy; :meth:`TraceStatistics.observe` folds in one
record at a time.  The two give equal statistics: ``observe`` is the
reference, and the path for record input and for set mappings the
column path cannot see through.

The set mapping is supplied as a callable, so any mapping works;
:mod:`repro.analysis` wires in the real
:class:`repro.cache.AddressMapper`.  The column path recognises a
mapper's bound ``set_index`` and takes every set index at once from the
shift-and-mask of its geometry's
:attr:`~repro.cache.config.CacheGeometry.codec`, as the columnar
engine's :func:`~repro.engine.columnar.split_addresses` does; for any
other callable it falls back to ``observe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional

import numpy

from repro.trace.columns import TraceColumns
from repro.trace.record import WORD_BYTES, AccessType, MemoryAccess
from repro.errors import ValidationError
from repro.utils.bitops import log2_exact

# Bound as ``Any``: the column path is checked against ``observe`` by
# the trace tests, and NumPy's stubs would only add casts.
np: Any = numpy

__all__ = [
    "ScenarioBreakdown",
    "TraceStatistics",
    "WordWrites",
    "collect_statistics",
    "word_writes",
]

SetIndexFn = Callable[[int], int]

_WORD_SHIFT = log2_exact(WORD_BYTES)


@dataclass
class ScenarioBreakdown:
    """Counts of consecutive same-set access pairs, by scenario.

    Pair names follow the paper: the first letter is the *earlier*
    access.  ``total_pairs`` counts every consecutive pair (same set or
    not) so the shares can be expressed as the paper's "% of accesses".
    """

    read_read: int = 0
    read_write: int = 0
    write_write: int = 0
    write_read: int = 0
    total_pairs: int = 0

    @property
    def same_set_pairs(self) -> int:
        return self.read_read + self.read_write + self.write_write + self.write_read

    def share(self, scenario: str) -> float:
        """Share of all consecutive pairs falling in ``scenario``.

        ``scenario`` is one of ``"RR"``, ``"RW"``, ``"WW"``, ``"WR"``.
        """
        counts = {
            "RR": self.read_read,
            "RW": self.read_write,
            "WW": self.write_write,
            "WR": self.write_read,
        }
        if scenario not in counts:
            raise ValidationError(f"unknown scenario {scenario!r}")
        if self.total_pairs == 0:
            return 0.0
        return counts[scenario] / self.total_pairs

    @property
    def same_set_share(self) -> float:
        """Share of all consecutive pairs made to the same set."""
        if self.total_pairs == 0:
            return 0.0
        return self.same_set_pairs / self.total_pairs


@dataclass
class TraceStatistics:
    """Aggregate statistics for one trace.

    Build incrementally via :meth:`observe`, or for a whole trace with
    :func:`collect_statistics`; either way the object ends in the same
    state, so :meth:`observe` can carry on from a collected trace.
    """

    set_index_fn: Optional[SetIndexFn] = None
    reads: int = 0
    writes: int = 0
    silent_writes: int = 0
    first_icount: Optional[int] = None
    last_icount: Optional[int] = None
    scenarios: ScenarioBreakdown = field(default_factory=ScenarioBreakdown)
    _memory: Dict[int, int] = field(default_factory=dict, repr=False)
    _previous: Optional[MemoryAccess] = field(default=None, repr=False)

    def observe(self, access: MemoryAccess) -> None:
        """Fold one access into the statistics."""
        if self.first_icount is None:
            self.first_icount = access.icount
        self.last_icount = access.icount

        if access.kind is AccessType.READ:
            self.reads += 1
        else:
            self.writes += 1
            if self._memory.get(access.word, 0) == access.value:
                self.silent_writes += 1
            else:
                self._memory[access.word] = access.value

        if self._previous is not None:
            self.scenarios.total_pairs += 1
            if self.set_index_fn is not None:
                previous_set = self.set_index_fn(self._previous.address)
                current_set = self.set_index_fn(access.address)
                if previous_set == current_set:
                    self._classify_pair(self._previous.kind, access.kind)
        self._previous = access

    def _classify_pair(self, first: AccessType, second: AccessType) -> None:
        if first.is_read and second.is_read:
            self.scenarios.read_read += 1
        elif first.is_read and second.is_write:
            self.scenarios.read_write += 1
        elif first.is_write and second.is_write:
            self.scenarios.write_write += 1
        else:
            self.scenarios.write_read += 1

    # -- derived quantities -------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def instructions(self) -> int:
        """Number of executed instructions spanned by the trace."""
        if self.first_icount is None or self.last_icount is None:
            return 0
        return self.last_icount - self.first_icount + 1

    @property
    def read_frequency(self) -> float:
        """Reads per executed instruction (Figure 3, left series)."""
        instructions = self.instructions
        return self.reads / instructions if instructions else 0.0

    @property
    def write_frequency(self) -> float:
        """Writes per executed instruction (Figure 3, right series)."""
        instructions = self.instructions
        return self.writes / instructions if instructions else 0.0

    @property
    def memory_access_frequency(self) -> float:
        """Memory accesses per executed instruction."""
        return self.read_frequency + self.write_frequency

    @property
    def silent_write_fraction(self) -> float:
        """Fraction of writes that are silent (Figure 5)."""
        return self.silent_writes / self.writes if self.writes else 0.0

    @property
    def write_share_of_accesses(self) -> float:
        """Writes as a fraction of all memory accesses."""
        return self.writes / self.accesses if self.accesses else 0.0


def collect_statistics(
    trace: Iterable[MemoryAccess], set_index_fn: Optional[SetIndexFn] = None
) -> TraceStatistics:
    """The :class:`TraceStatistics` of a whole trace.

    A :class:`TraceColumns` trace is counted on its columns, without
    building records, when ``set_index_fn`` is ``None`` or an
    :class:`~repro.cache.AddressMapper`'s ``set_index``; anything else
    runs through :meth:`TraceStatistics.observe` record by record.
    """
    if isinstance(trace, TraceColumns):
        geometry = _mapper_geometry(set_index_fn)
        if set_index_fn is None or geometry is not None:
            return _column_statistics(trace, set_index_fn, geometry)
    stats = TraceStatistics(set_index_fn=set_index_fn)
    for access in trace:
        stats.observe(access)
    return stats


def _mapper_geometry(set_index_fn: Optional[SetIndexFn]) -> Any:
    """The geometry behind an ``AddressMapper.set_index``, else ``None``."""
    # Imported here: the cache package imports this one.
    from repro.cache.address import AddressMapper

    mapper = getattr(set_index_fn, "__self__", None)
    if (
        isinstance(mapper, AddressMapper)
        and getattr(set_index_fn, "__func__", None) is AddressMapper.set_index
    ):
        return mapper.geometry
    return None


def _column_statistics(
    trace: TraceColumns, set_index_fn: Optional[SetIndexFn], geometry: Any
) -> TraceStatistics:
    """:func:`collect_statistics` on the columns: the state ``observe``
    would reach, from reductions, adjacent differences and one stable
    argsort."""
    stats = TraceStatistics(set_index_fn=set_index_fn)
    n = len(trace)
    if n == 0:
        return stats
    kinds, addresses, values = trace.kinds, trace.addresses, trace.values
    stats.writes = int(np.count_nonzero(kinds))
    stats.reads = n - stats.writes
    stats.first_icount = int(trace.icounts[0])
    stats.last_icount = int(trace.icounts[-1])
    stats._previous = MemoryAccess(
        stats.last_icount,
        AccessType.WRITE if kinds[-1] else AccessType.READ,
        int(addresses[-1]),
        int(values[-1]),
    )

    scenarios = stats.scenarios
    scenarios.total_pairs = n - 1
    if geometry is not None:
        codec = geometry.codec
        sets = (addresses >> codec.index_shift) & codec.index_mask
        same = sets[1:] == sets[:-1]
        # Pair code 2 * earlier kind + later kind (kind 1 = write).
        pairs = np.bincount(
            2 * kinds[:-1][same] + kinds[1:][same], minlength=4
        ).tolist()
        (
            scenarios.read_read,
            scenarios.read_write,
            scenarios.write_read,
            scenarios.write_write,
        ) = pairs

    writes = word_writes(kinds, addresses, values)
    if not len(writes.positions):
        return stats
    stats.silent_writes = len(writes.positions) - int(
        np.count_nonzero(writes.changed)
    )
    # ``observe``'s memory: every word a write changed, holding the
    # word's last value.
    starts = np.flatnonzero(writes.first_of_word)
    last_of_word = np.append(starts[1:], len(writes.words)) - 1
    kept = np.logical_or.reduceat(writes.changed, starts)
    stats._memory = dict(
        zip(
            writes.words[last_of_word[kept]].tolist(),
            writes.stored[last_of_word[kept]].tolist(),
        )
    )
    return stats


class WordWrites(NamedTuple):
    """A trace's writes in word order (see :func:`word_writes`)."""

    #: Trace position of each write.
    positions: Any
    #: Its word address (``address >> 3``).
    words: Any
    #: The value it stores.
    stored: Any
    #: True on the first write to each word.
    first_of_word: Any
    #: True when it stores a value other than its word's previous write
    #: (0 for the first), i.e. the write is not silent.
    changed: Any


def word_writes(kinds: Any, addresses: Any, values: Any) -> WordWrites:
    """The writes of a trace's columns, sorted by word, stably.

    A write is silent when it stores the value of the previous write to
    its word, or 0 if there is none, as against a zero-filled memory:
    one stable argsort keeps each word's writes in trace order, so every
    write's previous write is its left neighbour.  Figure 5's silent
    count (:func:`collect_statistics`) and the timing model's derived
    Write-Grouping replays (:mod:`repro.perf.derive`) both read it here.
    """
    written = np.flatnonzero(kinds)
    words = addresses[written] >> _WORD_SHIFT
    order = np.argsort(words, kind="stable")
    words, stored = words[order], values[written][order]
    first_of_word = np.ones(len(words), dtype=bool)
    first_of_word[1:] = words[1:] != words[:-1]
    previous = np.zeros_like(stored)
    previous[1:] = stored[:-1]
    previous[first_of_word] = 0
    return WordWrites(
        written[order], words, stored, first_of_word, stored != previous
    )
