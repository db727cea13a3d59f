"""Write Grouping (WG) — the paper's Section 4.1, Algorithm 1.

One Set-Buffer (sized to a cache set) plus a Tag-Buffer with a Dirty
bit.  Writes to the buffered set are merged in the buffer; the single
RMW that would have accompanied each of them is deferred until the
buffer must be written back, and silent writes never dirty the buffer
at all.  The write-back itself is a *full-row write only* — the read
half of the RMW already happened when the buffer was filled.

Algorithm 1 verbatim:

* Read request — on a Tag-Buffer hit, write back the Set-Buffer if
  Dirty (a *premature* write-back) and clear Dirty; then read from the
  array.
* Write request — on a Tag-Buffer miss, write back the Set-Buffer if
  Dirty and refill it by reading the row; then update the Set-Buffer,
  setting Dirty only for non-silent writes.

Beyond Algorithm 1 the paper leaves miss handling implicit; this
implementation adds one rule needed for correctness: when a cache fill
is about to change the *buffered* set (replacing a block whose newest
data may exist only in the buffer), the buffer is flushed and
invalidated first.  See ``_before_residency``.

The ``entries`` parameter generalises the single Set-Buffer to a small
fully-associative pool (kept in LRU order) — the paper's implicit
extension, measured by the multi-entry ablation benchmark.  ``entries=1``
is the paper's design and the only pool the columnar WG kernel runs;
larger pools run per access through :meth:`process`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.core.controller import CacheController
from repro.core.outcomes import AccessOutcome, ServedFrom
from repro.core.set_buffer import SetBuffer
from repro.core.tag_buffer import TagBuffer
from repro.trace.record import MemoryAccess
from repro.utils.validation import check_positive
from repro.errors import ValidationError

__all__ = ["WriteGroupingController", "BufferEntry"]


class BufferEntry:
    """One (Tag-Buffer, Set-Buffer) pair."""

    __slots__ = ("tag_buffer", "set_buffer", "dirty_since")

    def __init__(self) -> None:
        self.tag_buffer = TagBuffer()
        self.set_buffer = SetBuffer()
        # icount at which the buffer last turned dirty; None when clean.
        # Dirty buffer data lives outside the ECC-protected array, so
        # this window is the design's soft-error exposure.
        self.dirty_since: Optional[int] = None

    @property
    def valid(self) -> bool:
        return self.tag_buffer.valid

    @property
    def dirty(self) -> bool:
        return self.tag_buffer.dirty

    @property
    def set_index(self) -> Optional[int]:
        return self.tag_buffer.set_index

    def invalidate(self) -> None:
        self.tag_buffer.invalidate()
        self.set_buffer.invalidate()


class WriteGroupingController(CacheController):
    """WG: group same-set writes, drop silent ones."""

    name = "wg"
    _fast_path_name = "wg"
    # ``sb_writeback_final`` is absent: ``finalize()`` emits it on every
    # engine.
    _counted_points = (
        ("grouped_writes", "sb_hit"),
        ("set_buffer_fills", "sb_fill"),
        ("silent_writes_detected", "sb_silent_write"),
        ("premature_writebacks", "sb_writeback_premature"),
        ("eviction_writebacks", "sb_writeback_eviction"),
        ("fill_flush_writebacks", "sb_writeback_fill_flush"),
    )

    #: WG+RB flips this: reads hitting the Tag-Buffer are served from
    #: the Set-Buffer instead of forcing a premature write-back.
    _rb_bypass = False

    def __init__(
        self,
        cache: SetAssociativeCache,
        count_miss_traffic: bool = False,
        detect_silent_writes: bool = True,
        entries: int = 1,
    ) -> None:
        super().__init__(cache, count_miss_traffic=count_miss_traffic)
        check_positive("entries", entries)
        self.detect_silent_writes = detect_silent_writes
        # LRU order: index 0 is least recently used, last is most recent.
        self._entries: List[BufferEntry] = [BufferEntry() for _ in range(entries)]

    # -- buffer pool management -------------------------------------------------

    def _entry_for_set(self, set_index: int) -> Optional[BufferEntry]:
        for entry in self._entries:
            if entry.tag_buffer.matches_set(set_index):
                return entry
        return None

    def _touch(self, entry: BufferEntry) -> None:
        self._entries.remove(entry)
        self._entries.append(entry)

    def _victim_entry(self) -> BufferEntry:
        for entry in self._entries:
            if not entry.valid:
                return entry
        return self._entries[0]

    # -- write-back --------------------------------------------------------------

    def _write_back(self, entry: BufferEntry, reason: str) -> bool:
        """Drain a dirty entry into the array; no-op when clean.

        The cache controller checks the Dirty bit first and eliminates
        the write-back when it is clear (Section 4.1).  Returns True
        when a row write actually happened.
        """
        if not entry.dirty:
            return False
        for (way, word_offset), value in entry.set_buffer.take_modified().items():
            self.cache.write_word(entry.set_index, way, word_offset, value)
        self.events.record_row_write(words_driven=self._row_words)
        entry.tag_buffer.clear_dirty()
        if entry.dirty_since is not None:
            residency = max(0, self._current_icount - entry.dirty_since)
            self.counts.dirty_residency_total += residency
            self.counts.dirty_residency_max = max(
                self.counts.dirty_residency_max, residency
            )
            self.counts.dirty_windows += 1
            entry.dirty_since = None
        if reason == "premature":
            self.counts.premature_writebacks += 1
        elif reason == "eviction":
            self.counts.eviction_writebacks += 1
        elif reason == "fill_flush":
            self.counts.fill_flush_writebacks += 1
        elif reason == "final":
            self.counts.final_writebacks += 1
        else:
            raise ValidationError(f"unknown write-back reason {reason!r}")
        if self._obs:
            self._emit_point(
                f"sb_writeback_{reason}", set_index=entry.set_index
            )
        return True

    def _fill_entry(self, entry: BufferEntry, set_index: int) -> None:
        """Fill the Set-Buffer by reading the row (one array read)."""
        set_data = self.cache.read_set_data(set_index)
        tags = self.cache.set_tags(set_index)
        entry.set_buffer.fill(set_index, set_data)
        entry.tag_buffer.load(set_index, tags)
        self.events.record_row_read(words_routed=self._row_words)
        self.counts.set_buffer_fills += 1
        if self._obs:
            self._emit_point("sb_fill", set_index=set_index)

    # -- residency hook ------------------------------------------------------------

    def _before_residency(self, access: MemoryAccess) -> None:
        """Flush the buffer before a fill mutates the buffered set.

        A miss to the buffered set is about to replace one of its
        blocks; the buffer may hold newer data for that set than the
        cache does and its tags are about to go stale, so it must be
        drained and dropped first.
        """
        if self.cache.lookup(access.address) is not None:
            return
        set_index = self.cache.mapper.set_index(access.address)
        entry = self._entry_for_set(set_index)
        if entry is not None:
            self._write_back(entry, "fill_flush")
            entry.invalidate()

    # -- Algorithm 1 ----------------------------------------------------------------

    def _handle_read(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        tag = self.cache.mapper.tag(access.address)
        entry = self._entry_for_set(result.set_index)
        hit_in_tag_buffer = (
            entry is not None and entry.tag_buffer.probe(result.set_index, tag)
        )
        forced = False
        if hit_in_tag_buffer:
            # Premature write-back so the array holds the newest data.
            forced = self._write_back(entry, "premature")
            self._touch(entry)
        self.events.record_row_read(words_routed=1)
        value = self.cache.read_word(
            result.set_index, result.way, result.word_offset
        )
        return AccessOutcome(
            value=value,
            cache_hit=result.hit,
            served_from=ServedFrom.ARRAY,
            array_reads=1,
            array_writes=1 if forced else 0,
            forced_writeback=forced,
        )

    def _handle_write(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        entry = self._entry_for_set(result.set_index)
        array_reads = 0
        array_writes = 0
        forced = False
        grouped = False

        if entry is None:
            # Tag-Buffer miss: drain the victim entry, refill with this set.
            entry = self._victim_entry()
            if self._write_back(entry, "eviction"):
                array_writes += 1
                forced = True
            self._fill_entry(entry, result.set_index)
            array_reads += 1
        else:
            # Tag-Buffer hit: the whole RMW is elided.
            grouped = True
            self.counts.grouped_writes += 1
            if self._obs:
                self._emit_point("sb_hit", set_index=result.set_index)
        self._touch(entry)

        silent = entry.set_buffer.write(
            result.way, result.word_offset, access.value
        )
        self.events.record_set_buffer_write(1)
        if self.detect_silent_writes and silent:
            self.counts.silent_writes_detected += 1
            if self._obs:
                self._emit_point("sb_silent_write", set_index=result.set_index)
        else:
            if not entry.tag_buffer.dirty:
                entry.dirty_since = access.icount
            entry.tag_buffer.set_dirty()

        return AccessOutcome(
            value=access.value,
            cache_hit=result.hit,
            served_from=ServedFrom.SET_BUFFER,
            array_reads=array_reads,
            array_writes=array_writes,
            grouped=grouped,
            silent=silent,
            forced_writeback=forced,
        )

    # -- end of run -------------------------------------------------------------------

    def _drain(self) -> None:
        for entry in self._entries:
            if entry.valid:
                self._write_back(entry, "final")

    # -- introspection (examples / tests) ----------------------------------------------

    @property
    def buffer_entries(self) -> List[BufferEntry]:
        return list(self._entries)

    def set_buffer_occupancy(self) -> int:
        """Words whose newest value lives only in Set-Buffers right now
        (the interval sampler's occupancy series)."""
        return sum(
            entry.set_buffer.modified_words
            for entry in self._entries
            if entry.valid
        )
