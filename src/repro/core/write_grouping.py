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
is the paper's design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.core.controller import CacheController
from repro.core.outcomes import AccessOutcome, ServedFrom
from repro.core.set_buffer import SetBuffer
from repro.core.tag_buffer import TagBuffer
from repro.trace.record import MemoryAccess
from repro.utils.validation import check_positive
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.batch import AccessBatch

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

    # -- batched fast path -------------------------------------------------------

    def _process_batch_fast(self, batch: "AccessBatch") -> None:
        """Batched WG hot loop with same-set write-run pre-grouping.

        A maximal run of consecutive same-set writes resolves its
        buffer entry, pool-LRU position and Set-Buffer views *once*;
        each write in the run then costs a tag probe, a stamp, and an
        in-place word merge with inline silent detection — the software
        mirror of the single Set-Buffer transaction the paper's
        hardware performs.  Everything slow (cache misses, Tag-Buffer
        misses, premature write-backs) replays through the scalar
        ``process()`` at its exact trace position, so write-back and
        fill ordering — and therefore memory contents — stay
        bit-identical.
        """
        cache = self.cache
        tags_by_set = cache._tags  # noqa: SLF001 - engine contract
        stamps_by_set = cache._stamps  # noqa: SLF001
        tick = cache._tick  # noqa: SLF001
        fill = cache._fill  # noqa: SLF001
        wpb = cache.geometry.words_per_block
        row_words = self._row_words
        count_mt = self.count_miss_traffic
        detect = self.detect_silent_writes
        bypass_reads = self._rb_bypass
        kinds = batch.kinds
        icounts = batch.icounts
        addresses = batch.addresses
        values = batch.values
        set_indices = batch.set_indices
        req_tags = batch.tags
        word_offsets = batch.word_offsets
        entries = self._entries

        n = len(kinds)
        reads = 0  # read requests
        read_hits = 0  # of which cache hits
        row_reads = 0  # reads served by an array row read (1 word routed)
        bypassed = 0  # reads served from the Set-Buffer (WG+RB only)
        writes = 0  # write requests
        write_hits = 0  # of which cache hits
        grouped = 0  # writes merged on a Tag-Buffer hit
        silent = 0  # of which silent (when detection is on)
        mt_fills = mt_dirty = 0  # count_miss_traffic charges

        i = 0
        while i < n:
            s = set_indices[i]
            t = req_tags[i]
            if not kinds[i]:
                # Read request.
                reads += 1
                row_reads += 1
                tags = tags_by_set[s]
                if t in tags:
                    read_hits += 1
                    way = tags.index(t)
                    stamps_by_set[s][way] = tick
                    tick += 1
                    entry = None
                    for candidate in entries:
                        tb = candidate.tag_buffer
                        if tb.valid and tb.set_index == s:
                            entry = candidate
                            break
                    if entry is not None and t in entry.tag_buffer.tags:
                        # Tag-Buffer hit on a read.
                        if bypass_reads:
                            # WG+RB: serve from the Set-Buffer — no
                            # array access, no write-back.
                            row_reads -= 1
                            bypassed += 1
                        else:
                            # WG: premature write-back so the array
                            # holds the newest data.
                            self._current_icount = icounts[i]
                            self._write_back(entry, "premature")
                        if entries[-1] is not entry:
                            entries.remove(entry)
                            entries.append(entry)
                else:
                    # Cache miss: flush-and-drop the buffer if the fill
                    # is about to mutate the buffered set, then fill.
                    # The probe afterwards always misses (the flush
                    # invalidated any entry for this set), so the read
                    # is a plain row read.
                    self._current_icount = icounts[i]
                    entry = None
                    for candidate in entries:
                        tb = candidate.tag_buffer
                        if tb.valid and tb.set_index == s:
                            entry = candidate
                            break
                    if entry is not None:
                        self._write_back(entry, "fill_flush")
                        entry.invalidate()
                    cache._tick = tick  # noqa: SLF001
                    _, _, evicted_dirty = fill(s, t, addresses[i], True)
                    tick = cache._tick  # noqa: SLF001
                    if count_mt:
                        mt_fills += 1
                        if evicted_dirty:
                            mt_dirty += 1
                i += 1
                continue

            # Write request: pre-group the maximal run of consecutive
            # writes to the same set, resolving the buffer entry, pool
            # position and Set-Buffer views once per run.
            j = i + 1
            while j < n and kinds[j] and set_indices[j] == s:
                j += 1
            entry = None
            for candidate in entries:
                tb = candidate.tag_buffer
                if tb.valid and tb.set_index == s:
                    entry = candidate
                    break
            tb = sb_data = sb_modified = None
            k = i
            while k < j:
                t = req_tags[k]
                tags = tags_by_set[s]
                writes += 1
                if t in tags:
                    write_hits += 1
                    way = tags.index(t)
                    stamps_by_set[s][way] = tick
                    tick += 1
                else:
                    # Cache miss mid-run: fill (flushing the buffer
                    # first when it holds this set), then re-resolve
                    # the entry — the flush invalidated it.
                    self._current_icount = icounts[k]
                    if entry is not None:
                        self._write_back(entry, "fill_flush")
                        entry.invalidate()
                        entry = tb = None
                    cache._tick = tick  # noqa: SLF001
                    way, _, evicted_dirty = fill(s, t, addresses[k], False)
                    tick = cache._tick  # noqa: SLF001
                    if count_mt:
                        mt_fills += 1
                        if evicted_dirty:
                            mt_dirty += 1
                if entry is None:
                    # Tag-Buffer miss: drain the victim entry, refill
                    # with this set (Algorithm 1's write path).
                    self._current_icount = icounts[k]
                    entry = self._victim_entry()
                    self._write_back(entry, "eviction")
                    self._fill_entry(entry, s)
                    tb = None
                else:
                    grouped += 1
                if tb is None:
                    tb = entry.tag_buffer
                    sb_data, sb_modified = entry.set_buffer.engine_views()
                    # One pool-LRU touch covers the rest of the run
                    # (touching the same entry again is idempotent on
                    # pool order).
                    if entries[-1] is not entry:
                        entries.remove(entry)
                        entries.append(entry)
                row = sb_data[way]
                w = word_offsets[k]
                v = values[k]
                if row[w] == v:
                    # Silent write: the buffer is left untouched when
                    # detection is on; dirties it like any other write
                    # otherwise.
                    if detect:
                        silent += 1
                        k += 1
                        continue
                else:
                    row[w] = v
                    sb_modified.add((way, w))
                if not tb.dirty:
                    entry.dirty_since = icounts[k]
                    tb.dirty = True
                k += 1
            i = j

        cache._tick = tick  # noqa: SLF001
        self._current_icount = icounts[-1]
        counts = self.counts
        counts.read_requests += reads
        counts.write_requests += writes
        counts.grouped_writes += grouped
        counts.silent_writes_detected += silent
        counts.bypassed_reads += bypassed
        stats = cache.stats
        stats.read_hits += read_hits
        stats.write_hits += write_hits
        events = self.events
        events.precharges += row_reads
        events.rwl_pulses += row_reads
        events.row_reads += row_reads
        events.words_routed += row_reads
        events.set_buffer_reads += bypassed
        events.set_buffer_writes += writes
        if count_mt and mt_fills:
            # Per dirty eviction: a row read of the victim block; per
            # fill: an RMW over the full row (see _account_miss_traffic).
            events.rmw_operations += mt_fills
            events.precharges += mt_dirty + mt_fills
            events.rwl_pulses += mt_dirty + mt_fills
            events.row_reads += mt_dirty + mt_fills
            events.words_routed += mt_dirty * wpb + mt_fills * row_words
            events.wwl_pulses += mt_fills
            events.row_writes += mt_fills
            events.words_driven += mt_fills * row_words
            counts.rmw_operations += mt_fills

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
