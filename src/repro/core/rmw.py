"""Read-Modify-Write baseline controller (Morita et al.).

Every write to a bit-interleaved 8T array must read the addressed row
into the write-back latches, merge the selected words from Data-in, and
write the full row back (paper Section 2, Figure 2 steps 1-5).  Reads
are a single row activation with column muxing.

Consequences the paper highlights, all visible in this model's event
log: +1 array read per write, the read port busy during write handling,
and extra read energy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.cache import AccessResult
from repro.core.controller import CacheController
from repro.core.outcomes import AccessOutcome, ServedFrom
from repro.trace.record import MemoryAccess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.batch import AccessBatch

__all__ = ["RMWController"]


class RMWController(CacheController):
    """Reads: 1 array access.  Writes: RMW = 2 array accesses."""

    name = "rmw"
    _fast_path_name = "rmw"
    # One RMW per write request; ``rmw_operations`` would also count
    # the fills charged under ``count_miss_traffic``.
    _counted_points = (("write_requests", "rmw_issued"),)

    def _process_batch_fast(self, batch: "AccessBatch") -> None:
        """Batched hot loop, fully inline: hits run on the cache's slot
        arrays, misses through the shared ``cache._fill``; reads
        aggregate to one row read each, writes to one RMW each."""
        cache = self.cache
        tags_by_set = cache._tags  # noqa: SLF001 - engine contract
        dirty_by_set = cache._dirty  # noqa: SLF001
        data_by_set = cache._data  # noqa: SLF001
        stamps_by_set = cache._stamps  # noqa: SLF001
        tick = cache._tick  # noqa: SLF001
        fill = cache._fill  # noqa: SLF001
        wpb = cache.geometry.words_per_block
        count_mt = self.count_miss_traffic
        kinds = batch.kinds
        addresses = batch.addresses
        values = batch.values
        set_indices = batch.set_indices
        req_tags = batch.tags
        word_offsets = batch.word_offsets

        reads = writes = read_hits = write_hits = 0
        mt_fills = mt_dirty = 0  # count_miss_traffic charges
        for i in range(len(kinds)):
            s = set_indices[i]
            t = req_tags[i]
            kind = kinds[i]
            tags = tags_by_set[s]
            if t in tags:
                way = tags.index(t)
                stamps_by_set[s][way] = tick
                tick += 1
                if kind:
                    write_hits += 1
                else:
                    read_hits += 1
            else:
                cache._tick = tick  # noqa: SLF001
                way, _, evicted_dirty = fill(s, t, addresses[i], not kind)
                tick = cache._tick  # noqa: SLF001
                if count_mt:
                    mt_fills += 1
                    if evicted_dirty:
                        mt_dirty += 1
            if kind:
                writes += 1
                data_by_set[s][way * wpb + word_offsets[i]] = values[i]
                dirty_by_set[s][way] = True
            else:
                reads += 1

        cache._tick = tick  # noqa: SLF001
        self._current_icount = batch.icounts[-1]
        counts = self.counts
        counts.read_requests += reads
        counts.write_requests += writes
        counts.rmw_operations += writes
        stats = cache.stats
        stats.read_hits += read_hits
        stats.write_hits += write_hits
        row_words = self._row_words
        events = self.events
        events.rmw_operations += writes
        # Reads: one row read each, one word routed.  Writes: one RMW
        # each = row read (full row routed) + row write (full row
        # driven).
        events.precharges += reads + writes
        events.rwl_pulses += reads + writes
        events.row_reads += reads + writes
        events.words_routed += reads + writes * row_words
        events.wwl_pulses += writes
        events.row_writes += writes
        events.words_driven += writes * row_words
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

    def _handle_read(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        self.events.record_row_read(words_routed=1)
        value = self.cache.read_word(
            result.set_index, result.way, result.word_offset
        )
        return AccessOutcome(
            value=value,
            cache_hit=result.hit,
            served_from=ServedFrom.ARRAY,
            array_reads=1,
        )

    def _handle_write(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        # Read row into latches + write merged row back.
        self.events.record_rmw(row_words=self._row_words)
        self.counts.rmw_operations += 1
        if self._obs:
            self._emit_point("rmw_issued", set_index=result.set_index)
        self.cache.write_word(
            result.set_index, result.way, result.word_offset, access.value
        )
        return AccessOutcome(
            value=access.value,
            cache_hit=result.hit,
            served_from=ServedFrom.ARRAY,
            array_reads=1,
            array_writes=1,
        )
