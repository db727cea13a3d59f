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

from repro.cache.cache import AccessResult
from repro.core.controller import CacheController
from repro.core.outcomes import AccessOutcome, ServedFrom
from repro.trace.record import MemoryAccess

__all__ = ["RMWController"]


class RMWController(CacheController):
    """Reads: 1 array access.  Writes: RMW = 2 array accesses."""

    name = "rmw"
    _fast_path_name = "rmw"
    # One RMW per write request; ``rmw_operations`` would also count
    # the fills charged under ``count_miss_traffic``.
    _counted_points = (("write_requests", "rmw_issued"),)

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
