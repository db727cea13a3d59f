"""Per-access outcomes and per-run operation counters."""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "ServedFrom",
    "AccessOutcome",
    "OperationCounts",
    "PORT_READ",
    "PORT_WRITE",
    "PORT_WRITE_FIRST",
    "PORT_BYPASS",
    "PORT_WRITEBACK",
]

# Port-operation codes: which array-port operations one request needs,
# as a bit set (see :meth:`AccessOutcome.port_code`).  The timing model
# (:mod:`repro.perf.timing`) schedules these codes; the columnar
# kernels write them without building outcomes.

#: One read-port operation (array read, RMW read phase, Set-Buffer fill).
PORT_READ = 1
#: One write-port operation (array write, RMW write phase, write-back).
PORT_WRITE = 2
#: The write is a forced write-back that must land before the read.
#: Without it, a request with both operations reads first (RMW).
PORT_WRITE_FIRST = 4
#: A read served from the Set-Buffer: no port, buffer latency.
PORT_BYPASS = 8
#: A forced write-back, ahead of any read the request makes.
PORT_WRITEBACK = PORT_WRITE | PORT_WRITE_FIRST


class ServedFrom(enum.Enum):
    """Where a request's data movement happened."""

    ARRAY = "array"
    SET_BUFFER = "set_buffer"


@dataclass(frozen=True)
class AccessOutcome:
    """What one request cost at the array level.

    Attributes:
        value: data returned (reads) or stored (writes).
        cache_hit: whether the block was resident before the request.
        served_from: array or Set-Buffer.
        array_reads / array_writes: row activations this request caused
            (including any premature or eviction write-back it forced).
        grouped: write merged into an already-buffered set (WG).
        silent: write detected as silent in the Set-Buffer.
        bypassed: read served from the Set-Buffer (WG+RB).
        forced_writeback: request triggered a Set-Buffer write-back.
    """

    value: int
    cache_hit: bool
    served_from: ServedFrom
    array_reads: int = 0
    array_writes: int = 0
    grouped: bool = False
    silent: bool = False
    bypassed: bool = False
    forced_writeback: bool = False

    @property
    def array_accesses(self) -> int:
        return self.array_reads + self.array_writes

    def port_code(self, is_read: bool) -> int:
        """The port operations this request needs, as ``PORT_*`` bits.

        A read takes the read port unless the Set-Buffer served it,
        behind a write-port write-back when it forced one.  A write
        takes the write port for a forced write-back first, then the
        read port for any array read (RMW read phase or Set-Buffer
        fill), then the write port for an array write that was not a
        forced write-back (RMW write phase or plain write).
        """
        if is_read:
            if self.bypassed:
                return PORT_BYPASS
            if self.forced_writeback:
                return PORT_WRITEBACK | PORT_READ
            return PORT_READ
        code = 0
        if self.forced_writeback:
            code = PORT_WRITEBACK
        elif self.array_writes:
            code = PORT_WRITE
        if self.array_reads:
            code |= PORT_READ
        return code


@dataclass
class OperationCounts:
    """Aggregate controller activity over a run.

    The access-frequency comparisons in Section 5.2 are ratios of
    ``SRAMEventLog.array_accesses`` between techniques; these counters
    record *why* those accesses happened.
    """

    read_requests: int = 0
    write_requests: int = 0
    grouped_writes: int = 0
    silent_writes_detected: int = 0
    bypassed_reads: int = 0
    set_buffer_fills: int = 0
    premature_writebacks: int = 0
    eviction_writebacks: int = 0
    fill_flush_writebacks: int = 0
    final_writebacks: int = 0
    rmw_operations: int = 0
    #: Set-Buffer vulnerability accounting: instruction-count units
    #: during which the buffer held *dirty* (not-yet-written-back) data.
    #: Dirty buffer contents live in plain latches outside the ECC
    #: domain, so this window is the technique's soft-error exposure —
    #: a trade-off the paper does not discuss (see the vulnerability
    #: benchmark).
    dirty_residency_total: int = 0
    dirty_residency_max: int = 0
    dirty_windows: int = 0

    @property
    def requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def writebacks(self) -> int:
        """All Set-Buffer write-backs, whatever forced them."""
        return (
            self.premature_writebacks
            + self.eviction_writebacks
            + self.fill_flush_writebacks
            + self.final_writebacks
        )

    @property
    def grouped_write_fraction(self) -> float:
        """Share of writes merged without their own RMW."""
        if self.write_requests == 0:
            return 0.0
        return self.grouped_writes / self.write_requests

    @property
    def silent_write_fraction(self) -> float:
        if self.write_requests == 0:
            return 0.0
        return self.silent_writes_detected / self.write_requests

    @property
    def bypassed_read_fraction(self) -> float:
        if self.read_requests == 0:
            return 0.0
        return self.bypassed_reads / self.read_requests

    @property
    def mean_dirty_residency(self) -> float:
        """Average instructions a dirty group waited for write-back."""
        if self.dirty_windows == 0:
            return 0.0
        return self.dirty_residency_total / self.dirty_windows
