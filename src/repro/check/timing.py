"""Per-access reference for the port-contention timing model.

:class:`repro.perf.timing.TimingSimulator` schedules a whole run at
once with prefix scans over port-operation codes the columnar kernels
write.  This module is what it is checked against: the schedule one
request at a time, from each request's :class:`AccessOutcome` fields,
with one :class:`repro.sram.ports.PortTracker` per sub-array.  The
differential runner (:mod:`repro.check.differential`) compares the two
field by field on every fuzz case.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.controller import CacheController
from repro.core.outcomes import AccessOutcome
from repro.perf.timing import PerfResult
from repro.sram.ports import PortKind, PortTracker
from repro.sram.timing import PhaseTiming
from repro.trace.record import MemoryAccess

__all__ = ["reference_timing"]

_READ = PortKind.READ
_WRITE = PortKind.WRITE


def reference_timing(
    trace: Sequence[MemoryAccess],
    outcomes: Sequence[AccessOutcome],
    controller: CacheController,
    timing: Optional[PhaseTiming] = None,
) -> PerfResult:
    """Schedule ``trace`` request by request from its ``outcomes``.

    ``controller`` is the one that produced the outcomes; it supplies
    the sub-array mapping (``rmw_local``) and the write-pulse factor
    (``pulse_assist``).
    """
    timing = PhaseTiming() if timing is None else timing
    read_cycles = timing.array_read_cycles
    write_cycles = timing.array_write_cycles * getattr(
        controller, "write_cycle_factor", 1
    )
    subarrays = getattr(controller, "subarrays", 1)
    trackers = [PortTracker() for _ in range(subarrays)]
    set_index = controller.cache.mapper.set_index
    reads = writes = total_read_latency = bypassed = last_cycle = 0
    for access, outcome in zip(trace, outcomes):
        arrival = access.icount
        tracker = trackers[0]
        if subarrays > 1:
            tracker = trackers[
                controller.subarray_of(  # type: ignore[attr-defined]
                    set_index(access.address)
                )
            ]
        start = arrival
        if access.is_read:
            reads += 1
            if outcome.bypassed:
                # Served from the Set-Buffer: short fixed latency, no port.
                bypassed += 1
                total_read_latency += timing.set_buffer_cycles
            else:
                if outcome.forced_writeback:
                    # The premature write-back lands before the array read.
                    start = tracker.acquire(_WRITE, arrival, write_cycles)
                    start += write_cycles
                finish = tracker.acquire(_READ, start, read_cycles) + read_cycles
                total_read_latency += finish - arrival
        else:
            # Writes are off the critical path; they only occupy ports.
            writes += 1
            if outcome.forced_writeback:
                start = tracker.acquire(_WRITE, start, write_cycles)
                start += write_cycles
            if outcome.array_reads:
                # RMW read phase / Set-Buffer fill occupies the read port.
                start = tracker.acquire(_READ, start, read_cycles)
                start += read_cycles
            if outcome.array_writes and not outcome.forced_writeback:
                # RMW write phase or plain write (grouped writes never
                # get here).
                tracker.acquire(_WRITE, start, write_cycles)
        last_cycle = max(
            last_cycle,
            tracker.free_at[_READ],
            tracker.free_at[_WRITE],
            arrival,
        )
    return PerfResult(
        technique=controller.name,
        reads=reads,
        writes=writes,
        total_read_latency=total_read_latency,
        read_port_conflicts=sum(t.conflicts[_READ] for t in trackers),
        write_port_conflicts=sum(t.conflicts[_WRITE] for t in trackers),
        read_port_busy=sum(t.busy_cycles[_READ] for t in trackers),
        write_port_busy=sum(t.busy_cycles[_WRITE] for t in trackers),
        elapsed_cycles=last_cycle,
        bypassed_reads=bypassed,
    )
