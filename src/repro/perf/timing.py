"""Port-contention timing model.

A lightweight in-order model: requests arrive at the cache at their
instruction count (1 IPC front end), the 8T array exposes one read port
and one write port, and each array operation holds its port for the
:class:`PhaseTiming` durations.

What each technique schedules per request:

===============  ==========================================  =================
technique        read request                                 write request
===============  ==========================================  =================
conventional     R-port, read latency                         W-port
rmw              R-port, read latency                         R-port then W-port (serial)
wg               [W-port premature write-back] then R-port    [W-port evict] + R-port fill on
                                                              Tag-Buffer miss; buffer merge
wg_rb            Set-Buffer hit: buffer latency, no port      same as wg
===============  ==========================================  =================

Reads are on the critical path; the headline metric is mean read
latency (arrival to data), plus read-port conflict counts showing the
1R/1W parallelism RMW destroys and WG restores.

How a run is computed
---------------------
:meth:`TimingSimulator.run` drives its controller through the columnar
engine, asking :func:`repro.engine.columnar.process_chunk` for each
request's port-operation code (:meth:`AccessOutcome.port_code`), and
then schedules every request at once.  Each port serves its operations
first come, first served, in trace order, from a port free at cycle 0:
``start_k = max(ready_k, start_{k-1} + d)``.  With one duration ``d``
per port that recurrence is a max-plus prefix scan,
``start_k = k*d + max_{j<=k}(ready_j - j*d)``, one
``np.maximum.accumulate``.  A request's second operation is ready when
its first finishes, so the port that goes first is scanned first:
the read port under RMW (read phase, then write phase), the write port
under the WG family and ``write_buffer`` (forced write-back, then
read).  A run that would need both orders, or whose instruction counts
leave no int64 headroom, raises instead of scheduling.  Controllers
with per-sub-array ports (``rmw_local``) scan each sub-array on its
own.  An RMW's write phase starts when its read phase finishes; no
extra serial delay is charged between them.

A conventional run can also derive RMW, WG and WG+RB from its own
cache traversal (``run(trace, derive)``, :mod:`repro.perf.derive`);
:func:`timed_replay` serves the paper's four techniques that way, one
traversal per (trace, geometry, timing).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.core.outcomes import (
    PORT_BYPASS,
    PORT_READ,
    PORT_WRITE,
    PORT_WRITE_FIRST,
)
from repro.core.registry import make_controller
from repro.engine.columnar import iter_chunks, process_chunk
from repro.errors import (
    SimulationError,
    StateError,
    TypeContractError,
    ValidationError,
)
from repro.perf.derive import (
    DERIVED_TECHNIQUES,
    PAPER_TECHNIQUES,
    Traversal,
    derive_replays,
)
from repro.sim.simulator import SimulationResult
from repro.sram.timing import PhaseTiming
from repro.trace.record import MemoryAccess
from repro.utils.memo import scope_memo

# Bound as ``Any``: the schedule is pinned against the per-access
# reference in ``repro.check.timing``, and NumPy's stubs would only
# add casts.
np: Any = numpy

__all__ = [
    "PAPER_TECHNIQUES",
    "PerfResult",
    "TimingSimulator",
    "evaluate_performance",
    "timed_replay",
]

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class PerfResult:
    """Timing metrics of one run."""

    technique: str
    reads: int
    writes: int
    total_read_latency: int
    read_port_conflicts: int
    write_port_conflicts: int
    read_port_busy: int
    write_port_busy: int
    elapsed_cycles: int
    bypassed_reads: int

    @property
    def mean_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0

    @property
    def read_port_utilisation(self) -> float:
        if self.elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.read_port_busy / self.elapsed_cycles)


class TimingSimulator:
    """Runs a trace through a controller while scheduling array ports.

    After :meth:`run`, :attr:`result` holds the run's
    :class:`SimulationResult` (events, counts, cache statistics), so a
    caller that needs both timing and energy runs the controller once.
    ``batch_size`` sets the columnar chunk length, as for
    :class:`repro.sim.simulator.Simulator`.
    """

    def __init__(
        self,
        technique: str,
        geometry: CacheGeometry,
        timing: Optional[PhaseTiming] = None,
        batch_size: Optional[int] = None,
        **controller_kwargs,
    ) -> None:
        timing = PhaseTiming() if timing is None else timing
        self.cache = SetAssociativeCache(geometry)
        self.controller = make_controller(
            technique, self.cache, **controller_kwargs
        )
        self.timing = timing
        self.batch_size = batch_size
        # Park et al.'s local RMW confines port occupancy to one
        # sub-array: such controllers get one port pair per sub-array,
        # so requests to other banks proceed concurrently.
        self._subarrays: int = getattr(self.controller, "subarrays", 1)
        # Kim et al.'s pulse assist stretches every write pulse.
        self._write_cycles: int = timing.array_write_cycles * getattr(
            self.controller, "write_cycle_factor", 1
        )
        self._result: Optional[SimulationResult] = None
        #: Technique -> ``(PerfResult, SimulationResult)`` of the last
        #: :meth:`run`: this controller's and each derived technique's.
        self.replays: Dict[str, Tuple[PerfResult, SimulationResult]] = {}

    @property
    def result(self) -> SimulationResult:
        """The last :meth:`run`'s :class:`SimulationResult`."""
        if self._result is None:
            raise StateError("TimingSimulator.run() has not run yet")
        return self._result

    def run(
        self, trace: Iterable[MemoryAccess], derive: Sequence[str] = ()
    ) -> PerfResult:
        """Replay ``trace`` and schedule it; returns the :class:`PerfResult`.

        ``derive`` names techniques of
        :data:`repro.perf.derive.DERIVED_TECHNIQUES` to derive from this
        replay instead of replaying the trace again; only a
        ``conventional`` controller without miss-traffic accounting
        derives.  Afterwards :attr:`replays` maps this controller's
        technique and each derived one to its ``(PerfResult,
        SimulationResult)``.
        """
        controller = self.controller
        if derive and (
            controller.name != "conventional" or controller.count_miss_traffic
        ):
            raise ValidationError(
                "only a conventional replay without miss traffic derives "
                f"other techniques, not {controller.name!r}"
                f"{' with miss traffic' if controller.count_miss_traffic else ''}"
            )
        geometry = self.cache.geometry
        icounts: List[Any] = []
        kinds: List[Any] = []
        codes: List[Any] = []
        sets: List[Any] = []
        tags: List[Any] = []
        addresses: List[Any] = []
        values: List[Any] = []
        misses: List[Any] = []
        for chunk in iter_chunks(trace, geometry, self.batch_size):
            chunk_codes = np.empty(len(chunk), dtype=np.uint8)
            chunk_misses = np.zeros(len(chunk), dtype=bool) if derive else None
            process_chunk(controller, chunk, chunk_codes, chunk_misses)
            icounts.append(chunk.icounts)
            kinds.append(chunk.kinds)
            codes.append(chunk_codes)
            sets.append(chunk.set_indices)
            if derive:
                tags.append(chunk.tags)
                addresses.append(chunk.addresses)
                values.append(chunk.values)
                misses.append(chunk_misses)
        controller.finalize()
        icount_column = _joined(icounts, np.uint64)
        kind_column = _joined(kinds, np.uint8)
        set_column = _joined(sets, np.int64)
        is_read = kind_column == 0
        self._result = SimulationResult(
            technique=controller.name,
            geometry=geometry,
            requests=len(kind_column),
            events=controller.events.copy(),
            counts=controller.counts,
            cache_stats=self.cache.stats,
        )
        banks = None
        if self._subarrays > 1:
            banks = controller.subarray_of(set_column)  # type: ignore[attr-defined]
        perf = self._schedule(
            controller.name,
            icount_column,
            is_read,
            _joined(codes, np.uint8),
            banks,
        )
        self.replays = {controller.name: (perf, self._result)}
        if derive:
            traversal = Traversal(
                result=self._result,
                icounts=icount_column,
                kinds=kind_column,
                sets=set_column,
                tags=_joined(tags, np.int64),
                addresses=_joined(addresses, np.uint64),
                values=_joined(values, np.uint64),
                missed=_joined(misses, bool),
                final_tags=np.array(self.cache.tag_slots(), dtype=np.int64),
            )
            for name, (derived_codes, result) in derive_replays(
                traversal, derive
            ).items():
                self.replays[name] = (
                    self._schedule(
                        name, icount_column, is_read, derived_codes, None
                    ),
                    result,
                )
        return perf

    def _schedule(
        self,
        technique: str,
        icounts: Any,
        is_read: Any,
        codes: Any,
        banks: Optional[Any],
    ) -> PerfResult:
        """Schedule every request's port operations at once."""
        n = len(codes)
        if not n:
            return PerfResult(technique, *(0,) * 9)
        timing = self.timing
        read_cycles = timing.array_read_cycles
        write_cycles = self._write_cycles
        latest = int(icounts.max())
        if latest + n * (read_cycles + write_cycles) > _INT64_MAX:
            raise ValidationError(
                f"instruction counts up to {latest} leave no int64 "
                f"headroom to schedule {n} requests"
            )
        arrivals = icounts.astype(np.int64)
        has_read = (codes & PORT_READ) != 0
        has_write = (codes & PORT_WRITE) != 0
        both = has_read & has_write
        write_first = both & ((codes & PORT_WRITE_FIRST) != 0)
        writes_lead = bool(write_first.any())
        if writes_lead and not np.array_equal(write_first, both):
            raise SimulationError(
                f"{technique}: some requests read before they "
                "write and others write before they read; the port "
                "schedule needs one dependency direction per run"
            )
        # Scan the port that goes first, then the other one, whose
        # operation in a two-operation request waits for the first.
        if writes_lead:
            lead, lead_cycles = has_write, write_cycles
            trail, trail_cycles = has_read, read_cycles
        else:
            lead, lead_cycles = has_read, read_cycles
            trail, trail_cycles = has_write, write_cycles
        lead_finish = np.zeros(n, dtype=np.int64)
        trail_finish = np.zeros(n, dtype=np.int64)
        lead_conflicts = trail_conflicts = 0
        banks_of = (
            [np.arange(n)]
            if banks is None
            else [np.flatnonzero(banks == bank) for bank in range(self._subarrays)]
        )
        for members in banks_of:
            arrive = arrivals[members]
            lead_ops, trail_ops = lead[members], trail[members]
            finish, conflicts = _fcfs_finish(arrive[lead_ops], lead_cycles)
            lead_finish[members[lead_ops]] = finish
            lead_conflicts += conflicts
            ready = np.where(both[members], lead_finish[members], arrive)
            finish, conflicts = _fcfs_finish(ready[trail_ops], trail_cycles)
            trail_finish[members[trail_ops]] = finish
            trail_conflicts += conflicts
        if writes_lead:
            read_finish, write_finish = trail_finish, lead_finish
            read_conflicts, write_conflicts = trail_conflicts, lead_conflicts
        else:
            read_finish, write_finish = lead_finish, trail_finish
            read_conflicts, write_conflicts = lead_conflicts, trail_conflicts

        array_reads = is_read & has_read
        bypassed = int(np.count_nonzero(is_read & ((codes & PORT_BYPASS) != 0)))
        total_read_latency = (
            int((read_finish[array_reads] - arrivals[array_reads]).sum())
            + bypassed * timing.set_buffer_cycles
        )
        reads = int(np.count_nonzero(is_read))
        return PerfResult(
            technique=technique,
            reads=reads,
            writes=n - reads,
            total_read_latency=total_read_latency,
            read_port_conflicts=read_conflicts,
            write_port_conflicts=write_conflicts,
            read_port_busy=int(np.count_nonzero(has_read)) * read_cycles,
            write_port_busy=int(np.count_nonzero(has_write)) * write_cycles,
            elapsed_cycles=int(
                max(arrivals.max(), read_finish.max(), write_finish.max())
            ),
            bypassed_reads=bypassed,
        )


def _joined(parts: List[Any], dtype: Any) -> Any:
    """One column from its chunk parts (empty for an empty trace)."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _fcfs_finish(ready: Any, duration: int) -> Tuple[Any, int]:
    """Finish cycles and conflict count of one port's operations.

    The operations are served in order from a port free at cycle 0,
    each ``start_k = max(ready_k, start_{k-1} + duration)``; with every
    ``ready_k >= 0`` that unrolls to the prefix scan below.  An
    operation that had to wait (``start_k > ready_k``) is a conflict.
    """
    steps = np.arange(len(ready), dtype=np.int64) * duration
    start = np.maximum.accumulate(ready - steps) + steps
    return start + duration, int(np.count_nonzero(start > ready))


def timed_replay(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    timing: Optional[PhaseTiming] = None,
) -> Tuple[PerfResult, SimulationResult]:
    """``technique``'s :class:`TimingSimulator` results for ``trace``.

    The paper's four techniques share one conventional replay: RMW, WG
    and WG+RB are derived from it (:mod:`repro.perf.derive`), equal
    field by field to a run of their own.  Any other technique runs its
    own :class:`TimingSimulator`.

    Inside a memo scope (:func:`repro.utils.memo.memo_scope`, which a
    report opens) each (trace, geometry, timing) is replayed once and
    yields all four paper techniques, so the trace must not change
    while the scope is open (a generated trace shared there is
    read-only).  The entries keep the trace, matched by identity, and
    the results, never the simulator with its cache and controller.
    Outside a scope only ``technique`` is derived.
    """
    timing = PhaseTiming() if timing is None else timing
    memo = scope_memo("perf.timed_replay")
    key = (id(trace), technique, geometry, timing)
    entry = memo.get(key) if memo is not None else None
    if entry is not None and entry[0] is trace:
        return entry[1], entry[2]
    derive: Sequence[str] = ()
    if memo is not None and technique in PAPER_TECHNIQUES:
        derive = DERIVED_TECHNIQUES
    elif technique in DERIVED_TECHNIQUES:
        derive = (technique,)
    simulator = TimingSimulator(
        "conventional" if derive else technique, geometry, timing
    )
    simulator.run(trace, derive)
    if memo is not None:
        for name, (perf, result) in simulator.replays.items():
            memo[(id(trace), name, geometry, timing)] = (trace, perf, result)
    return simulator.replays[technique]


def evaluate_performance(
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    techniques: Sequence[str] = PAPER_TECHNIQUES,
    timing: Optional[PhaseTiming] = None,
) -> dict:
    """Run the timing model for several techniques on one trace."""
    if isinstance(trace, Iterator):
        raise TypeContractError("trace must be a reusable sequence")
    return {
        technique: timed_replay(trace, technique, geometry, timing)[0]
        for technique in techniques
    }
