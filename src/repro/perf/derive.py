"""RMW, WG and WG+RB replays derived from one conventional replay.

The paper's four techniques see the same L1-D hit/miss stream.  RMW
adds one row read per write (Section 2); WG and WG+RB change only what
the Set-Buffer does with the stream (Sections 4.1-4.2).  So one
conventional traversal of a trace determines the other three.
:func:`traverse` walks the trace's tags and keeps what the walk leaves
as a :class:`Traversal`; :func:`derive_replays` turns a traversal into
each technique's port-operation codes and :class:`SimulationResult`.
Campaign rows take the results (:func:`derive_row`), and
:class:`repro.perf.timing.TimingSimulator` schedules the codes with the
same max-plus scan as a run of its own.

The walk
--------
The derivation reads three things of the conventional replay: the
miss trail (which requests missed), the tag slots at the warm-up
boundary and at the end, and the slice's hit, miss and eviction
counts.  None of them depends on a data word.  A cache hits, misses
and picks its victim by tag and LRU stamp alone, and a conventional
block turns dirty at any write, silent or not.  So :func:`traverse`
builds no value-accurate :class:`~repro.sim.simulator.Simulator`: it
walks a flat tag directory (a dict from block to slot; per-slot block,
stamp and dirty lists; a per-set fill count).  Each chunk is split
into same-(set, tag) runs in stable set order
(:func:`repro.engine.columnar.set_runs`, the plain kernel's split),
and the walk visits only each run's first record, the one that can
miss, stamping the slot with the run's final position.  The walk
starts cold and never invalidates a way, so a set's valid ways are a
prefix: a fill takes the set's next unfilled way, and once the set is
full the lowest-stamp way, as the plain kernel does.  The conventional
result is :func:`~repro.engine.columnar.credit_plain` over the slice's
request counts, with the walk's statistics.  Values matter only to
WG's silent writes, which the derivation reads off the trace
(:func:`repro.trace.stats.word_writes`).

Why this is exact
-----------------
* **One hit, miss and victim sequence.**  Every technique touches the
  cache once per request at a positional LRU tick, and WG drains its
  buffer before a fill without touching tags, so all four hit, miss
  and evict alike.  Only WG's dirty evictions differ: its cache marks a
  block dirty when a write-back carries a value-changing write into
  it, and a miss to a buffered set drains the buffer before the victim
  leaves, so a WG victim is dirty exactly when it took a
  value-changing write since its fill.
* **RMW is a closed form** of the request counts
  (:func:`repro.engine.columnar.credit_plain`), and its codes put every
  write's read phase ahead of its write phase.
* **The single-entry Set-Buffer's control plane follows from the
  stream.**  The buffered set before a request is the set of the last
  earlier write, unless a read miss to that set came after that write.
  Dirty is set by a value-changing write (the buffer holds each word's
  newest value, so a write is silent exactly when
  :func:`repro.trace.stats.word_writes` says so) and cleared at a
  write-back site: a WG read hit to the buffered set (premature), a
  miss to it (fill-flush), a write to another set (eviction), and the
  end of the run (final).  A site writes back when a value-changing
  write came at or after the previous site; the dirty window runs from
  the first such write to the site.

Across a warm-up boundary
-------------------------
A campaign row measures only the requests after its warm-up (the
paper's fast-forward, ``ExperimentConfig.warmup_fraction``): at the
boundary the counters reset, while cache and Set-Buffer state carry
on.  :func:`traverse` walks the warm-up slice, then the measured
slice, counting only the second, and keeps the miss trail and the tag
slots at the boundary (``Traversal.start`` and ``start_tags``) and at
the end.  The derivation runs over the whole trace, so the buffered
set, silent writes and dirty windows see the warm-up, and then:

* **Only requests from** ``start`` **count**: ``requests`` is
  ``n - start``, and reads, writes, grouped and silent writes, buffer
  fills, bypassed reads and write-back sites are counted from
  ``start`` on.
* **A dirty window counts when it closes at or after** ``start``.  Its
  residency runs from where it opened, even before ``start``, as the
  controller's ``dirty_since`` does.  The final drain always counts.
* **WG's dirty evictions are the whole trace's minus the prefix's.**
  The prefix is the first ``start`` requests, with ``start_tags`` as
  its final tag slots; a block instance evicted before ``start`` took
  all its writes before it.  Both counts read the trace in stable
  (set, tag) order, and one sort serves both: the prefix's order is
  the whole trace's with the positions from ``start`` on dropped.
* **RMW is** :func:`~repro.engine.columnar.credit_plain` over the
  conventional slice, and every technique's cache statistics are the
  conventional slice's, with WG's dirty evictions swapped in.

The differential suite and ``tests/perf/test_derive.py`` pin every
field of every derived result to that technique's own run, with and
without a warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy

from repro.cache.config import CacheGeometry
from repro.cache.stats import CacheStats
from repro.core.outcomes import (
    PORT_BYPASS,
    PORT_READ,
    PORT_WRITEBACK,
    OperationCounts,
)
from repro.engine.columnar import (
    credit_plain,
    credit_set_buffer,
    iter_chunks,
    plain_port_codes,
    set_runs,
    split_addresses,
)
from repro.errors import ValidationError
from repro.sim.simulator import SimulationResult
from repro.sram.events import SRAMEventLog
from repro.trace.columns import TraceColumns
from repro.trace.record import MemoryAccess
from repro.trace.stats import word_writes

# Bound as ``Any``: every derived result is pinned to the technique's
# own run, and NumPy's stubs would only add casts.
np: Any = numpy

__all__ = [
    "DERIVED_TECHNIQUES",
    "PAPER_TECHNIQUES",
    "Traversal",
    "derive_replays",
    "derive_row",
    "traverse",
]

#: Techniques :func:`derive_replays` derives from a conventional replay.
DERIVED_TECHNIQUES = ("rmw", "wg", "wg_rb")

#: The paper's techniques: one conventional replay yields all four.
PAPER_TECHNIQUES = ("conventional",) + DERIVED_TECHNIQUES


@dataclass(frozen=True)
class Traversal:
    """What one conventional traversal leaves for the derivation.

    The trace's columns in request order (``kinds`` 1 for a write,
    ``sets`` and ``tags`` under the traversal's geometry), the miss
    trail (True at each request that missed), the tag slots after the
    last request as a ``(num_sets, ways)`` int64 array (``-1`` for an
    invalid way), and the conventional replay's result.  A traversal
    with a warm-up measures the requests from ``start`` on: ``result``
    is that slice's, and ``start_tags`` is the same array before
    request ``start``.
    """

    result: SimulationResult
    icounts: Any
    kinds: Any
    sets: Any
    tags: Any
    addresses: Any
    values: Any
    missed: Any
    final_tags: Any
    start: int = 0
    start_tags: Any = None


def derive_replays(
    traversal: Traversal, techniques: Iterable[str]
) -> Dict[str, Tuple[Any, SimulationResult]]:
    """Each technique's ``(port-operation codes, SimulationResult)`` over
    the requests from ``traversal.start`` on.

    Exact for the paper's controllers at default knobs (no miss-traffic
    accounting, silent-write detection on, one Set-Buffer entry) behind
    a cold stamp-LRU cache, as :func:`traverse` walks one.
    """
    derived: Dict[str, Tuple[Any, SimulationResult]] = {}
    plane = None
    for technique in techniques:
        if technique == "rmw":
            derived[technique] = _rmw(traversal)
        elif technique in ("wg", "wg_rb"):
            if plane is None:
                plane = _set_buffer_plane(traversal)
            derived[technique] = _write_grouping(
                traversal, plane, technique == "wg_rb"
            )
        else:
            raise ValidationError(
                f"cannot derive {technique!r} from a conventional replay; "
                f"derivable: {', '.join(DERIVED_TECHNIQUES)}"
            )
    return derived


def derive_row(
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    warmup: int,
    batch_size: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """The paper's four techniques on ``trace``, measured after its
    first ``warmup`` requests, from one conventional traversal.

    Each result equals field by field a
    :class:`~repro.sim.simulator.Simulator` of its own fed the warm-up
    slice, reset, then fed the rest (what
    :func:`repro.sim.campaign.execute_row` runs per technique
    otherwise).
    """
    traversal = traverse(trace, geometry, warmup, batch_size)
    derived = derive_replays(traversal, DERIVED_TECHNIQUES)
    return {
        "conventional": traversal.result,
        **{name: result for name, (_, result) in derived.items()},
    }


def traverse(
    trace: Iterable[MemoryAccess],
    geometry: CacheGeometry,
    warmup: int = 0,
    batch_size: Optional[int] = None,
) -> Traversal:
    """Walk ``trace``'s tags through a cold conventional cache of
    ``geometry``, keeping what the derivation needs.

    The walk (see "The walk" above) takes the first ``warmup`` requests,
    snapshots the tag slots, then takes the rest, which alone count
    towards the result; the tag slots are snapshotted again at the
    end.  ``trace`` is packed into columns once
    (:meth:`TraceColumns.of`), so a one-shot iterable works too, and
    each slice is cut into chunks of ``batch_size``
    (:func:`~repro.engine.columnar.iter_chunks`), as a
    :class:`~repro.sim.simulator.Simulator` would cut it.
    """
    columns = TraceColumns.of(trace)
    directory = _TagDirectory(geometry)
    missed = np.zeros(len(columns), dtype=bool)
    start_tags = None
    if warmup:
        directory.walk(columns[:warmup], 0, missed, batch_size)
        start_tags = directory.tag_slots()
    evictions, dirty_evictions = directory.walk(
        columns[warmup:], warmup, missed, batch_size
    )
    kinds = columns.kinds
    requests = len(kinds) - warmup
    is_write = kinds[warmup:] != 0
    writes = int(np.count_nonzero(is_write))
    misses = int(np.count_nonzero(missed[warmup:]))
    write_misses = int(np.count_nonzero(missed[warmup:] & is_write))
    stats = CacheStats(
        read_hits=requests - writes - (misses - write_misses),
        read_misses=misses - write_misses,
        write_hits=writes - write_misses,
        write_misses=write_misses,
        evictions=evictions,
        dirty_evictions=dirty_evictions,
    )
    events, counts = SRAMEventLog(), OperationCounts()
    credit_plain(
        events, counts, requests - writes, writes, False, geometry.words_per_set
    )
    sets, tags, _ = split_addresses(columns.addresses, geometry)
    return Traversal(
        result=SimulationResult(
            "conventional", geometry, requests, events, counts, stats
        ),
        icounts=columns.icounts,
        kinds=kinds,
        sets=sets,
        tags=tags,
        addresses=columns.addresses,
        values=columns.values,
        missed=missed,
        final_tags=directory.tag_slots(),
        start=warmup,
        start_tags=start_tags,
    )


class _TagDirectory:
    """The tag state of a conventional stamp-LRU cache, slot by slot.

    Slot ``set * ways + way`` holds a block id (``tag << index_bits |
    set``, -1 while the way is invalid), its last-touch stamp (a trace
    position) and its dirty bit; ``slot_of`` maps each resident block
    to its slot, and ``filled`` counts each set's valid ways.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        slots = geometry.num_sets * geometry.associativity
        self.slot_of: Dict[int, int] = {}
        self.blocks = [-1] * slots
        self.stamps = [0] * slots
        self.dirty = [False] * slots
        self.filled = [0] * geometry.num_sets

    def walk(
        self,
        columns: TraceColumns,
        start: int,
        missed: Any,
        batch_size: Optional[int],
    ) -> Tuple[int, int]:
        """Take ``columns``, the trace's requests from position
        ``start`` on; set ``missed`` (the whole trace's trail) at each
        that misses, and return the slice's evictions and dirty
        evictions."""
        geometry = self.geometry
        ways = geometry.associativity
        index_bits = geometry.index_bits
        slot_of, blocks, stamps, dirty, filled = (
            self.slot_of,
            self.blocks,
            self.stamps,
            self.dirty,
            self.filled,
        )
        misses: List[int] = []
        evictions = dirty_evictions = 0
        offset = start
        for chunk in iter_chunks(columns, geometry, batch_size):
            runs = set_runs(chunk)
            firsts = runs.starts
            sets = runs.sets[firsts]
            for first, final, s, block, wrote in zip(
                (runs.order[firsts] + offset).tolist(),
                (runs.order[runs.ends] + offset).tolist(),
                sets.tolist(),
                ((runs.tags[firsts] << index_bits) | sets).tolist(),
                runs.wrote.tolist(),
            ):
                slot = slot_of.get(block)
                if slot is None:
                    misses.append(first)
                    way = filled[s]
                    if way < ways:
                        filled[s] = way + 1
                        slot = s * ways + way
                    else:
                        base = s * ways
                        lru = stamps[base : base + ways]
                        slot = base + lru.index(min(lru))
                        evictions += 1
                        if dirty[slot]:
                            dirty_evictions += 1
                        del slot_of[blocks[slot]]
                    blocks[slot] = block
                    slot_of[block] = slot
                    dirty[slot] = wrote
                elif wrote:
                    dirty[slot] = True
                stamps[slot] = final
            offset += len(chunk)
        missed[misses] = True
        return evictions, dirty_evictions

    def tag_slots(self) -> Any:
        """The ``(num_sets, ways)`` int64 tag slots, ``-1`` for an
        invalid way (an arithmetic shift keeps it ``-1``), as
        :meth:`repro.cache.cache.SetAssociativeCache.tag_slots` gives
        them."""
        geometry = self.geometry
        return (
            np.array(self.blocks, dtype=np.int64) >> geometry.index_bits
        ).reshape(geometry.num_sets, geometry.associativity)


def _rmw(traversal: Traversal) -> Tuple[Any, SimulationResult]:
    base = traversal.result
    writes = base.counts.write_requests
    events, counts = SRAMEventLog(), OperationCounts()
    credit_plain(
        events,
        counts,
        base.requests - writes,
        writes,
        True,
        base.geometry.words_per_set,
    )
    result = SimulationResult(
        "rmw", base.geometry, base.requests, events, counts, replace(base.cache_stats)
    )
    return plain_port_codes(traversal.kinds[traversal.start :], True), result


class _Plane(NamedTuple):
    """The Set-Buffer inputs WG and WG+RB share, over the whole trace."""

    is_write: Any
    #: True at each value-changing (non-silent) write.
    changed: Any
    #: Value-changing writes before each position (``n + 1`` entries).
    changed_before: Any
    #: Positions of the value-changing writes.
    changed_at: Any
    #: A miss to the buffered set: fill-flush write-back site.
    flush: Any
    #: A write to another set while the buffer is valid: eviction site.
    evict: Any
    #: A read hit to the buffered set: WG's premature write-back site,
    #: WG+RB's bypassed read.
    served: Any
    #: A write hit to the buffered set.
    grouped: Any
    #: A write that fills the buffer.
    fills: Any
    #: Evictions of blocks that took a value-changing write since
    #: their fill: WG's dirty evictions.
    dirty_evictions: int


def _set_buffer_plane(traversal: Traversal) -> _Plane:
    kinds, sets, missed = traversal.kinds, traversal.sets, traversal.missed
    n = len(kinds)
    is_write = kinds != 0
    # The last write strictly before each request, -1 for none.
    last_write = np.maximum.accumulate(np.where(is_write, np.arange(n), -1))
    previous = np.empty(n, dtype=np.int64)
    previous[:1] = -1
    previous[1:] = last_write[:-1]
    # The buffered set before each request, -1 when the buffer is invalid.
    buffered = np.where(previous >= 0, sets[previous], -1)
    # A read miss to the buffered set drops the buffer until the next
    # write refills it.
    drops = missed & ~is_write & (sets == buffered)
    dropped = np.cumsum(drops)
    since_write = dropped - drops - np.where(previous >= 0, dropped[previous], 0)
    buffered[since_write > 0] = -1

    writes = word_writes(kinds, traversal.addresses, traversal.values)
    changed = np.zeros(n, dtype=bool)
    changed[writes.positions] = writes.changed

    # One stable (set, tag) sort serves the prefix too: its order is
    # the whole trace's with the positions from ``start`` on dropped.
    tags, start = traversal.tags, traversal.start
    order = np.lexsort((tags, sets))
    dirty_evictions = _dirty_evictions(
        order, sets, tags, missed, changed, traversal.final_tags
    )
    if start:
        dirty_evictions -= _dirty_evictions(
            order[order < start], sets, tags, missed, changed, traversal.start_tags
        )

    match = sets == buffered
    grouped = is_write & ~missed & match
    return _Plane(
        is_write=is_write,
        changed=changed,
        changed_before=np.concatenate(([0], np.cumsum(changed))),
        changed_at=np.flatnonzero(changed),
        flush=missed & match,
        evict=is_write & ~match & (buffered >= 0),
        served=~is_write & ~missed & match,  # Tag-Buffer read hits
        grouped=grouped,
        fills=is_write & ~grouped,
        dirty_evictions=dirty_evictions,
    )


def _dirty_evictions(
    order: Any, sets: Any, tags: Any, missed: Any, changed: Any, final_tags: Any
) -> int:
    """Evictions of block instances that took a value-changing write
    since their fill, from a cold cache whose tag slots are
    ``final_tags`` after the requests at ``order``: the positions of a
    trace prefix in stable (set, tag) order."""
    # Each miss fills a new instance of its block; in (set, tag, trace)
    # order a block's accesses split into instances at its misses.  An
    # instance is evicted unless it is its block's last one and still
    # resident at the end.
    fills = missed[order]
    instance = np.cumsum(fills) - 1
    took = np.zeros(int(np.count_nonzero(fills)), dtype=bool)
    took[instance[changed[order]]] = True
    filled = order[fills]
    block_sets, block_tags = sets[filled], tags[filled]
    latest = np.ones(len(filled), dtype=bool)
    latest[:-1] = (block_sets[1:] != block_sets[:-1]) | (
        block_tags[1:] != block_tags[:-1]
    )
    resident = latest & (final_tags[block_sets] == block_tags[:, None]).any(
        axis=1
    )
    return int(np.count_nonzero(took & ~resident))


def _write_grouping(
    traversal: Traversal, plane: _Plane, bypass: bool
) -> Tuple[Any, SimulationResult]:
    n, start = len(traversal.kinds), traversal.start
    premature = np.zeros(n, dtype=bool) if bypass else plane.served

    # Dirty windows: one per write-back site, plus the end-of-run
    # drain at position n.  A window is dirty when a value-changing
    # write came at or after its start (the previous site: a site
    # clears Dirty before its own write can set it).  It counts when it
    # closes in the measured slice, from its first value-changing
    # write on, which may come before the slice.
    sites = np.flatnonzero(plane.flush | plane.evict | premature)
    changed_before = plane.changed_before
    starts = np.concatenate(([0], sites))
    ends = np.concatenate((sites, [n]))
    dirty = changed_before[ends] > changed_before[starts]
    if start:
        dirty &= ends >= start
    opened = plane.changed_at[changed_before[starts[dirty]]]
    closed = ends[dirty]
    icounts = traversal.icounts.astype(np.int64)
    residency = np.maximum(
        icounts[np.minimum(closed, n - 1)] - icounts[opened], 0
    ).tolist()
    written_back = np.zeros(n + 1, dtype=bool)
    written_back[closed] = True
    final = int(written_back[n])
    written_back = written_back[start:n]
    is_write, changed, served, grouped, fills, premature, evict, flush = (
        mask[start:]
        for mask in (
            plane.is_write,
            plane.changed,
            plane.served,
            plane.grouped,
            plane.fills,
            premature,
            plane.evict,
            plane.flush,
        )
    )

    codes = np.where(is_write, 0, PORT_READ).astype(np.uint8)
    if bypass:
        codes[served] = PORT_BYPASS
    codes[premature & written_back] = PORT_WRITEBACK | PORT_READ
    codes[fills] |= PORT_READ
    codes[evict & written_back] |= PORT_WRITEBACK

    base = traversal.result
    requests = n - start
    writes = int(np.count_nonzero(is_write))
    events, counts = SRAMEventLog(), OperationCounts()
    credit_set_buffer(
        events,
        counts,
        base.geometry.words_per_set,
        reads=requests - writes,
        bypassed=int(np.count_nonzero(served)) if bypass else 0,
        writes=writes,
        grouped=int(np.count_nonzero(grouped)),
        silent=writes - int(np.count_nonzero(changed)),
        fills=int(np.count_nonzero(fills)),
        premature=int(np.count_nonzero(premature & written_back)),
        eviction=int(np.count_nonzero(evict & written_back)),
        fill_flush=int(np.count_nonzero(flush & written_back)),
        residency_total=sum(residency),
        residency_max=max(residency, default=0),
        windows=len(residency),
        final=final,
    )
    result = SimulationResult(
        "wg_rb" if bypass else "wg",
        base.geometry,
        requests,
        events,
        counts,
        replace(base.cache_stats, dirty_evictions=plane.dirty_evictions),
    )
    return codes, result
