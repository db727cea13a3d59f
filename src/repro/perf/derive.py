"""RMW, WG and WG+RB replays derived from one conventional replay.

The paper's four techniques see the same L1-D hit/miss stream.  RMW
adds one row read per write (Section 2); WG and WG+RB change only what
the Set-Buffer does with the stream (Sections 4.1-4.2).  So one
conventional replay of a trace, with its miss trail
(:func:`repro.engine.columnar.process_chunk`'s ``misses``), determines
the other three: :func:`derive_replays` turns a :class:`Traversal` into
each technique's port-operation codes and :class:`SimulationResult`,
and :class:`repro.perf.timing.TimingSimulator` schedules the codes with
the same max-plus scan as a run of its own.

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
on.  :func:`derive_row` feeds the conventional :class:`Simulator` the
warm-up slice, then the measured slice, keeping the miss trail and the
tag slots at the boundary (``Traversal.start`` and ``start_tags``) and
at the end.  The derivation runs over the whole trace, so the buffered
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
  all its writes before it.
* **RMW is** :func:`~repro.engine.columnar.credit_plain` over the
  conventional slice, and every technique's cache statistics are the
  conventional slice's, with WG's dirty evictions swapped in.

The differential suite and ``tests/perf/test_derive.py`` pin every
field of every derived result to that technique's own run, with and
without a warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy

from repro.cache.config import CacheGeometry
from repro.core.outcomes import (
    PORT_BYPASS,
    PORT_READ,
    PORT_WRITEBACK,
    OperationCounts,
)
from repro.engine.columnar import (
    credit_plain,
    credit_set_buffer,
    plain_port_codes,
    split_addresses,
)
from repro.errors import ValidationError
from repro.sim.simulator import SimulationResult, Simulator
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
]

#: Techniques :func:`derive_replays` derives from a conventional replay.
DERIVED_TECHNIQUES = ("rmw", "wg", "wg_rb")

#: The paper's techniques: one conventional replay yields all four.
PAPER_TECHNIQUES = ("conventional",) + DERIVED_TECHNIQUES


@dataclass(frozen=True)
class Traversal:
    """What one conventional replay leaves for the derivation.

    The trace's columns in request order (``kinds`` 1 for a write,
    ``sets`` and ``tags`` under the replay's geometry), the miss trail,
    the cache's tag slots after the last request (``-1`` for an invalid
    way), and the replay's own result.  A replay with a warm-up measures
    the requests from ``start`` on: ``result`` is that slice's, and
    ``start_tags`` holds the tag slots before request ``start``.
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
    a cold stamp-LRU cache, as :class:`TimingSimulator` builds them.
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

    Each result equals field by field a :class:`Simulator` of its own
    fed the warm-up slice, reset, then fed the rest (what
    :func:`repro.sim.campaign.execute_row` runs per technique
    otherwise).
    """
    columns = TraceColumns.of(trace)
    simulator = Simulator("conventional", geometry, batch_size=batch_size)
    missed = np.zeros(len(columns), dtype=bool)
    start_tags = None
    if warmup:
        simulator.feed(columns[:warmup], misses=missed[:warmup])
        start_tags = np.array(simulator.cache.tag_slots(), dtype=np.int64)
        simulator.reset_measurements()
    simulator.feed(columns[warmup:], misses=missed[warmup:])
    conventional = simulator.finish()
    sets, tags, _ = split_addresses(columns.addresses, geometry)
    traversal = Traversal(
        result=conventional,
        icounts=columns.icounts,
        kinds=columns.kinds,
        sets=sets,
        tags=tags,
        addresses=columns.addresses,
        values=columns.values,
        missed=missed,
        final_tags=np.array(simulator.cache.tag_slots(), dtype=np.int64),
        start=warmup,
        start_tags=start_tags,
    )
    derived = derive_replays(traversal, DERIVED_TECHNIQUES)
    return {
        "conventional": conventional,
        **{name: result for name, (_, result) in derived.items()},
    }


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
    """The Set-Buffer inputs WG and WG+RB share."""

    #: Buffered set before each request, -1 when the buffer is invalid.
    buffered: Any
    #: True at each value-changing (non-silent) write.
    changed: Any
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

    tags, start = traversal.tags, traversal.start
    dirty_evictions = _dirty_evictions(
        sets, tags, missed, changed, traversal.final_tags
    )
    if start:
        dirty_evictions -= _dirty_evictions(
            sets[:start],
            tags[:start],
            missed[:start],
            changed[:start],
            traversal.start_tags,
        )
    return _Plane(buffered, changed, dirty_evictions)


def _dirty_evictions(
    sets: Any, tags: Any, missed: Any, changed: Any, final_tags: Any
) -> int:
    """Evictions of block instances that took a value-changing write
    since their fill, from a cold cache whose tag slots are
    ``final_tags`` after the last request."""
    # Each miss fills a new instance of its block; in (set, tag, trace)
    # order a block's accesses split into instances at its misses.  An
    # instance is evicted unless it is its block's last one and still
    # resident at the end.
    order = np.lexsort((tags, sets))
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
    kinds, missed, changed = traversal.kinds, traversal.missed, plane.changed
    n, start = len(kinds), traversal.start
    is_write = kinds != 0
    is_read = ~is_write
    match = traversal.sets == plane.buffered
    flush = missed & match
    evict = is_write & ~match & (plane.buffered >= 0)
    served = is_read & ~missed & match  # Tag-Buffer read hits
    grouped = is_write & ~missed & match
    fills = is_write & ~grouped
    premature = np.zeros(n, dtype=bool) if bypass else served

    # Dirty windows: one per write-back site, plus the end-of-run
    # drain at position n.  A window is dirty when a value-changing
    # write came at or after its start (the previous site: a site
    # clears Dirty before its own write can set it).  It counts when it
    # closes in the measured slice, from its first value-changing
    # write on, which may come before the slice.
    sites = np.flatnonzero(flush | evict | premature)
    changed_before = np.concatenate(([0], np.cumsum(changed)))
    starts = np.concatenate(([0], sites))
    ends = np.concatenate((sites, [n]))
    dirty = changed_before[ends] > changed_before[starts]
    if start:
        dirty &= ends >= start
    opened = np.flatnonzero(changed)[changed_before[starts[dirty]]]
    closed = ends[dirty]
    icounts = traversal.icounts.astype(np.int64)
    residency = np.maximum(
        icounts[np.minimum(closed, n - 1)] - icounts[opened], 0
    ).tolist()
    written_back = np.zeros(n + 1, dtype=bool)
    written_back[closed] = True
    final = int(written_back[n])
    written_back = written_back[start:n]
    if start:
        is_write, changed, served, grouped, fills, premature, evict, flush = (
            mask[start:]
            for mask in (
                is_write, changed, served, grouped, fills, premature, evict, flush
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
