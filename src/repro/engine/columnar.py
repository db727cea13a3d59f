"""Columnar execution engine: the simulator's one fast path.

Scalar execution (:meth:`CacheController.process`, the semantics of
record) pays Python's per-record tax on every access: a record object,
container lookups for the set's slot arrays, method calls into
``cache._fill``, ``memory.read_block`` and the Set-Buffer, attribute
traffic on shared counters.  This engine removes that tax.  A
:class:`ColumnarChunk` holds a trace chunk as NumPy arrays (views over
the columns when it comes from a :class:`TraceColumns`); the kernels
below use vectorized decode/regrouping to set the loops up, then
replay records through loops whose *entire* working state lives in
local variables — the fill path, next-level memory transfers, buffer
write-backs and all statistics inlined, flushed once per chunk.

Why this is bit-identical
-------------------------
* **Ticks are positional.**  Every access bumps the cache's LRU tick
  exactly once (hit → ``_touch``, miss → ``_fill``/``_record_fill``) in
  every technique, so the access at chunk position ``p`` always stamps
  ``tick0 + p``.  Stamps are therefore assigned by position, which
  frees the conventional/RMW kernel to regroup records.
* **Set-disjoint state.**  Tags, stamps, data, dirty bits and miss
  traffic are all per-set, and eviction/fill block addresses compose
  the set index, so accesses to different sets never interact.  The
  conventional/RMW kernel exploits this: a stable argsort groups the
  chunk by set (trace order preserved within each set), the per-set
  slot arrays are hoisted into locals once per group, and each group
  replays independently — same state transitions, same aggregate
  counters, radically fewer lookups.
* **WG runs in trace order.**  The Write-Grouping buffer is global
  state, so that kernel keeps trace order; with the paper's single
  buffer entry its whole control plane reduces to four locals
  (buffered set, dirty bit, buffered data, modified words) plus one
  invariant — while a set is buffered the cache never refills it
  (``fill_flush`` drains the buffer first), hence the Tag-Buffer's
  tags always equal the cache's and every probe outcome is implied by
  the cache probe.  Consecutive same-set write runs are pre-grouped
  vectorized (``np.flatnonzero(np.diff(...))``).

Fills without per-word work
---------------------------
Both kernels refill a missed block from the functional memory's word
store, which holds only words that were written back (or stored with
:meth:`FunctionalMemory.write_word`).  A block none of whose words is
stored reads as zeros, so the kernels assign one shared zero row
instead of looking each word up; the test covers every word of the
block, because ``write_word`` can store a lone word that is not the
block's first.  Any other block is read word by word, as
:meth:`FunctionalMemory.read_block` does.  In a cold run almost every
fill is of a block memory never held.

The WG kernel keeps the buffered set as one flat copy of the set's
data list, indexed ``way * wpb + word`` like the cache's own slot
array, and its modified words as flat indices: a Set-Buffer fill is one
slice copy and a write-back stores each modified index and dirties its
way (``index // wpb``).  :class:`~repro.core.set_buffer.SetBuffer`
keeps its per-way rows and ``(way, word)`` pairs; the kernel converts
them at chunk start and rebuilds them at chunk end, so the scalar path
between kernel calls sees the buffer it always did.

Gating
------
:func:`_kernel_for` is the one gate.  The kernels run whenever the
controller is the technique they implement (``name ==
_fast_path_name``), its cache uses stamp-LRU (``engine_fast_ok``) and —
for WG — its buffer pool has one entry.  Metrics-only telemetry rides
along: after every kernel call :func:`process_chunk` credits the
controller's registry counters with the call's deltas
(:meth:`CacheController._add_telemetry_deltas`), and with an
:class:`repro.obs.sampler.IntervalSampler` attached it stops each
kernel call at the sampler's next window boundary, so registry counters
and snapshots match per-access execution exactly.  Four cases run the
whole chunk per access through :meth:`CacheController.process`
instead: a live trace sink (it needs one instant per instrumentation
point), the invariant checker (it audits every access), WG buffer
pools with more than one entry (pool-LRU; no benchmark workload uses
one), and non-LRU replacement.  The three-way oracle↔scalar↔columnar
differential in ``tests/engine/`` and ``repro/check/`` enforces
bit-identity across all of it.

Port-operation codes
--------------------
The timing model (:mod:`repro.perf.timing`) replays through
:meth:`repro.sim.simulator.Simulator.feed`, whose ``codes`` array
reaches :func:`process_chunk` one chunk slice at a time, to be filled
with each request's
:meth:`repro.core.outcomes.AccessOutcome.port_code`.  The plain kernel
derives the codes from the access kinds; the WG kernel starts from
"read port for a read, nothing for a write" and overwrites it at its
four event sites (read bypass, premature write-back, Tag-Buffer-miss
fill, eviction write-back).  Fill-flush write-backs take no port, as
in the scalar outcomes.  A chunk no kernel handles runs per access
through ``process()`` and reads each code off the outcome.  Campaign
rows pass no array, so the kernels only test one local flag at those
sites.

Miss trail
----------
A conventional traversal (:func:`repro.perf.derive.traverse`, behind
the timing model's derived replays and a campaign row's derived
techniques inside a memo scope) needs the requests that missed and the
tag slots, never a data word, so it runs no kernel: it walks a flat
tag directory over the same runs as the plain kernel
(:func:`set_runs`), visiting only each run's first record, the one
that can miss.  RMW, WG and WG+RB are then derived from that walk
(:mod:`repro.perf.derive`).  The closing arithmetic of both kernels is
one function per technique family (:func:`credit_plain`,
:func:`credit_set_buffer`, :func:`credit_miss_traffic`), which the
derivation calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy

from repro.cache.config import CacheGeometry
from repro.core.outcomes import (
    PORT_BYPASS,
    PORT_READ,
    PORT_WRITE,
    PORT_WRITEBACK,
)
from repro.core.write_grouping import WriteGroupingController
from repro.engine.batch import DEFAULT_BATCH_SIZE, AccessBatch
from repro.errors import StateError, ValidationError
from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import CacheController
    from repro.core.outcomes import OperationCounts
    from repro.sram.events import SRAMEventLog

# Bound as ``Any``: the array code here is pinned by the differential
# suite, and NumPy's stubs would only add casts.
np: Any = numpy

__all__ = [
    "ColumnarChunk",
    "SetRuns",
    "credit_miss_traffic",
    "credit_plain",
    "credit_set_buffer",
    "iter_chunks",
    "plain_port_codes",
    "process_chunk",
    "set_runs",
    "split_addresses",
]

_NO_TAG = -1
_WRITE = AccessType.WRITE

#: ``kernel(controller, chunk, codes)``.
_Kernel = Callable[[Any, "ColumnarChunk", Optional[Any]], None]


def split_addresses(
    addresses: Any, geometry: CacheGeometry
) -> Tuple[Any, Any, Any]:
    """Vectorised ``(set_indices, tags, word_offsets)`` of a u64 address
    column under ``geometry.codec`` — the batch decoder's split, in bulk."""
    codec = geometry.codec
    return (
        ((addresses >> codec.index_shift) & codec.index_mask).astype(np.int64),
        ((addresses >> codec.tag_shift) & codec.tag_mask).astype(np.int64),
        ((addresses & codec.offset_mask) >> codec.word_shift).astype(np.int64),
    )


@dataclass
class ColumnarChunk:
    """One trace chunk as seven parallel NumPy arrays.

    The array form of :class:`AccessBatch`: ``icounts``/
    ``addresses``/``values`` are u64, ``kinds`` u8, and the pre-split
    ``set_indices``/``tags``/``word_offsets`` are i64 (signed, so they
    compare directly against the cache's slot-array tags, whose invalid
    sentinel is ``-1``).  :func:`iter_chunks` cuts a
    :class:`TraceColumns` into chunks whose four trace columns are
    views.
    """

    geometry: CacheGeometry
    icounts: Any
    kinds: Any
    addresses: Any
    values: Any
    set_indices: Any
    tags: Any
    word_offsets: Any
    _grouped: Any = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, key: slice) -> "ColumnarChunk":
        """The records in ``key`` (a slice), as zero-copy column views."""
        return ColumnarChunk(
            geometry=self.geometry,
            icounts=self.icounts[key],
            kinds=self.kinds[key],
            addresses=self.addresses[key],
            values=self.values[key],
            set_indices=self.set_indices[key],
            tags=self.tags[key],
            word_offsets=self.word_offsets[key],
        )

    def grouped(self) -> "Any":
        """The set-grouped, run-compressed projection of this chunk.

        A pure function of the trace data and geometry — independent of
        any cache or controller state — so it is computed once per chunk
        object and cached: a caller replaying the same chunks through
        several techniques (the hot-path bench does) pays for it once.
        A derived campaign row or timed replay never asks for it: its
        traversal (:func:`repro.perf.derive.traverse`) runs no kernel
        and walks the tags over the runs alone (:func:`set_runs`).  An
        observed row, or one outside a memo scope, re-chunks the trace
        in each technique's :meth:`repro.sim.simulator.Simulator.feed`,
        so its conventional and RMW runs each compute it.  See
        :func:`_grouped_projection` for the layout.
        """
        if self._grouped is None:
            self._grouped = _grouped_projection(self)
        return self._grouped

    @classmethod
    def from_records(
        cls, records: Sequence[MemoryAccess], geometry: CacheGeometry
    ) -> "ColumnarChunk":
        """Decode scalar records straight into columns."""
        n = len(records)
        addresses = np.fromiter([a.address for a in records], np.uint64, n)
        set_indices, tags, word_offsets = split_addresses(addresses, geometry)
        return cls(
            geometry=geometry,
            icounts=np.fromiter([a.icount for a in records], np.uint64, n),
            kinds=np.fromiter([a.kind is _WRITE for a in records], np.uint8, n),
            addresses=addresses,
            values=np.fromiter([a.value for a in records], np.uint64, n),
            set_indices=set_indices,
            tags=tags,
            word_offsets=word_offsets,
        )

    @classmethod
    def from_access_batch(cls, batch: AccessBatch) -> "ColumnarChunk":
        """Lift a list-based batch into array form."""
        return cls(
            geometry=batch.geometry,
            icounts=np.array(batch.icounts, dtype=np.uint64),
            kinds=np.array(batch.kinds, dtype=np.uint8),
            addresses=np.array(batch.addresses, dtype=np.uint64),
            values=np.array(batch.values, dtype=np.uint64),
            set_indices=np.array(batch.set_indices, dtype=np.int64),
            tags=np.array(batch.tags, dtype=np.int64),
            word_offsets=np.array(batch.word_offsets, dtype=np.int64),
        )


class SetRuns(NamedTuple):
    """A chunk in stable set order, split into same-(set, tag) runs.

    ``order`` is the stable argsort by set; ``sets``, ``tags`` and
    ``kinds`` are the chunk's columns in that order; ``new_run`` is True
    at each run's first sorted record; ``starts`` and ``ends`` are each
    run's first and last sorted index; ``wrote`` is True for a run that
    holds a write.
    """

    order: Any
    sets: Any
    tags: Any
    kinds: Any
    new_run: Any
    starts: Any
    ends: Any
    wrote: Any


def set_runs(sets: Any, tags: Any, kinds: Any) -> SetRuns:
    """The stable set sort of non-empty ``sets``, ``tags`` and ``kinds``
    columns and their same-(set, tag) runs: the one split behind the
    plain kernel's projection (:func:`_grouped_projection`) and the
    derivation's tag walk (:func:`repro.perf.derive.traverse`).

    Within a run only the first record can miss: the block stays
    resident, since an eviction would need another access to the set
    and the run is contiguous in sorted order.
    """
    n = len(sets)
    order = np.argsort(sets, kind="stable")
    s_sorted = sets[order]
    t_sorted = tags[order]
    k_sorted = kinds[order]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.logical_or(
        s_sorted[1:] != s_sorted[:-1],
        t_sorted[1:] != t_sorted[:-1],
        out=new_run[1:],
    )
    starts = np.flatnonzero(new_run)
    return SetRuns(
        order=order,
        sets=s_sorted,
        tags=t_sorted,
        kinds=k_sorted,
        new_run=new_run,
        starts=starts,
        ends=np.append(starts[1:], n) - 1,
        wrote=np.logical_or.reduceat(k_sorted, starts),
    )


def _grouped_projection(chunk: ColumnarChunk) -> Any:
    """Set-grouped, run-compressed view of a chunk (pure trace transform).

    The chunk's runs (:func:`set_runs`) are legal input to the plain
    kernel in set order, because per-set cache state is disjoint and
    LRU stamps are positional.  Within a run only writes mutate data.
    A read affects nothing but the LRU stamp, and stamps are only
    *read* after its run ends (victim choice happens on a miss, i.e. in
    a later run of the set), so every record may stamp with its run's
    final trace position and non-first reads drop out entirely.

    Returns ``(set_l, pos_l, flag_l, tag_l, word_l, val_l, fword_l,
    writes)``: plain-int lists over the kept records (run-firsts plus
    writes), where ``pos_l`` is the run-final chunk position (the
    kernel adds its tick base), ``flag_l`` packs the record's kind in
    bit 0 and "run contains a write" in bit 1, ``fword_l`` is the first
    word-store index of the record's block (the fill path's memory
    address, ``WORD_BYTES == 8``), and ``writes`` counts writes in the
    whole chunk.  Everything here depends only on the trace data and
    the chunk's geometry — never on cache or controller state — so the
    result is cached on the chunk and shared by every technique that
    replays that chunk object.
    """
    wpb = chunk.geometry.words_per_block
    runs = set_runs(chunk.set_indices, chunk.tags, chunk.kinds)
    order, k_sorted = runs.order, runs.kinds
    run_id = np.cumsum(runs.new_run) - 1
    # Within a run positions increase (stable sort), so the run's last
    # sorted record carries its final position.
    pos_sorted = order[runs.ends][run_id]
    flag_sorted = k_sorted + 2 * runs.wrote[run_id].astype(np.uint8)
    keep = np.flatnonzero(runs.new_run | (k_sorted != 0))
    sel = order[keep]
    return (
        runs.sets.take(keep).tolist(),
        pos_sorted.take(keep).tolist(),
        flag_sorted.take(keep).tolist(),
        runs.tags.take(keep).tolist(),
        chunk.word_offsets.take(sel).tolist(),
        chunk.values.take(sel).tolist(),
        ((chunk.addresses.take(sel) >> 3).astype(np.int64) & ~(wpb - 1))
        .tolist(),
        int(np.count_nonzero(k_sorted)),
    )


def iter_chunks(
    trace: Iterable[MemoryAccess],
    geometry: CacheGeometry,
    batch_size: Optional[int] = None,
) -> Iterator[ColumnarChunk]:
    """Chunk a trace into :class:`ColumnarChunk` arrays.

    A :class:`TraceColumns` trace (what the generator and both trace
    file readers return) is not decoded at all: each chunk is a view
    over its columns plus the address split, so no record is ever
    built.  Any other iterable of records streams — at most one chunk
    of records is held at a time — and each chunk is decoded straight
    into arrays (:meth:`ColumnarChunk.from_records`), at the same
    boundaries.
    """
    size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
    if size <= 0:
        raise ValidationError(f"batch_size must be positive, got {size}")
    if isinstance(trace, TraceColumns):
        for start in range(0, len(trace), size):
            stop = start + size
            addresses = trace.addresses[start:stop]
            set_indices, tags, word_offsets = split_addresses(
                addresses, geometry
            )
            yield ColumnarChunk(
                geometry=geometry,
                icounts=trace.icounts[start:stop],
                kinds=trace.kinds[start:stop],
                addresses=addresses,
                values=trace.values[start:stop],
                set_indices=set_indices,
                tags=tags,
                word_offsets=word_offsets,
            )
        return
    records = iter(trace)
    while True:
        block = list(islice(records, size))
        if not block:
            return
        yield ColumnarChunk.from_records(block, geometry)


def process_chunk(
    controller: "CacheController",
    chunk: ColumnarChunk,
    codes: Optional[Any] = None,
) -> int:
    """Run one chunk through the columnar kernels; returns records consumed.

    Rejects a finalized controller and a chunk decoded for another
    geometry.  Whenever no kernel reproduces the exact semantics (see
    the module docstring's gating section), every record runs through
    :meth:`CacheController.process` instead.

    ``codes``, a u8 array of ``len(chunk)``, receives each request's
    port-operation code (:meth:`AccessOutcome.port_code`, the timing
    model's input).  The kernels write it from the access kind and their
    event sites; a chunk run per access takes each code from the outcome.
    """
    if controller._finalized:  # noqa: SLF001 - engine contract
        raise StateError("controller already finalized")
    if chunk.geometry != controller.cache.geometry:
        raise ValidationError(
            f"batch decoded for {chunk.geometry.describe()} fed to a "
            f"{controller.cache.geometry.describe()} cache"
        )
    n = len(chunk)
    if n == 0:
        return 0
    kernel = _kernel_for(controller)
    if kernel is None:
        records = TraceColumns(
            chunk.icounts, chunk.kinds, chunk.addresses, chunk.values
        )
        process = controller.process
        if codes is None:
            for access in records:
                process(access)
        else:
            for i, access in enumerate(records):
                codes[i] = process(access).port_code(access.is_read)
        return n
    if not controller._obs:  # noqa: SLF001
        kernel(controller, chunk, codes)
        return n
    # Metrics-only telemetry: credit the registry after each kernel
    # call, and end each call at the sampler's next window boundary so
    # its snapshot sees the counters of exactly that request.
    sampler = controller.telemetry.sampler
    start = 0
    while start < n:
        stop = n
        if sampler is not None:
            stop = min(n, start + sampler.remaining(controller.name))
        marks = controller._telemetry_marks()  # noqa: SLF001
        if stop - start == n:
            kernel(controller, chunk, codes)
        else:
            kernel(
                controller,
                chunk[start:stop],
                None if codes is None else codes[start:stop],
            )
        controller._add_telemetry_deltas(marks)  # noqa: SLF001
        if sampler is not None:
            sampler.advance(controller, stop - start)
        start = stop
    return n


def _kernel_for(controller: "CacheController") -> Optional[_Kernel]:
    """The kernel reproducing ``controller`` exactly, or None.

    The engine's one gate (see the module docstring).  Kernels are read
    from the module globals on every call, so the check campaign's
    injected-bug tests can patch ``_process_chunk_wg``.
    """
    if (
        controller.name != controller._fast_path_name  # noqa: SLF001
        or controller._invariant_checker is not None  # noqa: SLF001
        or not controller.cache.engine_fast_ok
        or (controller._obs and controller.telemetry.sink.enabled)  # noqa: SLF001
    ):
        return None
    if controller.name in ("conventional", "rmw"):
        return _process_chunk_plain
    if (
        isinstance(controller, WriteGroupingController)
        and len(controller._entries) == 1  # noqa: SLF001
    ):
        return _process_chunk_wg
    return None


def _process_chunk_plain(
    controller: "CacheController",
    chunk: ColumnarChunk,
    codes: Optional[Any],
) -> None:
    """Columnar kernel shared by the conventional and RMW controllers.

    A stable argsort groups the chunk by set (preserving trace order
    within each set — legal because per-set state is disjoint and LRU
    stamps are positional); each group replays with the set's slot
    arrays hoisted into locals and the miss path — way choice, dirty
    eviction, next-level block transfer, refill — inlined down to plain
    list and dict operations on the functional memory's word store (a
    block memory holds no word of refills as one shared zero row).
    All statistics accumulate in locals and flush once.
    """
    cache = controller.cache
    tags_by_set = cache._tags  # noqa: SLF001 - engine contract
    dirty_by_set = cache._dirty  # noqa: SLF001
    data_by_set = cache._data  # noqa: SLF001
    stamps_by_set = cache._stamps  # noqa: SLF001
    tick0 = cache._tick  # noqa: SLF001
    memory = cache.memory
    mem_words = memory._words  # noqa: SLF001
    geometry = cache.geometry
    wpb = geometry.words_per_block
    offset_bits = geometry.offset_bits
    tag_word_shift = offset_bits + geometry.index_bits - 3
    set_word_shift = offset_bits - 3
    count_mt = controller.count_miss_traffic
    is_rmw = controller.name == "rmw"
    word_range = range(wpb)
    n = len(chunk)

    set_l, pos_l, flag_l, tag_l, word_l, val_l, fword_l, writes = chunk.grouped()
    mem_get = mem_words.get
    mem_disjoint = mem_words.keys().isdisjoint
    zero_row = [0] * wpb

    # Hits need no counting in the loop: they are derived at flush time
    # from the vectorized totals minus the (rare) miss counters.
    read_misses = write_misses = 0
    evictions = dirty_evictions = 0
    current_set = -1
    tags: Any = None
    stamps: Any = None
    dirty: Any = None
    data: Any = None
    set_word_base = 0
    # One-entry (tag -> way) memo per set group.  Every run-first record
    # resolves (its tag differs from the previous run's, which is what
    # the memo holds) and refreshes the memo, so the memo branch fires
    # exactly on non-first records of a run — which by construction of
    # the projection's keep mask are always writes whose way, stamp and
    # dirty state the run-first already settled.  Tags only change
    # through the fill path (which refreshes the memo), so the memo can
    # never go stale.  -2 collides with no tag (>= -1).
    last_tag = -2
    last_base = 0
    for s, pos, flag, t, w, v, first_word in zip(
        set_l, pos_l, flag_l, tag_l, word_l, val_l, fword_l
    ):
        if t == last_tag and s == current_set:
            data[last_base + w] = v
            continue
        if s != current_set:
            current_set = s
            tags = tags_by_set[s]
            stamps = stamps_by_set[s]
            dirty = dirty_by_set[s]
            data = data_by_set[s]
            set_word_base = s << set_word_shift
        if t in tags:
            way = tags.index(t)
        else:
            # Miss: ``cache._fill``, inlined.  An invalid way means no
            # victim; otherwise the LRU way is evicted (written back
            # when dirty).
            if flag & 1:
                write_misses += 1
            else:
                read_misses += 1
            if _NO_TAG in tags:
                way = tags.index(_NO_TAG)
                base = way * wpb
            else:
                way = stamps.index(min(stamps))
                base = way * wpb
                evictions += 1
                if dirty[way]:
                    dirty_evictions += 1
                    victim_word = (tags[way] << tag_word_shift) | set_word_base
                    for o in word_range:
                        mem_words[victim_word + o] = data[base + o]
            # Refill: one shared zero row when memory holds no word of
            # the block (see "Fills without per-word work").
            if not mem_words or mem_disjoint(range(first_word, first_word + wpb)):
                data[base : base + wpb] = zero_row
            else:
                data[base : base + wpb] = [
                    mem_get(o, 0) for o in range(first_word, first_word + wpb)
                ]
            tags[way] = t
            dirty[way] = False
        # LRU stamps are positional, so the run-final stamp is known up
        # front; the dirty bit may be set as soon as the run is known to
        # contain a write (bit 1 of ``flag``) — nothing observes it
        # before the run's writes have applied.
        stamps[way] = tick0 + pos
        last_tag = t
        last_base = way * wpb
        if flag:
            dirty[way] = True
            if flag & 1:
                data[last_base + w] = v

    if codes is not None:
        codes[:] = plain_port_codes(chunk.kinds, is_rmw)
    reads = n - writes
    block_reads = read_misses + write_misses
    cache._tick = tick0 + n  # noqa: SLF001
    controller._current_icount = int(chunk.icounts[-1])  # noqa: SLF001
    memory.block_reads += block_reads
    memory.block_writes += dirty_evictions
    stats = cache.stats
    stats.read_hits += reads - read_misses
    stats.write_hits += writes - write_misses
    stats.read_misses += read_misses
    stats.write_misses += write_misses
    stats.evictions += evictions
    stats.dirty_evictions += dirty_evictions
    events = controller.events
    counts = controller.counts
    row_words = controller._row_words  # noqa: SLF001
    credit_plain(events, counts, reads, writes, is_rmw, row_words)
    if count_mt:
        credit_miss_traffic(
            events, counts, block_reads, dirty_evictions, row_words, wpb
        )


def plain_port_codes(kinds: Any, rmw: bool) -> Any:
    """Port-operation codes of the conventional or RMW controller.

    A read takes the read port; a write the write port, behind its read
    phase under RMW.
    """
    return np.where(kinds, PORT_READ | PORT_WRITE if rmw else PORT_WRITE, PORT_READ)


def credit_plain(
    events: "SRAMEventLog",
    counts: "OperationCounts",
    reads: int,
    writes: int,
    rmw: bool,
    row_words: int,
) -> None:
    """Credit ``reads`` and ``writes`` requests of the conventional or
    RMW controller.

    A read is one row read routing one word.  A conventional write is
    one row write driving one word.  An RMW write reads its whole row
    into the write-back latches and writes it back (paper Section 2):
    one more row read per write, and every column driven.
    """
    counts.read_requests += reads
    counts.write_requests += writes
    if rmw:
        counts.rmw_operations += writes
        events.rmw_operations += writes
        events.precharges += reads + writes
        events.rwl_pulses += reads + writes
        events.row_reads += reads + writes
        events.words_routed += reads + writes * row_words
        events.wwl_pulses += writes
        events.row_writes += writes
        events.words_driven += writes * row_words
    else:
        events.precharges += reads
        events.rwl_pulses += reads
        events.row_reads += reads
        events.words_routed += reads
        events.wwl_pulses += writes
        events.row_writes += writes
        events.words_driven += writes


def credit_miss_traffic(
    events: "SRAMEventLog",
    counts: "OperationCounts",
    fills: int,
    dirty_evictions: int,
    row_words: int,
    block_words: int,
) -> None:
    """Charge miss traffic under ``count_miss_traffic``: each block fill
    as an RMW, each dirty eviction as a row read of the victim block."""
    events.rmw_operations += fills
    events.precharges += dirty_evictions + fills
    events.rwl_pulses += dirty_evictions + fills
    events.row_reads += dirty_evictions + fills
    events.words_routed += dirty_evictions * block_words + fills * row_words
    events.wwl_pulses += fills
    events.row_writes += fills
    events.words_driven += fills * row_words
    counts.rmw_operations += fills


def _process_chunk_wg(
    controller: WriteGroupingController,
    chunk: ColumnarChunk,
    codes: Optional[Any],
) -> None:
    """Columnar kernel for WG / WG+RB with a single buffer entry.

    Runs in trace order (the buffer is global state), but the whole
    buffer reduces to locals: buffered set (``-1`` when invalid), dirty
    bit, ``dirty_since``, the Set-Buffer's data as one flat list in the
    cache's ``way * wpb + word`` layout, and its modified words as flat
    indices.  Write-backs, buffer fills (one slice copy of the set) and
    cache fills are inlined; the Tag-Buffer needs no tag probes because
    while a set is buffered its cache tags cannot change (a miss drains
    the buffer first), so a cache-hit read of the buffered set *is* a
    Tag-Buffer hit.  The buffer objects are converted from their
    per-way form at chunk start and rebuilt in it at chunk end.
    Consecutive same-(kind, set) runs are pre-grouped vectorized so the
    inner write loop consumes whole runs without rescanning.
    """
    cache = controller.cache
    tags_by_set = cache._tags  # noqa: SLF001 - engine contract
    dirty_by_set = cache._dirty  # noqa: SLF001
    data_by_set = cache._data  # noqa: SLF001
    stamps_by_set = cache._stamps  # noqa: SLF001
    tick0 = cache._tick  # noqa: SLF001
    memory = cache.memory
    mem_words = memory._words  # noqa: SLF001
    geometry = cache.geometry
    wpb = geometry.words_per_block
    offset_bits = geometry.offset_bits
    tag_word_shift = offset_bits + geometry.index_bits - 3
    set_word_shift = offset_bits - 3
    row_words = controller._row_words  # noqa: SLF001
    count_mt = controller.count_miss_traffic
    detect = controller.detect_silent_writes
    bypass_reads = controller._rb_bypass  # noqa: SLF001
    word_range = range(wpb)
    entry = controller._entries[0]  # noqa: SLF001
    tag_buffer = entry.tag_buffer
    set_buffer = entry.set_buffer

    # Buffer state, lifted into locals for the duration of the chunk.
    # The buffered set is one flat copy of the set's data list (the
    # cache's own ``way * wpb + word`` layout) and ``modified`` holds
    # flat indices, so a fill is one slice copy.
    if tag_buffer.valid:
        buffered_set = tag_buffer.set_index
        buffer_dirty = tag_buffer.dirty
        dirty_since = entry.dirty_since
        rows, pairs = set_buffer.engine_views()
        buffer = [word for row in rows for word in row]
        modified = {way * wpb + word for way, word in pairs}
    else:
        buffered_set = -1
        buffer_dirty = False
        dirty_since = None
        buffer = modified = None  # type: ignore[assignment]

    kinds = chunk.kinds
    set_arr = chunk.set_indices
    n = len(kinds)
    set_l = set_arr.tolist()
    kind_l = kinds.tolist()
    tag_l = chunk.tags.tolist()
    word_l = chunk.word_offsets.tolist()
    val_l = chunk.values.tolist()
    ic_l = chunk.icounts.tolist()
    fword_l = ((chunk.addresses >> 3).astype(np.int64) & ~(wpb - 1)).tolist()
    mem_get = mem_words.get
    mem_disjoint = mem_words.keys().isdisjoint
    zero_row = [0] * wpb
    # Vectorized run-length grouping: run_end_l[i] is the end
    # (exclusive) of the maximal run of records sharing position i's
    # (kind, set) pair.
    change = (
        np.flatnonzero(np.diff(set_arr) | (kinds[1:] != kinds[:-1])) + 1
    )
    run_bounds = np.concatenate((change, [n]))
    run_starts = np.concatenate(([0], change))
    run_end_l = np.repeat(run_bounds, run_bounds - run_starts).tolist()
    # Port-op codes: a read defaults to one read-port operation and a
    # write (grouped) to none; the four event sites below set the rest.
    record = codes is not None
    code_l = bytearray(
        np.where(kinds, 0, PORT_READ).astype(np.uint8) if record else 0
    )

    reads = 0  # read requests
    read_hits = 0  # of which cache hits
    bypassed = 0  # reads served from the Set-Buffer (WG+RB only)
    writes = 0  # write requests
    write_hits = 0  # of which cache hits
    grouped = 0  # writes merged on a Tag-Buffer hit
    silent = 0  # of which silent (when detection is on)
    read_misses = write_misses = evictions = dirty_evictions = 0
    buffer_fills = 0  # Set-Buffer fills (full-row reads)
    premature_wb = eviction_wb = fill_flush_wb = 0  # full-row writes
    residency_total = residency_max = windows = 0

    i = 0
    while i < n:
        s = set_l[i]
        t = tag_l[i]
        tags = tags_by_set[s]
        if not kind_l[i]:
            # Read request.
            reads += 1
            if t in tags:
                read_hits += 1
                way = tags.index(t)
                stamps_by_set[s][way] = tick0 + i
                if buffered_set == s:
                    # Tag-Buffer hit (implied: buffered tags equal the
                    # cache tags while the set stays buffered).
                    if bypass_reads:
                        bypassed += 1
                        if record:
                            code_l[i] = PORT_BYPASS
                    elif buffer_dirty:
                        # WG: premature write-back, inlined.
                        target = data_by_set[s]
                        target_dirty = dirty_by_set[s]
                        for b in modified:
                            target[b] = buffer[b]
                            target_dirty[b // wpb] = True
                        modified.clear()
                        buffer_dirty = False
                        premature_wb += 1
                        if record:
                            code_l[i] = PORT_WRITEBACK | PORT_READ
                        if dirty_since is not None:
                            residency = ic_l[i] - dirty_since
                            if residency < 0:
                                residency = 0
                            residency_total += residency
                            if residency > residency_max:
                                residency_max = residency
                            windows += 1
                            dirty_since = None
            else:
                # Cache miss: drain-and-drop the buffer if the fill is
                # about to mutate the buffered set, then fill (inlined).
                if buffered_set == s:
                    if buffer_dirty:
                        target = data_by_set[s]
                        target_dirty = dirty_by_set[s]
                        for b in modified:
                            target[b] = buffer[b]
                            target_dirty[b // wpb] = True
                        modified.clear()
                        buffer_dirty = False
                        fill_flush_wb += 1
                        if dirty_since is not None:
                            residency = ic_l[i] - dirty_since
                            if residency < 0:
                                residency = 0
                            residency_total += residency
                            if residency > residency_max:
                                residency_max = residency
                            windows += 1
                            dirty_since = None
                    buffered_set = -1
                    buffer = modified = None  # type: ignore[assignment]
                read_misses += 1
                stamps = stamps_by_set[s]
                data = data_by_set[s]
                set_dirty = dirty_by_set[s]
                if _NO_TAG in tags:
                    way = tags.index(_NO_TAG)
                    base = way * wpb
                else:
                    way = stamps.index(min(stamps))
                    base = way * wpb
                    evictions += 1
                    if set_dirty[way]:
                        dirty_evictions += 1
                        victim_word = (
                            tags[way] << tag_word_shift
                        ) | (s << set_word_shift)
                        for o in word_range:
                            mem_words[victim_word + o] = data[base + o]
                first_word = fword_l[i]
                if not mem_words or mem_disjoint(range(first_word, first_word + wpb)):
                    data[base : base + wpb] = zero_row
                else:
                    data[base : base + wpb] = [
                        mem_get(o, 0) for o in range(first_word, first_word + wpb)
                    ]
                tags[way] = t
                set_dirty[way] = False
                stamps[way] = tick0 + i
            i += 1
            continue

        # Write run: every record in [i, run_end) is a write to set s.
        run_end = run_end_l[i]
        stamps = stamps_by_set[s]
        k = i
        while k < run_end:
            t = tag_l[k]
            writes += 1
            if t in tags:
                write_hits += 1
                way = tags.index(t)
                stamps[way] = tick0 + k
            else:
                # Cache miss mid-run: drain the buffer first when it
                # holds this set, then fill (both inlined, as above).
                if buffered_set == s:
                    if buffer_dirty:
                        target = data_by_set[s]
                        target_dirty = dirty_by_set[s]
                        for b in modified:
                            target[b] = buffer[b]
                            target_dirty[b // wpb] = True
                        modified.clear()
                        buffer_dirty = False
                        fill_flush_wb += 1
                        if dirty_since is not None:
                            residency = ic_l[k] - dirty_since
                            if residency < 0:
                                residency = 0
                            residency_total += residency
                            if residency > residency_max:
                                residency_max = residency
                            windows += 1
                            dirty_since = None
                    buffered_set = -1
                    buffer = modified = None  # type: ignore[assignment]
                write_misses += 1
                data = data_by_set[s]
                set_dirty = dirty_by_set[s]
                if _NO_TAG in tags:
                    way = tags.index(_NO_TAG)
                    base = way * wpb
                else:
                    way = stamps.index(min(stamps))
                    base = way * wpb
                    evictions += 1
                    if set_dirty[way]:
                        dirty_evictions += 1
                        victim_word = (
                            tags[way] << tag_word_shift
                        ) | (s << set_word_shift)
                        for o in word_range:
                            mem_words[victim_word + o] = data[base + o]
                first_word = fword_l[k]
                if not mem_words or mem_disjoint(range(first_word, first_word + wpb)):
                    data[base : base + wpb] = zero_row
                else:
                    data[base : base + wpb] = [
                        mem_get(o, 0) for o in range(first_word, first_word + wpb)
                    ]
                tags[way] = t
                set_dirty[way] = False
                stamps[way] = tick0 + k
            if buffered_set == s:
                grouped += 1
            else:
                # Tag-Buffer miss: drain the (single) victim entry and
                # refill it with this set — Algorithm 1's write path,
                # inlined (``_write_back(entry, "eviction")`` +
                # ``_fill_entry``).
                if buffer_dirty:
                    target = data_by_set[buffered_set]
                    target_dirty = dirty_by_set[buffered_set]
                    for b in modified:
                        target[b] = buffer[b]
                        target_dirty[b // wpb] = True
                    buffer_dirty = False
                    eviction_wb += 1
                    if record:
                        code_l[k] |= PORT_WRITEBACK
                    if dirty_since is not None:
                        residency = ic_l[k] - dirty_since
                        if residency < 0:
                            residency = 0
                        residency_total += residency
                        if residency > residency_max:
                            residency_max = residency
                        windows += 1
                        dirty_since = None
                buffer = data_by_set[s][:]
                modified = set()
                buffered_set = s
                buffer_fills += 1
                if record:
                    code_l[k] |= PORT_READ
            b = way * wpb + word_l[k]
            v = val_l[k]
            if buffer[b] == v:
                # Silent write: the buffer is left untouched when
                # detection is on; dirties it like any other write
                # otherwise.
                if detect:
                    silent += 1
                    k += 1
                    continue
            else:
                buffer[b] = v
                modified.add(b)
            if not buffer_dirty:
                dirty_since = ic_l[k]
                buffer_dirty = True
            k += 1
        i = run_end

    if codes is not None:
        codes[:] = np.frombuffer(code_l, dtype=np.uint8)

    # Rematerialize the buffer objects from the locals.
    if buffered_set == -1:
        entry.invalidate()
        entry.dirty_since = None
    else:
        tag_buffer.valid = True
        tag_buffer.dirty = buffer_dirty
        tag_buffer.set_index = buffered_set
        tag_buffer._tags = tuple(  # noqa: SLF001 - engine contract
            tag if tag != _NO_TAG else None
            for tag in tags_by_set[buffered_set]
        )
        set_buffer.valid = True
        set_buffer.set_index = buffered_set
        set_buffer._data = [  # noqa: SLF001
            buffer[base : base + wpb] for base in range(0, row_words, wpb)
        ]
        set_buffer._modified = {divmod(b, wpb) for b in modified}  # noqa: SLF001
        entry.dirty_since = dirty_since

    cache._tick = tick0 + n  # noqa: SLF001
    controller._current_icount = ic_l[-1]  # noqa: SLF001
    block_reads = read_misses + write_misses
    memory.block_reads += block_reads
    memory.block_writes += dirty_evictions
    stats = cache.stats
    stats.read_hits += read_hits
    stats.write_hits += write_hits
    stats.read_misses += read_misses
    stats.write_misses += write_misses
    stats.evictions += evictions
    stats.dirty_evictions += dirty_evictions
    events = controller.events
    counts = controller.counts
    credit_set_buffer(
        events,
        counts,
        row_words,
        reads=reads,
        bypassed=bypassed,
        writes=writes,
        grouped=grouped,
        silent=silent,
        fills=buffer_fills,
        premature=premature_wb,
        eviction=eviction_wb,
        fill_flush=fill_flush_wb,
        residency_total=residency_total,
        residency_max=residency_max,
        windows=windows,
    )
    if count_mt:
        credit_miss_traffic(
            events, counts, block_reads, dirty_evictions, row_words, wpb
        )


def credit_set_buffer(
    events: "SRAMEventLog",
    counts: "OperationCounts",
    row_words: int,
    *,
    reads: int,
    bypassed: int,
    writes: int,
    grouped: int,
    silent: int,
    fills: int,
    premature: int,
    eviction: int,
    fill_flush: int,
    residency_total: int,
    residency_max: int,
    windows: int,
    final: int = 0,
) -> None:
    """Credit the requests and Set-Buffer traffic of a WG-family run.

    A read the Set-Buffer did not serve (``bypassed``) is one row read
    routing one word; a buffer fill reads a whole row; each write-back
    (``premature``, ``eviction``, ``fill_flush`` and the end-of-run
    ``final``) is a full-row write; every write merges into the
    buffer.  The residency arguments are the dirty windows those
    write-backs closed.
    """
    counts.read_requests += reads
    counts.write_requests += writes
    counts.grouped_writes += grouped
    counts.silent_writes_detected += silent
    counts.bypassed_reads += bypassed
    counts.set_buffer_fills += fills
    counts.premature_writebacks += premature
    counts.eviction_writebacks += eviction
    counts.fill_flush_writebacks += fill_flush
    counts.final_writebacks += final
    counts.dirty_residency_total += residency_total
    if residency_max > counts.dirty_residency_max:
        counts.dirty_residency_max = residency_max
    counts.dirty_windows += windows
    row_reads = reads - bypassed + fills
    row_writes = premature + eviction + fill_flush + final
    events.precharges += row_reads
    events.rwl_pulses += row_reads
    events.row_reads += row_reads
    events.words_routed += reads - bypassed + fills * row_words
    events.wwl_pulses += row_writes
    events.row_writes += row_writes
    events.words_driven += row_writes * row_words
    events.set_buffer_reads += bypassed
    events.set_buffer_writes += writes
