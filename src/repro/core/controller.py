"""Controller base class.

A controller owns a :class:`SetAssociativeCache` and translates each
:class:`MemoryAccess` into SRAM array operations, recording them in an
:class:`SRAMEventLog`.  Residency (miss handling) is common to all
controllers; the array-level read/write behaviour is what the concrete
subclasses implement — that is where the paper's techniques live.

Miss-traffic accounting
-----------------------
The paper's evaluation counts *request-level* array accesses and does
not discuss fills or dirty evictions (reasonable for a 64 KB L1 over
SPEC, where miss rates are small).  We follow that by default; setting
``count_miss_traffic=True`` additionally charges each fill as an RMW
(a block write is a partial-row write) and each dirty eviction as a row
read, which the ablation benchmark uses to show the conclusions are
unchanged.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.core.outcomes import AccessOutcome, OperationCounts
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sram.events import SRAMEventLog
from repro.trace.record import MemoryAccess
from repro.errors import StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.invariants import InvariantChecker

__all__ = ["CacheController"]


class CacheController(abc.ABC):
    """Base for all array-access policies."""

    #: Short registry name, set by subclasses.
    name: str = "abstract"

    #: Registry name whose semantics a columnar kernel implements, or
    #: None when no kernel does.  The columnar engine's gate
    #: (:func:`repro.engine.columnar._kernel_for`) requires ``self.name``
    #: to match, so a subclass that changes behaviour (and therefore
    #: ``name``) runs per access through :meth:`process` instead of
    #: inheriting a kernel that no longer matches it.
    _fast_path_name: Optional[str] = None

    #: ``(OperationCounts field, instrumentation point)`` pairs for which
    #: the scalar path emits ``ctrl.<name>.<point>`` exactly once per unit
    #: the field grows.  The columnar engine never calls :meth:`process`,
    #: so it credits the points from these deltas instead (see
    #: :meth:`_add_telemetry_deltas`).
    _counted_points: Tuple[Tuple[str, str], ...] = ()

    def __init__(
        self,
        cache: SetAssociativeCache,
        count_miss_traffic: bool = False,
    ) -> None:
        self.cache = cache
        self.events = SRAMEventLog()
        self.counts = OperationCounts()
        self.count_miss_traffic = count_miss_traffic
        self._row_words = cache.geometry.words_per_set
        self._finalized = False
        self._current_icount = 0
        # Observability plane: off by default (one boolean test per
        # request); Simulator/make_controller attach a live one.
        self.telemetry: Telemetry = NULL_TELEMETRY
        self._obs = False
        # Debug plane: structural invariant checks after each access
        # (repro.check.invariants); None keeps the hot path at a single
        # is-None test per request.
        self._invariant_checker = None

    # -- observability ---------------------------------------------------------

    def attach_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """Point this controller's instrumentation at ``telemetry``.

        Pre-binds the per-request counters so the hot loop pays one
        bound-method call per increment, never a registry lookup.
        Passing None (or a disabled telemetry) turns instrumentation
        back off.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._obs = self.telemetry.enabled
        if self._obs:
            # Spelled as whole f-strings (not prefix + tail) so the
            # RPR131 metric-name cross-reference can resolve each name
            # statically against repro/obs/names.py.
            registry = self.telemetry.registry
            self._c_reads = registry.counter(f"ctrl.{self.name}.read_requests")
            self._c_writes = registry.counter(f"ctrl.{self.name}.write_requests")
            self._c_hits = registry.counter(f"ctrl.{self.name}.hits")
            self._c_misses = registry.counter(f"ctrl.{self.name}.misses")

    def reset_telemetry_counters(self) -> None:
        """Zero this controller's pre-bound registry counters.

        ``Simulator.reset_measurements`` calls this so warm-up requests
        never leak into the measured slice on the metrics plane (the
        event/count objects are *replaced* there, but registry counters
        are shared live objects and must be reset in place).
        """
        if not self._obs:
            return
        prefix = f"ctrl.{self.name}."
        for counter in self.telemetry.registry.counters():
            if counter.name.startswith(prefix):
                counter.value = 0

    def _telemetry_marks(self) -> Tuple[int, ...]:
        """Cumulative values the metrics plane is derived from.

        An engine that bypasses :meth:`process` takes these before a
        kernel call and hands them to :meth:`_add_telemetry_deltas`
        after it.
        """
        counts = self.counts
        stats = self.cache.stats
        return (
            counts.read_requests,
            counts.write_requests,
            stats.hits,
            stats.misses,
        ) + tuple(getattr(counts, field) for field, _ in self._counted_points)

    def _add_telemetry_deltas(self, marks: Tuple[int, ...]) -> None:
        """Credit the registry with everything processed since ``marks``.

        Adds exactly what the per-access increments of the scalar path
        add up to: the four pre-bound request counters, plus one
        ``ctrl.<name>.<point>`` counter per counted point, created only
        when its delta is non-zero — as :meth:`_emit_point` creates it
        on first emission.
        """
        reads, writes, hits, misses, *points = marks
        counts = self.counts
        stats = self.cache.stats
        self._c_reads.inc(counts.read_requests - reads)
        self._c_writes.inc(counts.write_requests - writes)
        self._c_hits.inc(stats.hits - hits)
        self._c_misses.inc(stats.misses - misses)
        registry = self.telemetry.registry
        for (field, point), before in zip(self._counted_points, points):
            delta = getattr(counts, field) - before
            if delta:
                registry.inc(f"ctrl.{self.name}.{point}", delta)

    def _emit_point(self, name: str, **args: object) -> None:
        """One named instrumentation point: counter + trace instant.

        Call sites guard with ``if self._obs`` so the uninstrumented
        path never even builds the arguments.
        """
        self.telemetry.registry.inc(f"ctrl.{self.name}.{name}")
        sink = self.telemetry.sink
        if sink.enabled:
            args["icount"] = self._current_icount
            sink.instant(f"{self.name}.{name}", category="controller", args=args)

    def _observe(self, access: MemoryAccess, result: AccessResult) -> None:
        """Per-request accounting on the metrics plane (obs on only)."""
        if access.is_read:
            self._c_reads.inc()
        else:
            self._c_writes.inc()
        if result.hit:
            self._c_hits.inc()
        else:
            self._c_misses.inc()
        sampler = self.telemetry.sampler
        if sampler is not None:
            sampler.tick(self)

    def set_buffer_occupancy(self) -> int:
        """Modified words currently held outside the array (0 unless a
        buffering controller overrides this)."""
        return 0

    # -- debug mode ------------------------------------------------------------

    def enable_invariant_checks(self, every: int = 1) -> "InvariantChecker":
        """Audit structural invariants after every ``every``-th access.

        Debug mode for the correctness tooling (``docs/correctness.md``):
        each :meth:`process` call is followed by a full structural check
        of the cache slot arrays and any WG-family buffers, raising
        :class:`repro.errors.InvariantViolation` at the first access
        that breaks one.  Checks are read-only — results are unchanged,
        only slower: the columnar engine runs every access through
        :meth:`process` so each one is audited.  Returns the
        installed :class:`repro.check.invariants.InvariantChecker`.
        """
        from repro.check.invariants import InvariantChecker

        self._invariant_checker = InvariantChecker(every=every)
        return self._invariant_checker

    def disable_invariant_checks(self) -> None:
        """Turn debug-mode invariant checking back off."""
        self._invariant_checker = None

    # -- public API -----------------------------------------------------------

    def process(self, access: MemoryAccess) -> AccessOutcome:
        """Handle one request end-to-end and return its outcome."""
        if self._finalized:
            raise StateError("controller already finalized")
        if access.is_read:
            self.counts.read_requests += 1
        else:
            self.counts.write_requests += 1
        self._current_icount = access.icount

        self._before_residency(access)
        result = self.cache.ensure_resident(access)
        if result.filled:
            self._account_miss_traffic(result)

        if access.is_read:
            outcome = self._handle_read(access, result)
        else:
            outcome = self._handle_write(access, result)
        if self._obs:
            self._observe(access, result)
        if self._invariant_checker is not None:
            self._invariant_checker.after_access(self)
        return outcome

    def run(
        self,
        trace: Iterable[MemoryAccess],
        collect_outcomes: bool = True,
    ) -> Optional[List[AccessOutcome]]:
        """Process a whole trace, finalize, and return per-access outcomes.

        ``collect_outcomes=False`` streams instead: outcomes are
        discarded as they are produced and the call returns None, so a
        campaign-length trace costs O(1) memory here instead of one
        retained :class:`AccessOutcome` per access.
        """
        if collect_outcomes:
            outcomes: Optional[List[AccessOutcome]] = [
                self.process(access) for access in trace
            ]
        else:
            outcomes = None
            process = self.process
            for access in trace:
                process(access)
        self.finalize()
        return outcomes

    def finalize(self) -> None:
        """Drain any controller-private state (e.g. a dirty Set-Buffer).

        Idempotent; must be called before comparing memory contents
        against an oracle.
        """
        if not self._finalized:
            self._drain()
            self._finalized = True

    # -- template methods -------------------------------------------------------

    @abc.abstractmethod
    def _handle_read(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        """Array-level behaviour of a read request."""

    @abc.abstractmethod
    def _handle_write(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        """Array-level behaviour of a write request."""

    def _before_residency(self, access: MemoryAccess) -> None:
        """Hook before miss handling; WG flushes its buffer here when a
        fill is about to change the buffered set."""

    def _drain(self) -> None:
        """Hook to flush controller-private state at end of run."""

    # -- shared helpers -----------------------------------------------------------

    def _word_in_row(self, result: AccessResult) -> int:
        """Column (word) position of the access within its array row."""
        return result.way * self.cache.geometry.words_per_block + result.word_offset

    def _account_miss_traffic(self, result: AccessResult) -> None:
        if not self.count_miss_traffic:
            return
        if result.evicted_dirty:
            # Reading the victim block out of the array for write-back.
            self.events.record_row_read(
                words_routed=self.cache.geometry.words_per_block
            )
        # Installing the fill is a partial-row write => RMW on an
        # interleaved array.
        self.events.record_rmw(row_words=self._row_words)
        self.counts.rmw_operations += 1

    @property
    def array_accesses(self) -> int:
        """Row activations so far — the paper's cache-access count."""
        return self.events.array_accesses
