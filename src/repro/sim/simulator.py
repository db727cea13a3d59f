"""Single-technique simulation runner.

Execution engines
-----------------
``Simulator`` feeds its controller through one of three engines:

* ``"columnar"`` (default) — chunks become NumPy arrays
  (:class:`repro.engine.columnar.ColumnarChunk`: views over the columns
  of a :class:`repro.trace.columns.TraceColumns`, zero-copy when read
  from an ``RPCOL1`` mmap via :mod:`repro.trace.colio`) and the hot
  path runs vectorized kernels, metrics-only telemetry included.  A
  chunk falls back to the batched engine whenever exact semantics
  require it (see :mod:`repro.engine.columnar`).
* ``"batched"`` — the trace is chunked into struct-of-arrays
  :class:`repro.engine.batch.AccessBatch` objects and handed to
  :meth:`CacheController.process_batch`, which runs the technique's
  specialised batched fast path when available.  The columnar engine's
  fallback, and one leg of the differential suite.
* ``"scalar"`` — one :meth:`CacheController.process` call per record;
  the reference path the differential suite compares against.

All three are bit-identical (``tests/engine/`` and ``repro.check``
prove it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.cache.stats import CacheStats
from repro.core.controller import CacheController
from repro.core.outcomes import OperationCounts
from repro.core.registry import make_controller
from repro.engine.batch import AccessBatch, iter_batches
from repro.engine.columnar import ColumnarChunk, iter_chunks, process_chunk
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sram.events import SRAMEventLog
from repro.trace.record import MemoryAccess
from repro.errors import ValidationError

__all__ = ["Simulator", "SimulationResult", "run_simulation"]

_ENGINES = ("batched", "scalar", "columnar")


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured from one (trace, technique) run."""

    technique: str
    geometry: CacheGeometry
    requests: int
    events: SRAMEventLog
    counts: OperationCounts
    cache_stats: CacheStats

    @property
    def array_accesses(self) -> int:
        """The paper's cache-access count for this run."""
        return self.events.array_accesses

    @property
    def accesses_per_request(self) -> float:
        return self.array_accesses / self.requests if self.requests else 0.0


class Simulator:
    """Owns one controller + cache + memory and feeds it a trace."""

    def __init__(
        self,
        technique: str,
        geometry: CacheGeometry,
        memory: Optional[FunctionalMemory] = None,
        telemetry: Optional[Telemetry] = None,
        engine: str = "columnar",
        batch_size: Optional[int] = None,
        **controller_kwargs,
    ) -> None:
        if engine not in _ENGINES:
            raise ValidationError(
                f"unknown engine {engine!r}; known: {_ENGINES}"
            )
        self.memory = memory if memory is not None else FunctionalMemory()
        self.cache = SetAssociativeCache(geometry, self.memory)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.controller: CacheController = make_controller(
            technique, self.cache, telemetry=telemetry, **controller_kwargs
        )
        self.geometry = geometry
        self.engine = engine
        self.batch_size = batch_size
        self._requests = 0

    def feed(self, trace: Iterable[MemoryAccess]) -> None:
        """Process a stream of accesses (may be called repeatedly).

        Streaming on every engine: the columnar and batched engines
        hold at most one chunk of decoded records at a time.
        """
        if self.engine == "scalar":
            process = self.controller.process
            for access in trace:
                process(access)
                self._requests += 1
            return
        if self.engine == "columnar":
            for chunk in iter_chunks(trace, self.geometry, self.batch_size):
                self._requests += process_chunk(self.controller, chunk)
            return
        process_batch = self.controller.process_batch
        for batch in iter_batches(trace, self.geometry, self.batch_size):
            self._requests += process_batch(batch)

    def feed_batches(self, batches: Iterable[AccessBatch]) -> None:
        """Process pre-decoded batches (e.g. from
        :func:`repro.trace.read_binary_trace_batches`)."""
        if self.engine == "columnar":
            for batch in batches:
                self._requests += process_chunk(
                    self.controller, ColumnarChunk.from_access_batch(batch)
                )
            return
        process_batch = self.controller.process_batch
        for batch in batches:
            self._requests += process_batch(batch)

    def feed_chunks(self, chunks: Iterable[ColumnarChunk]) -> None:
        """Process pre-built columnar chunks (e.g. zero-copy views from
        :meth:`repro.trace.colio.ColumnarTrace.chunks`)."""
        for chunk in chunks:
            self._requests += process_chunk(self.controller, chunk)

    def reset_measurements(self) -> None:
        """Zero all counters while keeping cache/controller *state*.

        Used to implement warm-up: feed the warm-up slice, reset, then
        feed the measured slice — the paper's fast-forward, in miniature.
        Resets the telemetry plane too: the controller's pre-bound
        registry counters are shared live objects, so they are zeroed
        in place rather than replaced.
        """
        self.controller.events = SRAMEventLog()
        self.controller.counts = OperationCounts()
        self.controller.reset_telemetry_counters()
        self.cache.stats = CacheStats()
        self._requests = 0

    def finish(self) -> SimulationResult:
        """Finalize the controller and snapshot the results."""
        self.controller.finalize()
        return SimulationResult(
            technique=self.controller.name,
            geometry=self.geometry,
            requests=self._requests,
            events=self.controller.events.copy(),
            counts=self.controller.counts,
            cache_stats=self.cache.stats,
        )


def run_simulation(
    trace: Iterable[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    telemetry: Optional[Telemetry] = None,
    **controller_kwargs,
) -> SimulationResult:
    """Convenience: build a simulator, run the trace, return the result.

    ``engine=`` / ``batch_size=`` pass through to :class:`Simulator`;
    everything else reaches the controller factory.
    """
    simulator = Simulator(technique, geometry, telemetry=telemetry, **controller_kwargs)
    simulator.feed(trace)
    return simulator.finish()
