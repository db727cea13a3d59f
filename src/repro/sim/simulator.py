"""Single-technique simulation runner.

``Simulator`` feeds its controller through the columnar engine
(:mod:`repro.engine.columnar`): each chunk becomes NumPy arrays
(:class:`repro.engine.columnar.ColumnarChunk`: views over the columns
of a :class:`repro.trace.columns.TraceColumns`, what the generator and
the trace file readers return) and runs through the technique's
kernel, metrics-only telemetry included.  Whenever no kernel
reproduces the exact semantics, each record of the chunk runs through
:meth:`CacheController.process`, the scalar path and semantics of
record.  Both are bit-identical (``tests/engine/`` and ``repro.check``
prove it).

It is the one replay engine: campaign rows, the profiler and the
timing model (:class:`repro.perf.timing.TimingSimulator`, which asks
:meth:`Simulator.feed` for each request's port-operation code) all
replay through it, and :func:`repro.perf.derive.traverse` feeds one
with the miss trail to derive RMW, WG and WG+RB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.cache.stats import CacheStats
from repro.core.controller import CacheController
from repro.core.outcomes import OperationCounts
from repro.core.registry import make_controller
from repro.engine.batch import AccessBatch
from repro.engine.columnar import ColumnarChunk, iter_chunks, process_chunk
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sram.events import SRAMEventLog
from repro.trace.record import MemoryAccess

__all__ = ["Simulator", "SimulationResult", "run_simulation"]


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
        batch_size: Optional[int] = None,
        **controller_kwargs,
    ) -> None:
        self.memory = memory if memory is not None else FunctionalMemory()
        self.cache = SetAssociativeCache(geometry, self.memory)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.controller: CacheController = make_controller(
            technique, self.cache, telemetry=telemetry, **controller_kwargs
        )
        self.geometry = geometry
        self.batch_size = batch_size
        self._requests = 0

    def feed(
        self,
        trace: Iterable[MemoryAccess],
        misses: Optional[Any] = None,
        codes: Optional[Any] = None,
    ) -> None:
        """Process a stream of accesses (may be called repeatedly).

        Streaming: at most one chunk of decoded records is held at a
        time.  Two optional output arrays as long as ``trace`` collect
        what :func:`repro.engine.columnar.process_chunk` reports per
        request: ``misses``, zeroed bools, is set at each request that
        missed the cache (the miss trail, which only the conventional
        and RMW kernels keep), and ``codes``, u8, receives each
        request's port-operation code (the timing model's input).
        """
        fed = 0
        for chunk in iter_chunks(trace, self.geometry, self.batch_size):
            stop = fed + len(chunk)
            consumed = process_chunk(
                self.controller,
                chunk,
                None if codes is None else codes[fed:stop],
                None if misses is None else misses[fed:stop],
            )
            fed += consumed
            self._requests += consumed

    def feed_batches(self, batches: Iterable[AccessBatch]) -> None:
        """Process pre-decoded :class:`AccessBatch` chunks.

        No reader produces batches any more; this stays only while the
        repo benchmark's tracer (``perfbench/tracer.py``) wraps it by
        name, and goes with :mod:`repro.engine.batch`."""
        for batch in batches:
            self._requests += process_chunk(
                self.controller, ColumnarChunk.from_access_batch(batch)
            )

    def feed_chunks(self, chunks: Iterable[ColumnarChunk]) -> None:
        """Process pre-built columnar chunks.

        :meth:`feed` chunks any trace itself, so no caller in the
        package needs this; it stays while the repo benchmark's tracer
        (``perfbench/tracer.py``) wraps it by name."""
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

    ``batch_size=`` passes through to :class:`Simulator`; everything
    else reaches the controller factory.
    """
    simulator = Simulator(technique, geometry, telemetry=telemetry, **controller_kwargs)
    simulator.feed(trace)
    return simulator.finish()
