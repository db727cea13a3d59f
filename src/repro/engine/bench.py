"""Hot-path throughput benchmark: scalar path vs columnar engine.

Replays one synthetic workload through every requested technique —
once through the scalar ``process()`` loop and once through the
columnar ``process_chunk()`` engine — and reports accesses/second for
each.  As a side effect every run cross-checks the two event logs, so
a benchmark run doubles as an end-to-end equivalence check on a real
workload.

Methodology: both are timed on pre-decoded input.  The scalar path
consumes materialized records, the columnar engine pre-built
:class:`ColumnarChunk` arrays with their grouped projection
pre-computed — the projection is a pure trace transform cached on the
chunk and shared across techniques (see
:meth:`repro.engine.columnar.ColumnarChunk.grouped`), so it belongs to
the decode stage the benchmark deliberately excludes.

Entry points: ``repro-8t bench`` (CLI) and
``benchmarks/bench_hotpath.py`` (writes ``BENCH_hotpath.json`` for the
CI perf-smoke job).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.engine.columnar import iter_chunks, process_chunk
from repro.errors import ReproError, ValidationError
from repro.trace.record import MemoryAccess
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.cache import SetAssociativeCache
    from repro.sram.events import SRAMEventLog

__all__ = ["BenchResult", "run_hotpath_bench", "bench_report"]


@dataclass(frozen=True)
class BenchResult:
    """Throughput of one technique on the scalar path and the columnar
    engine."""

    technique: str
    accesses: int
    scalar_seconds: float
    columnar_seconds: float

    @property
    def scalar_aps(self) -> float:
        """Scalar accesses/second."""
        return self.accesses / self.scalar_seconds if self.scalar_seconds else 0.0

    @property
    def columnar_aps(self) -> float:
        """Columnar accesses/second."""
        if not self.columnar_seconds:
            return 0.0
        return self.accesses / self.columnar_seconds

    @property
    def speedup(self) -> float:
        """Columnar over scalar throughput."""
        if not self.columnar_seconds:
            return 0.0
        return self.scalar_seconds / self.columnar_seconds

    def to_dict(self) -> dict:
        return {
            "technique": self.technique,
            "accesses": self.accesses,
            "scalar_seconds": self.scalar_seconds,
            "columnar_seconds": self.columnar_seconds,
            "scalar_accesses_per_second": self.scalar_aps,
            "columnar_accesses_per_second": self.columnar_aps,
            "speedup": self.speedup,
        }


def _time_scalar(
    technique: str, trace: Sequence[MemoryAccess], geometry: CacheGeometry
) -> Tuple[float, "SRAMEventLog"]:
    controller = make_controller(technique, _fresh_cache(geometry))
    process = controller.process
    records = list(trace)  # a column-backed trace builds its records here
    start = time.perf_counter()
    for access in records:
        process(access)
    elapsed = time.perf_counter() - start
    controller.finalize()
    return elapsed, controller.events


def _time_columnar(
    technique: str,
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    batch_size: Optional[int],
) -> Tuple[float, "SRAMEventLog"]:
    controller = make_controller(technique, _fresh_cache(geometry))
    chunks = list(iter_chunks(trace, geometry, batch_size))
    for chunk in chunks:
        chunk.grouped()  # decode-stage projection (see module docstring)
    start = time.perf_counter()
    for chunk in chunks:
        process_chunk(controller, chunk)
    elapsed = time.perf_counter() - start
    controller.finalize()
    return elapsed, controller.events


def _fresh_cache(geometry: CacheGeometry) -> "SetAssociativeCache":
    from repro.cache.cache import SetAssociativeCache

    return SetAssociativeCache(geometry)


def run_hotpath_bench(
    techniques: Optional[Sequence[str]] = None,
    accesses: int = 200_000,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    benchmark: str = "bwaves",
    seed: int = 2012,
    batch_size: Optional[int] = None,
    repeats: int = 3,
) -> List[BenchResult]:
    """Measure scalar and columnar throughput for each technique.

    ``repeats`` runs of each are timed and the *fastest* kept (standard
    microbenchmark practice: the minimum is the least noisy estimator
    of the true cost).  Raises :class:`ReproError` if the two ever
    disagree on the resulting event log.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    names = list(techniques) if techniques is not None else list(CONTROLLER_NAMES)
    trace = generate_trace(get_profile(benchmark), accesses, seed=seed)
    results: List[BenchResult] = []
    for technique in names:
        scalar_best = columnar_best = float("inf")
        scalar_events = columnar_events = None
        for _ in range(repeats):
            elapsed, scalar_events = _time_scalar(technique, trace, geometry)
            scalar_best = min(scalar_best, elapsed)
            elapsed, columnar_events = _time_columnar(
                technique, trace, geometry, batch_size
            )
            columnar_best = min(columnar_best, elapsed)
        if scalar_events != columnar_events:
            raise ReproError(
                f"engine mismatch for {technique!r}: scalar and columnar "
                "event logs differ — the columnar fast path is broken"
            )
        results.append(
            BenchResult(
                technique=technique,
                accesses=len(trace),
                scalar_seconds=scalar_best,
                columnar_seconds=columnar_best,
            )
        )
    return results


def bench_report(
    results: Sequence[BenchResult],
    benchmark: str,
    geometry: CacheGeometry,
    floors: Optional[Dict[str, float]] = None,
    environment: Optional[Dict[str, object]] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """The ``BENCH_hotpath.json`` document.

    ``floors`` maps technique -> minimum acceptable speedup; techniques
    below their floor are listed under ``"regressions"`` (CI fails when
    that list is non-empty).  ``environment`` and ``timestamp`` are
    taken as parameters (this module is determinism-fenced and must not
    read the wall clock itself); callers pass
    ``repro.obs.perf.environment_fingerprint()`` / a UTC timestamp so
    snapshots stay interpretable across machines.
    """
    regressions = []
    if floors:
        for result in results:
            floor = floors.get(result.technique)
            if floor is not None and result.speedup < floor:
                regressions.append(
                    {
                        "technique": result.technique,
                        "speedup": result.speedup,
                        "floor": floor,
                    }
                )
    report: dict = {
        "benchmark": benchmark,
        "geometry": geometry.describe(),
        "results": [result.to_dict() for result in results],
        "regressions": regressions,
    }
    if environment is not None:
        report["environment"] = dict(environment)
    if timestamp is not None:
        report["timestamp_utc"] = timestamp
    return report
