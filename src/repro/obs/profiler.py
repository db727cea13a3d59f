"""Benchmark profiler — the engine behind ``repro-8t profile``.

Runs one benchmark through a set of techniques with telemetry fully
enabled, structured into the three campaign phases (trace-gen, warm-up,
measure), and packages the result for table rendering: phase timings
from the span counters, the hottest instrumentation counters, and the
per-technique event totals (aggregated with ``SRAMEventLog.__add__``).

This module is intentionally *not* re-exported from ``repro.obs`` —
it imports the simulation stack, which itself imports
``repro.obs.telemetry``, and keeping it out of the package ``__init__``
keeps that dependency a one-way street.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.obs.spans import phase_timings, span
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import SimulationResult, Simulator
from repro.sram.events import SRAMEventLog
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

__all__ = ["ProfileReport", "profile_benchmark"]

DEFAULT_TECHNIQUES = ("conventional", "rmw", "wg", "wg_rb")


@dataclass(frozen=True)
class ProfileReport:
    """Everything ``repro-8t profile`` prints."""

    benchmark: str
    geometry: CacheGeometry
    accesses: int
    results: Dict[str, SimulationResult]
    telemetry: Telemetry = field(repr=False)

    def phase_rows(self) -> List[Tuple[str, int, float, float]]:
        """``(phase, calls, total_s, mean_ms)`` sorted by total time."""
        return phase_timings(self.telemetry.registry)

    def hot_counters(self, n: int = 15) -> List[Tuple[str, float]]:
        """Largest non-span counters — the simulator's hot paths."""
        ranked = [
            (name, value)
            for name, value in self.telemetry.registry.top_counters(n=10_000)
            if not name.startswith("span.")
        ]
        return ranked[:n]

    @property
    def total_events(self) -> SRAMEventLog:
        """Event log summed across all techniques (``__add__`` at work)."""
        return sum(
            (result.events for result in self.results.values()),
            SRAMEventLog(),
        )

    def technique_rows(self) -> List[Tuple[str, int, int, float]]:
        """``(technique, array_accesses, requests, hit_rate_pct)`` rows."""
        return [
            (
                name,
                result.array_accesses,
                result.requests,
                100.0 * result.cache_stats.hit_rate,
            )
            for name, result in self.results.items()
        ]


def profile_benchmark(
    benchmark: str,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    accesses: int = 20_000,
    seed: int = 2012,
    techniques: Sequence[str] = DEFAULT_TECHNIQUES,
    warmup_fraction: float = 0.1,
    telemetry: Optional[Telemetry] = None,
) -> ProfileReport:
    """Profile one benchmark end-to-end with telemetry on.

    A caller-supplied ``telemetry`` is used as-is (so the CLI can point
    its sink at ``--trace-out``); otherwise a metrics-only one is built.
    Runs on the columnar engine that campaigns run on; a live trace
    sink makes it run per access, so each instrumentation point emits
    its instant.
    """
    telem = telemetry if telemetry is not None else Telemetry()
    with span(telem, "trace_gen", benchmark=benchmark, accesses=accesses):
        trace = generate_trace(get_profile(benchmark), accesses, seed=seed)
    warmup = int(accesses * warmup_fraction)
    results: Dict[str, SimulationResult] = {}
    for technique in techniques:
        simulator = Simulator(technique, geometry, telemetry=telem)
        if warmup:
            with span(telem, f"warmup.{technique}", benchmark=benchmark):
                simulator.feed(trace[:warmup])
            simulator.reset_measurements()
        with span(telem, f"measure.{technique}", benchmark=benchmark):
            simulator.feed(trace[warmup:])
        results[technique] = simulator.finish()
    return ProfileReport(
        benchmark=benchmark,
        geometry=geometry,
        accesses=accesses,
        results=results,
        telemetry=telem,
    )
