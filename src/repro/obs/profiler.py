"""Benchmark profiler — the engine behind ``repro-8t profile``.

Runs one benchmark as a campaign row (:func:`repro.sim.campaign.execute_row`)
with telemetry fully enabled, so it times the row that campaigns ship:
its ``trace_gen``, ``warmup.<technique>`` and ``measure.<technique>``
spans.  It packages the result for table rendering: phase timings from
the span counters, the hottest instrumentation counters, and the
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
from repro.obs.spans import phase_timings
from repro.obs.telemetry import Telemetry
from repro.sim.campaign import execute_row
from repro.sim.experiment import ExperimentConfig
from repro.sim.simulator import SimulationResult
from repro.sram.events import SRAMEventLog

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
    The row runs as a campaign's does: on the columnar engine, one
    :class:`repro.sim.simulator.Simulator` per technique, because an
    observed row derives nothing; a live trace sink makes it run per
    access, so each instrumentation point emits its instant.
    """
    telem = telemetry if telemetry is not None else Telemetry()
    config = ExperimentConfig(
        geometry=geometry,
        benchmarks=(benchmark,),
        techniques=tuple(techniques),
        accesses_per_benchmark=accesses,
        warmup_fraction=warmup_fraction,
        seed=seed,
    )
    return ProfileReport(
        benchmark=benchmark,
        geometry=geometry,
        accesses=accesses,
        results=execute_row(benchmark, config, telem).results,
        telemetry=telem,
    )
