"""Traffic anatomy: where WG/WG+RB's accesses come from and go.

A drill-down table the paper's aggregate bars cannot show: for each
benchmark, the fate of every write (grouped / silent / buffer fill) and
every Set-Buffer write-back by cause (premature / eviction / fill-flush
/ final), plus the read-bypass rate.  Useful for diagnosing *why* a
workload groups well or badly before touching the knobs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.result import FigureResult
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.perf.timing import timed_replay
from repro.trace.stream import materialize
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import benchmark_names, get_profile

__all__ = ["traffic_anatomy"]


def traffic_anatomy(
    accesses: int = 15_000,
    seed: int = 2012,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    benchmarks: Optional[Sequence[str]] = None,
    technique: str = "wg_rb",
) -> FigureResult:
    """Per-benchmark breakdown of the controller's activity."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    rows = []
    grouped_sum = 0.0
    silent_sum = 0.0
    bypass_sum = 0.0
    for name in names:
        trace = materialize(generate_trace(get_profile(name), accesses, seed=seed))
        counts = timed_replay(trace, technique, geometry)[1].counts
        grouped_sum += counts.grouped_write_fraction
        silent_sum += counts.silent_write_fraction
        bypass_sum += counts.bypassed_read_fraction
        rows.append(
            (
                name,
                100 * counts.grouped_write_fraction,
                100 * counts.silent_write_fraction,
                100 * counts.bypassed_read_fraction,
                counts.premature_writebacks,
                counts.eviction_writebacks,
                counts.fill_flush_writebacks,
                counts.set_buffer_fills,
            )
        )
    count = len(names)
    return FigureResult(
        figure_id="traffic",
        title=(
            f"Traffic anatomy under {technique} at {geometry.describe()}: "
            "write fate (%) and write-back causes (counts)"
        ),
        headers=(
            "benchmark",
            "grouped %",
            "silent %",
            "bypassed %",
            "premature",
            "eviction",
            "fill-flush",
            "fills",
        ),
        rows=rows,
        summary={
            "mean_grouped_pct": 100 * grouped_sum / count,
            "mean_silent_pct": 100 * silent_sum / count,
            "mean_bypassed_pct": 100 * bypass_sum / count,
        },
    )
