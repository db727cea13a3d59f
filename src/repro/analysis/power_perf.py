"""Section 5.5 — power and performance directions.

The paper forecasts (without measuring): WG's write-latency cost is off
the critical path and negligible; WG+RB *improves* read latency because
Set-Buffer hits are faster than array reads; both techniques cut power
because they replace full-array activations with small-buffer activity.

This module quantifies all three with the energy model and the
port-contention timing model.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.analysis.estimators import resolve_estimator
from repro.analysis.result import FigureResult
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.errors import ValidationError
from repro.perf.timing import timed_replay
from repro.power.estimator import EstimationQuery, EstimatorRegistry
from repro.power.params import TECH_45NM, TechnologyParams
from repro.utils.memo import ensure_memo_scope
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import benchmark_names, get_profile

__all__ = ["section55_power_performance"]

_TECHNIQUES = ("rmw", "wg", "wg_rb")


def section55_power_performance(
    accesses: int = 15_000,
    seed: int = 2012,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    technology: TechnologyParams = TECH_45NM,
    benchmarks: Optional[Sequence[str]] = None,
    estimator: Optional[Union[str, EstimatorRegistry]] = None,
) -> FigureResult:
    """Energy savings and read-latency effects of WG / WG+RB vs RMW."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    registry = resolve_estimator(estimator)

    def total_fj(events) -> float:
        estimation = registry.estimate(
            EstimationQuery.dynamic_energy(
                events, geometry, cell_kind="8T", node_nm=technology.node_nm
            )
        )
        return estimation["total_fj"]

    rows = []
    sums = {"wg_energy": 0.0, "wgrb_energy": 0.0, "rmw_lat": 0.0,
            "wg_lat": 0.0, "wgrb_lat": 0.0}
    for name in names:
        trace = generate_trace(get_profile(name), accesses, seed=seed)
        # One traversal serves the three techniques (in the open memo
        # scope, or in one of its own), and each timed replay gives both
        # the timing and the event log the energy comes from.
        with ensure_memo_scope():
            replays = {t: timed_replay(trace, t, geometry) for t in _TECHNIQUES}
        energy_fj = {}
        latency = {}
        for technique, (perf, result) in replays.items():
            latency[technique] = perf.mean_read_latency
            energy_fj[technique] = total_fj(result.events)
        baseline_fj = energy_fj["rmw"]
        if baseline_fj == 0:
            raise ValidationError(
                f"benchmark {name!r}: RMW baseline has zero dynamic "
                "energy; savings fractions are undefined"
            )
        wg_saving = 1.0 - energy_fj["wg"] / baseline_fj
        wgrb_saving = 1.0 - energy_fj["wg_rb"] / baseline_fj
        rmw_latency = latency["rmw"]
        wg_latency = latency["wg"]
        wgrb_latency = latency["wg_rb"]
        sums["wg_energy"] += wg_saving
        sums["wgrb_energy"] += wgrb_saving
        sums["rmw_lat"] += rmw_latency
        sums["wg_lat"] += wg_latency
        sums["wgrb_lat"] += wgrb_latency
        rows.append(
            (
                name,
                100.0 * wg_saving,
                100.0 * wgrb_saving,
                rmw_latency,
                wg_latency,
                wgrb_latency,
            )
        )
    count = len(names)
    rows.append(
        (
            "AVG",
            100.0 * sums["wg_energy"] / count,
            100.0 * sums["wgrb_energy"] / count,
            sums["rmw_lat"] / count,
            sums["wg_lat"] / count,
            sums["wgrb_lat"] / count,
        )
    )
    return FigureResult(
        figure_id="sec5.5",
        title=(
            "Section 5.5: dynamic-energy saving vs RMW (%) and mean read "
            "latency (cycles)"
        ),
        headers=(
            "benchmark",
            "WG energy",
            "WG+RB energy",
            "RMW read lat",
            "WG read lat",
            "WG+RB read lat",
        ),
        rows=rows,
        summary={
            "mean_wg_energy_saving_pct": 100.0 * sums["wg_energy"] / count,
            "mean_wgrb_energy_saving_pct": 100.0 * sums["wgrb_energy"] / count,
            "mean_rmw_read_latency": sums["rmw_lat"] / count,
            "mean_wgrb_read_latency": sums["wgrb_lat"] / count,
        },
    )
