"""End-to-end energy: the paper's whole pitch in one table.

The introduction's argument chain, priced out:

* a **6T** cache cannot scale below its read-stability Vmin, so it
  burns high-voltage dynamic energy and leakage — but needs no RMW;
* an **8T** cache runs at its much lower Vmin, slashing per-access
  energy and leakage — but bit interleaving forces RMW, clawing back
  dynamic energy through extra array accesses;
* **8T + WG+RB** keeps the low voltage *and* eliminates most of the RMW
  tax: the configuration the paper is arguing for.

For each benchmark this analysis runs the matching controller, charges
dynamic energy from its event log at the cell's floor voltage, and adds
leakage integrated over the run's elapsed cycles (from the timing
model, at the floor level's frequency).  The result is total cache
energy per configuration — who wins, and by how much.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.analysis.estimators import resolve_estimator
from repro.analysis.result import FigureResult
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.perf.timing import timed_replay
from repro.power.estimator import EstimationQuery, EstimatorRegistry
from repro.power.params import TECH_45NM, TechnologyParams
from repro.power.voltage import DVFSController
from repro.trace.stream import materialize
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import benchmark_names, get_profile

__all__ = ["dvfs_energy_endgame"]

#: The three configurations the paper's introduction compares.
_CONFIGS = (
    ("6T @ 6T-Vmin", "conventional", "6T"),
    ("8T+RMW @ 8T-Vmin", "rmw", "8T"),
    ("8T+WG+RB @ 8T-Vmin", "wg_rb", "8T"),
)


def dvfs_energy_endgame(
    accesses: int = 10_000,
    seed: int = 2012,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    technology: TechnologyParams = TECH_45NM,
    benchmarks: Optional[Sequence[str]] = None,
    estimator: Optional[Union[str, EstimatorRegistry]] = None,
) -> FigureResult:
    """Total (dynamic + leakage) cache energy per configuration."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    registry = resolve_estimator(estimator)

    floors = {}
    for label, technique, cell in _CONFIGS:
        controller = DVFSController(technology, cell)
        floors[label] = controller.lowest_level()

    rows = []
    totals = {label: 0.0 for label, _, _ in _CONFIGS}
    for name in names:
        trace = materialize(generate_trace(get_profile(name), accesses, seed=seed))
        row = [name]
        for label, technique, cell in _CONFIGS:
            level = floors[label]
            # One controller run gives the event log and the elapsed time.
            perf, result = timed_replay(trace, technique, geometry)
            dynamic_fj = registry.estimate(
                EstimationQuery.dynamic_energy(
                    result.events,
                    geometry,
                    cell_kind=cell,
                    node_nm=technology.node_nm,
                    vdd_mv=level.vdd_mv,
                )
            )["total_fj"]
            elapsed_seconds = perf.elapsed_cycles / (
                level.frequency_ghz * 1e9
            )
            leakage_uw = registry.estimate(
                EstimationQuery.leakage_power(
                    geometry,
                    cell_kind=cell,
                    node_nm=technology.node_nm,
                    vdd_mv=level.vdd_mv,
                )
            )["power_uw"]
            leakage_fj = (
                leakage_uw
                * 1e-6  # uW -> W
                * elapsed_seconds
                * 1e15  # J -> fJ
            )
            total_nj = (dynamic_fj + leakage_fj) * 1e-6
            totals[label] += total_nj
            row.append(total_nj)
        rows.append(tuple(row))
    count = len(names)
    rows.append(("AVG",) + tuple(totals[label] / count for label, _, _ in _CONFIGS))

    mean_6t = totals["6T @ 6T-Vmin"] / count
    mean_rmw = totals["8T+RMW @ 8T-Vmin"] / count
    mean_wgrb = totals["8T+WG+RB @ 8T-Vmin"] / count
    return FigureResult(
        figure_id="dvfs_energy",
        title=(
            "Endgame: total cache energy per benchmark run (nJ), each "
            "cell at its Vmin DVFS floor"
        ),
        headers=("benchmark",) + tuple(label for label, _, _ in _CONFIGS),
        rows=rows,
        summary={
            "mean_6t_nj": mean_6t,
            "mean_8t_rmw_nj": mean_rmw,
            "mean_8t_wgrb_nj": mean_wgrb,
            "wgrb_vs_6t_saving_pct": 100.0 * (1 - mean_wgrb / mean_6t),
            "wgrb_vs_rmw_saving_pct": 100.0 * (1 - mean_wgrb / mean_rmw),
        },
    )
