"""Front door: reproduce any paper figure by id."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict

from repro.analysis.area import section54_area
from repro.analysis.estimators import resolve_estimator
from repro.analysis.frequency import figure3_access_frequency
from repro.analysis.power_perf import section55_power_performance
from repro.analysis.reductions import (
    figure10_block_size,
    figure11_cache_size,
    figure9_access_reduction,
)
from repro.analysis.dvfs_energy import dvfs_energy_endgame
from repro.analysis.overheads import overhead_report
from repro.analysis.reliability import reliability_vs_voltage
from repro.analysis.result import FigureResult
from repro.analysis.rmw_overhead import claim_rmw_overhead
from repro.analysis.scenarios import figure4_scenarios
from repro.analysis.silent import figure5_silent_writes
from repro.analysis.traffic import traffic_anatomy
from repro.errors import ValidationError
from repro.utils.memo import ensure_memo_scope

__all__ = ["ESTIMATOR_AWARE_IDS", "FIGURE_IDS", "reproduce_figure"]

_PRODUCERS: Dict[str, Callable[..., FigureResult]] = {
    "fig3": figure3_access_frequency,
    "fig4": figure4_scenarios,
    "fig5": figure5_silent_writes,
    "fig9": figure9_access_reduction,
    "fig10": figure10_block_size,
    "fig11": figure11_cache_size,
    "claim_rmw": claim_rmw_overhead,
    "sec5.4": section54_area,
    "sec5.5": section55_power_performance,
    "reliability": reliability_vs_voltage,
    "dvfs_energy": dvfs_energy_endgame,
    "traffic": traffic_anatomy,
    "overheads": overhead_report,
}

#: Figures whose producers accept an ``estimator=`` registry (the
#: report generator threads one shared registry through these so they
#: share a single estimation-record cache).
ESTIMATOR_AWARE_IDS = ("sec5.4", "sec5.5", "dvfs_energy", "overheads")

FIGURE_IDS = tuple(sorted(_PRODUCERS))
"""Every reproducible figure/table/claim id."""


def reproduce_figure(figure_id: str, **kwargs) -> FigureResult:
    """Reproduce one figure; kwargs forwarded to the producer
    (typically ``accesses=``, ``seed=``, ``benchmarks=``).

    The figure runs in a memo scope (:func:`repro.utils.memo.ensure_memo_scope`:
    a report's, or its own), so it shares traces, timed replays and
    campaign rows derived from one traversal, with bit-identical
    results.  An estimator-aware figure gets its registry resolved
    here, and the registry's new estimation records are appended in
    one batch when the figure ends (see
    :meth:`repro.power.estimator.EstimationRecordCache.batch`).
    """
    try:
        producer = _PRODUCERS[figure_id]
    except KeyError:
        raise ValidationError(
            f"unknown figure {figure_id!r}; known: {list(FIGURE_IDS)}"
        ) from None
    with ensure_memo_scope():
        if figure_id not in ESTIMATOR_AWARE_IDS:
            return producer(**kwargs)
        registry = resolve_estimator(kwargs.pop("estimator", None))
        with registry.cache.batch() if registry.cache is not None else nullcontext():
            return producer(estimator=registry, **kwargs)
