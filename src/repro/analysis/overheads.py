"""The overhead reproduction report — paper claims, verified per backend.

Section 5.4 makes two concrete overhead claims for the baseline cache
(64 KB / 4-way / 32 B, 48-bit addresses): the Set-Buffer is one set
(< 0.2 % of the cache's data bits) and the Tag-Buffer needs fewer than
150 bits.  Section 5.5 claims the buffers *pay for themselves* by
replacing row activations with cheap latch activity.  This report
reproduces all of it from **every** estimator backend independently —
a claim that only holds under one model is not reproduced — and prices
each technique (RMW vs WG vs WG+RB) as energy per architectural
access.

``check_overhead_claims`` is the gate the CLI (``repro-8t power``) and
the CI power-smoke job apply: any backend violating a claim fails the
run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.analysis.estimators import resolve_estimator
from repro.analysis.result import FigureResult
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.errors import ValidationError
from repro.perf.timing import timed_replay
from repro.power.estimator import EstimationQuery, EstimatorRegistry
from repro.sram.events import SRAMEventLog
from repro.utils.memo import ensure_memo_scope
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

__all__ = [
    "overhead_report",
    "check_overhead_claims",
    "SET_BUFFER_OVERHEAD_LIMIT_PCT",
    "TAG_BUFFER_BITS_LIMIT",
]

#: The paper's Section 5.4 bounds.
SET_BUFFER_OVERHEAD_LIMIT_PCT = 0.2
TAG_BUFFER_BITS_LIMIT = 150.0

_TECHNIQUES = ("rmw", "wg", "wg_rb")

#: Small representative workload mix (write-heavy, irregular, and
#: read-heavy) so the report stays fast enough for a CI smoke job.
_DEFAULT_BENCHMARKS = ("bwaves", "mcf", "gamess", "soplex")


def overhead_report(
    accesses: int = 4_000,
    seed: int = 2012,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    node_nm: int = 45,
    cell_kind: str = "8T",
    benchmarks: Optional[Sequence[str]] = None,
    estimator: Optional[Union[str, EstimatorRegistry]] = None,
) -> FigureResult:
    """Area claims + energy per access, one row per estimator backend."""
    registry = resolve_estimator(estimator)
    names = list(benchmarks) if benchmarks else list(_DEFAULT_BENCHMARKS)

    # One traversal per trace (in the open memo scope, so a report's
    # other timed figures share it, or in one of its own), shared by
    # every backend: merge per-technique event logs over the workload
    # mix.
    merged = {technique: SRAMEventLog() for technique in _TECHNIQUES}
    for name in names:
        trace = generate_trace(get_profile(name), accesses, seed=seed)
        with ensure_memo_scope():
            for technique in _TECHNIQUES:
                _, result = timed_replay(trace, technique, geometry)
                merged[technique] += result.events
    total_accesses = accesses * len(names)

    area_query = EstimationQuery.area(
        geometry, cell_kind=cell_kind, node_nm=node_nm
    )
    rows = []
    worst_set_buffer_pct = 0.0
    worst_tag_bits = 0.0
    worst_wgrb_saving_pct: Optional[float] = None
    backend_ids = (
        (registry.forced_backend,)
        if registry.forced_backend is not None
        else registry.backend_ids
    )
    for backend_id in backend_ids:
        try:
            area = registry.estimate(area_query, backend_id=backend_id)
        except ValidationError:
            # This backend does not cover the requested (cell, node);
            # the report covers every backend that *can* answer.
            continue
        per_access = {}
        for technique in _TECHNIQUES:
            estimation = registry.estimate(
                EstimationQuery.dynamic_energy(
                    merged[technique],
                    geometry,
                    cell_kind=cell_kind,
                    node_nm=node_nm,
                ),
                backend_id=backend_id,
            )
            per_access[technique] = estimation["total_fj"] / total_accesses
        set_buffer_pct = 100.0 * area["set_buffer_overhead"]
        tag_bits = area["tag_buffer_bits"]
        wgrb_saving_pct = 100.0 * (
            1.0 - per_access["wg_rb"] / per_access["rmw"]
        )
        worst_set_buffer_pct = max(worst_set_buffer_pct, set_buffer_pct)
        worst_tag_bits = max(worst_tag_bits, tag_bits)
        worst_wgrb_saving_pct = (
            wgrb_saving_pct
            if worst_wgrb_saving_pct is None
            else min(worst_wgrb_saving_pct, wgrb_saving_pct)
        )
        rows.append(
            (
                backend_id,
                set_buffer_pct,
                tag_bits,
                per_access["rmw"],
                per_access["wg"],
                per_access["wg_rb"],
                wgrb_saving_pct,
            )
        )
    return FigureResult(
        figure_id="overheads",
        title=(
            f"Overhead reproduction ({geometry.describe()}, {node_nm} nm "
            f"{cell_kind}): Section 5.4 claims and energy per access, "
            "per estimator backend"
        ),
        headers=(
            "backend",
            "Set-Buffer %",
            "Tag-Buffer bits",
            "RMW fJ/access",
            "WG fJ/access",
            "WG+RB fJ/access",
            "WG+RB saving %",
        ),
        rows=rows,
        summary={
            # Worst case across backends: every backend must sit under
            # the paper's bound for the claim to count as reproduced.
            "set_buffer_overhead_pct": worst_set_buffer_pct,
            "tag_buffer_bits": worst_tag_bits,
            "wgrb_vs_rmw_saving_pct": (
                worst_wgrb_saving_pct
                if worst_wgrb_saving_pct is not None
                else 0.0
            ),
        },
        paper_values={
            "set_buffer_overhead_pct": SET_BUFFER_OVERHEAD_LIMIT_PCT,
            "tag_buffer_bits": TAG_BUFFER_BITS_LIMIT,
        },
    )


def check_overhead_claims(result: FigureResult) -> List[str]:
    """Violations of the paper's overhead claims (empty = all verified).

    Applied to an ``overhead_report`` result by ``repro-8t power`` and
    the CI power-smoke job; each string names one failed claim.
    """
    violations: List[str] = []
    set_buffer_pct = result.summary.get("set_buffer_overhead_pct")
    if set_buffer_pct is None or not result.rows:
        violations.append("report contains no backend rows")
        return violations
    if set_buffer_pct >= SET_BUFFER_OVERHEAD_LIMIT_PCT:
        violations.append(
            f"Set-Buffer overhead {set_buffer_pct:.3f}% breaches the "
            f"paper's <{SET_BUFFER_OVERHEAD_LIMIT_PCT}% claim"
        )
    tag_bits = result.summary.get("tag_buffer_bits", float("inf"))
    if tag_bits >= TAG_BUFFER_BITS_LIMIT:
        violations.append(
            f"Tag-Buffer needs {tag_bits:.0f} bits, breaching the "
            f"paper's <{TAG_BUFFER_BITS_LIMIT:.0f}-bit claim"
        )
    if result.summary.get("wgrb_vs_rmw_saving_pct", 0.0) <= 0.0:
        violations.append(
            "WG+RB does not save dynamic energy vs RMW under at least "
            "one backend"
        )
    return violations
