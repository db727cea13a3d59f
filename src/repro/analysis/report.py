"""One-shot reproduction report.

Runs every registered figure and assembles a single markdown document
with the measured-vs-paper summary — the machine-generated counterpart
of EXPERIMENTS.md.  Used by ``repro-8t report``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.estimators import resolve_estimator
from repro.analysis.figures import (
    ESTIMATOR_AWARE_IDS,
    FIGURE_IDS,
    reproduce_figure,
)
from repro.analysis.result import FigureResult
from repro.obs.spans import span
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.power.estimator import EstimatorRegistry
from repro.utils.memo import memo_scope

__all__ = ["generate_report", "write_report"]

#: Figures that take no trace-length argument.
_PARAMETERLESS = ("sec5.4",)
_SEED_ONLY = ("reliability",)


def generate_report(
    accesses: int = 15_000,
    seed: int = 2012,
    figure_ids: Optional[Sequence[str]] = None,
    telemetry: Optional[Telemetry] = None,
    estimator: Optional[Union[str, EstimatorRegistry]] = None,
) -> str:
    """Reproduce every figure and render one markdown report.

    Each figure runs under a ``figure.<id>`` span; pass ``telemetry``
    to land those phases in a metrics registry or on a trace timeline
    (the per-figure timings in the report itself come from the same
    spans).  ``estimator`` (a backend spec or a ready registry) is
    shared across every estimator-aware figure, so they draw on one
    estimation-record cache.

    The figures run inside one memo scope
    (:func:`repro.utils.memo.memo_scope`) that ends when the report
    does: they share each distinct trace and each distinct timed replay
    instead of recomputing them, with bit-identical results.
    """
    ids = list(figure_ids) if figure_ids else list(FIGURE_IDS)
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    registry = resolve_estimator(estimator, telemetry=telemetry)
    results: Dict[str, FigureResult] = {}
    timings: Dict[str, float] = {}
    with memo_scope():
        for figure_id in ids:
            kwargs: Dict[str, object] = {}
            if figure_id in _SEED_ONLY:
                kwargs["seed"] = seed
            elif figure_id not in _PARAMETERLESS:
                kwargs["accesses"] = accesses
                kwargs["seed"] = seed
            if figure_id in ESTIMATOR_AWARE_IDS:
                kwargs["estimator"] = registry
            with span(
                telem, f"figure.{figure_id}", category="figure"
            ) as timing:
                results[figure_id] = reproduce_figure(figure_id, **kwargs)
            timings[figure_id] = timing.elapsed
    return _render(results, timings, accesses, seed)


def _render(
    results: Dict[str, FigureResult],
    timings: Dict[str, float],
    accesses: int,
    seed: int,
) -> str:
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Paper: *Performance and Power Solutions for Caches Using 8T "
        "SRAM Cells* (Farahani & Baniasadi, MICRO 2012).",
        "",
        f"Settings: {accesses} accesses/benchmark, seed {seed}.  "
        "Regenerate with `repro-8t report`.",
        "",
        "## Summary (measured vs paper)",
        "",
        "| figure | metric | measured | paper |",
        "|---|---|---|---|",
    ]
    for figure_id, result in results.items():
        for key, value in result.summary.items():
            paper = result.paper_values.get(key)
            paper_text = f"{paper:.2f}" if paper is not None else "—"
            lines.append(
                f"| {figure_id} | {key} | {value:.2f} | {paper_text} |"
            )
    lines.append("")
    lines.append("## Figure tables")
    for figure_id, result in results.items():
        lines.append("")
        lines.append(f"### {figure_id}  ({timings[figure_id]:.1f}s)")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
    lines.append("")
    return "\n".join(lines)


def write_report(
    path: Union[str, Path],
    accesses: int = 15_000,
    seed: int = 2012,
    figure_ids: Optional[Sequence[str]] = None,
    telemetry: Optional[Telemetry] = None,
    estimator: Optional[Union[str, EstimatorRegistry]] = None,
) -> Path:
    """Generate and save the report; returns the path."""
    path = Path(path)
    path.write_text(
        generate_report(
            accesses=accesses,
            seed=seed,
            figure_ids=figure_ids,
            telemetry=telemetry,
            estimator=estimator,
        ),
        encoding="utf-8",
    )
    return path
