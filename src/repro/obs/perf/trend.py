"""Trend report: per-technique trajectories rendered as markdown.

``repro-8t perf report`` turns the bench-history ledger into
``docs/perf-trend.md``: one summary row per technique (latest speedup,
delta against the previous run, rolling mean, best-ever, and a
sparkline of the whole windowed trajectory) plus a recent-runs table
with per-run provenance (commit, host) so a jump in the curve can be
traced to the machine or commit that caused it.  Only current-schema
ledger records are trended (:attr:`LedgerEntry.current_schema`).

Sparklines use the eight U+2581..U+2588 block glyphs, min-max
normalised per technique — they show the *shape* of the trajectory;
exact numbers live in the tables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ValidationError
from repro.obs.perf.ledger import LEDGER_SCHEMA_VERSION, LedgerEntry
from repro.sim.stability import StabilityResult

__all__ = ["sparkline", "render_trend", "write_trend_report"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Min-max normalised block-glyph sparkline (empty for no values)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _BLOCKS[3] * len(values)
    scale = (len(_BLOCKS) - 1) / (high - low)
    return "".join(_BLOCKS[round((v - low) * scale)] for v in values)


def _delta(current: float, previous: Optional[float]) -> str:
    """``▲ +0.12x`` / ``▼ -0.08x`` / ``· first run``."""
    if previous is None:
        return "· first run"
    diff = current - previous
    if abs(diff) < 0.005:
        return f"· {diff:+.2f}x"
    arrow = "▲" if diff > 0 else "▼"
    return f"{arrow} {diff:+.2f}x"


def _fmt_aps(value: Optional[float]) -> str:
    return f"{value:,.0f}/s" if value else "-"


def _technique_series(
    entries: Sequence[LedgerEntry],
) -> Dict[str, List[float]]:
    """``technique -> speedups in ledger order`` (absences skipped)."""
    series: Dict[str, List[float]] = {}
    for entry in entries:
        for technique in entry.techniques:
            speedup = entry.speedup(technique)
            if speedup is not None:
                series.setdefault(technique, []).append(speedup)
    return series


def render_trend(
    entries: Sequence[LedgerEntry],
    window: int = 20,
    recent_runs: int = 10,
) -> str:
    """The full markdown document for ``docs/perf-trend.md``.

    ``entries`` is the parsed ledger, oldest first.  ``window`` bounds
    the per-technique trajectory (and its rolling statistics);
    ``recent_runs`` bounds the provenance table.
    """
    if window < 1 or recent_runs < 1:
        raise ValidationError("window and recent_runs must be >= 1")
    entries = [entry for entry in entries if entry.current_schema]
    lines = [
        "# Hot-path performance trend",
        "",
        "Generated by `repro-8t perf report` from the bench-history "
        "ledger (`benchmarks/results/bench_history.jsonl`). Do not edit "
        "by hand; see `docs/performance.md` for the ledger workflow and "
        "the noise-band methodology behind `repro-8t perf compare`.",
        "",
    ]
    if not entries:
        lines += [
            f"*(the ledger is empty — no schema-{LEDGER_SCHEMA_VERSION} runs; "
            "run `repro-8t bench --history`)*",
            "",
        ]
        return "\n".join(lines)

    windowed = list(entries[-window:])
    latest = entries[-1]
    lines += [
        f"Ledger runs: **{len(entries)}** (showing the last "
        f"{len(windowed)}). Latest run: {latest.short_timestamp} UTC, "
        f"commit `{latest.short_commit}`, host `{latest.hostname}`, "
        f"workload `{latest.benchmark}` x {latest.accesses:,} accesses "
        f"on `{latest.geometry}`.",
        "",
        "## Per-technique trajectory (columnar/scalar speedup)",
        "",
        "| technique | latest | delta vs prev | rolling mean | std | "
        "best | trajectory |",
        "|---|---|---|---|---|---|---|",
    ]
    series = _technique_series(windowed)
    for technique in sorted(series):
        speedups = series[technique]
        stats = StabilityResult(
            technique=technique, per_seed_means=tuple(speedups)
        )
        previous = speedups[-2] if len(speedups) >= 2 else None
        lines.append(
            f"| {technique} | {speedups[-1]:.2f}x | "
            f"{_delta(speedups[-1], previous)} | {stats.mean:.2f}x | "
            f"{stats.std:.3f} | {max(speedups):.2f}x | "
            f"`{sparkline(speedups)}` |"
        )
    lines += [
        "",
        "## Recent runs",
        "",
        "Absolute accesses/sec are machine-bound — read them together "
        "with the host column; the gates in `repro-8t perf compare` "
        "only ever judge the speedup ratio.",
        "",
        "| when (UTC) | commit | host | "
        + " | ".join(
            f"{technique} (columnar acc/s)" for technique in sorted(series)
        )
        + " |",
        "|---|---|---|" + "---|" * len(series),
    ]
    for entry in windowed[-recent_runs:]:
        cells = []
        for technique in sorted(series):
            speedup = entry.speedup(technique)
            if speedup is None:
                cells.append("-")
            else:
                cells.append(
                    f"{speedup:.2f}x ({_fmt_aps(entry.columnar_aps(technique))})"
                )
        lines.append(
            f"| {entry.short_timestamp} | `{entry.short_commit}` | "
            f"`{entry.hostname}` | " + " | ".join(cells) + " |"
        )
    lines.append("")
    return "\n".join(lines)


def write_trend_report(
    path: Union[str, Path],
    entries: Sequence[LedgerEntry],
    window: int = 20,
    recent_runs: int = 10,
) -> Path:
    """Render and write the trend report; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        render_trend(entries, window=window, recent_runs=recent_runs),
        encoding="utf-8",
    )
    return path
