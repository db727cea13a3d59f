"""Shared plumbing for the figure-reproduction benchmarks.

Every benchmark reproduces one of the paper's figures/tables, times the
reproduction via pytest-benchmark, prints the figure as a text table
(visible with ``pytest benchmarks/ --benchmark-only -s``) and writes it
to ``benchmarks/results/<figure_id>.txt`` plus a CSV next to it.

Scale knob: set ``REPRO_BENCH_ACCESSES`` (default 12000) to trade
precision for runtime; the paper's qualitative results are stable from
a few thousand accesses per benchmark.  With the knob set, the tables
go to a temporary directory instead, so the tracked ones under
``benchmarks/results/`` only ever hold default-scale numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.export import figure_to_csv
from repro.analysis.result import FigureResult

RESULTS_DIR = Path(__file__).parent / "results"

SCALED = "REPRO_BENCH_ACCESSES" in os.environ

BENCH_ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "12000"))


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    if SCALED:
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Print a reproduced figure and persist it to disk."""

    def _report(result: FigureResult) -> FigureResult:
        text = result.render()
        print()
        print(text)
        (results_dir / f"{result.figure_id.replace('.', '_')}.txt").write_text(
            text + "\n"
        )
        figure_to_csv(
            result, results_dir / f"{result.figure_id.replace('.', '_')}.csv"
        )
        return result

    return _report


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a full-figure reproduction exactly once.

    Campaign-scale reproductions take seconds; pedantic single-round
    timing keeps the harness honest without multiplying runtime.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
