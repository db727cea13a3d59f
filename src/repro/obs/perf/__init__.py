"""repro.obs.perf — the performance-regression observatory.

The repo's north star is "fast as the hardware allows" *as a ratcheted
invariant*: every perf win the engine lands must stay landed.  A single
overwritten snapshot (``BENCH_hotpath.json``) cannot express that — it
answers "how fast now?" but never "is now slower than before, beyond
noise?".  This package closes the loop with four pieces:

``env``
    :func:`environment_fingerprint` — commit, Python version, CPU
    model/count, hostname — stamped onto every measurement so numbers
    from different machines are never silently compared as equals.
``ledger``
    An append-only JSONL history of hot-path benchmark runs
    (``benchmarks/results/bench_history.jsonl`` by default), written by
    ``repro-8t bench --history``.  ``BENCH_hotpath.json`` stays the
    latest-snapshot view; the ledger is the trajectory.
``gates``
    ``repro-8t perf compare`` — a rolling baseline over the last K
    ledger entries with noise bands derived from the same
    mean/standard-deviation statistics as :mod:`repro.sim.stability`.
    The gate is *self-tightening*: as faster runs enter the ledger the
    baseline mean rises and the regression threshold rises with it,
    replacing hand-pinned speedup floors.
``trend``
    ``repro-8t perf report`` — a per-technique trajectory rendered as a
    markdown table with sparkline deltas (``docs/perf-trend.md``).

Gates compare **speedup ratios** (columnar over scalar), not absolute
accesses/sec: a ratio measured on one machine transfers to another,
while raw throughput does not — which is exactly why the ledger also
carries the environment fingerprint for the absolute numbers.
"""

from repro.obs.perf.env import environment_fingerprint, utc_timestamp
from repro.obs.perf.gates import (
    FALLBACK_SPEEDUP_FLOORS,
    GateResult,
    TechniqueGate,
    compare_to_baseline,
)
from repro.obs.perf.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    append_run,
    read_ledger,
    run_record,
)
from repro.obs.perf.trend import render_trend, write_trend_report

__all__ = [
    "environment_fingerprint",
    "utc_timestamp",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "append_run",
    "read_ledger",
    "run_record",
    "FALLBACK_SPEEDUP_FLOORS",
    "GateResult",
    "TechniqueGate",
    "compare_to_baseline",
    "render_trend",
    "write_trend_report",
]
