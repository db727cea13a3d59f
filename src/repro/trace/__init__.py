"""Memory-trace substrate (the reproduction's stand-in for Pin).

The paper drives its L1-D cache simulator with traces produced by a Pin
tool over SPEC CPU2006.  This package provides the trace plumbing:

``record``
    The :class:`MemoryAccess` record and :class:`AccessType` enum.
``columns``
    :class:`TraceColumns` — an in-memory trace held as four columns
    that behaves like a list of records and builds them only on first
    per-record use (what the synthetic generator returns).
``stream``
    Lazy stream transformers — warm-up skipping (the paper fast-forwards
    1 B instructions), length limits and sampling.
``textio`` / ``binio``
    Human-readable and packed binary trace file formats.
``colio``
    Columnar ``RPCOL1`` trace format — mmap-backed, zero-copy column
    views for the columnar engine; workers share one mapping.
``stats``
    :class:`TraceStatistics` — computes exactly the quantities behind the
    paper's Figures 3 (read/write frequency), 4 (consecutive same-set
    scenario breakdown) and 5 (silent-write frequency).
"""

from repro.trace.record import AccessType, MemoryAccess, WORD_BYTES, word_address
from repro.trace.columns import TraceColumns
from repro.trace.stream import (
    limit_accesses,
    materialize,
    sample_accesses,
    skip_warmup,
)
from repro.trace.stats import ScenarioBreakdown, TraceStatistics, collect_statistics
from repro.trace.textio import (
    read_text_trace,
    read_text_trace_batches,
    write_text_trace,
)
from repro.trace.binio import (
    read_binary_trace,
    read_binary_trace_batches,
    write_binary_trace,
)
from repro.trace.colio import (
    ColumnarTrace,
    convert_trace_to_columnar,
    open_columnar_trace,
    write_columnar_trace,
)

__all__ = [
    "AccessType",
    "MemoryAccess",
    "WORD_BYTES",
    "word_address",
    "TraceColumns",
    "skip_warmup",
    "limit_accesses",
    "sample_accesses",
    "materialize",
    "TraceStatistics",
    "ScenarioBreakdown",
    "collect_statistics",
    "read_text_trace",
    "read_text_trace_batches",
    "write_text_trace",
    "read_binary_trace",
    "read_binary_trace_batches",
    "write_binary_trace",
    "ColumnarTrace",
    "convert_trace_to_columnar",
    "open_columnar_trace",
    "write_columnar_trace",
]
