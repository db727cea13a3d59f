"""Memory-trace substrate (the reproduction's stand-in for Pin).

The paper drives its L1-D cache simulator with traces produced by a Pin
tool over SPEC CPU2006.  This package provides the trace plumbing:

``record``
    The :class:`MemoryAccess` record and :class:`AccessType` enum.
``columns``
    :class:`TraceColumns` — an in-memory trace held as four columns
    that behaves like a list of records and builds them only on first
    per-record use.  The synthetic generator and both trace file
    readers return one.
``stream``
    :func:`materialize` — a reusable sequence from any trace stream.
``textio`` / ``binio``
    Human-readable and packed binary trace file formats.  Each reader
    decodes a whole file into a :class:`TraceColumns` and checks all of
    it before returning.
``stats``
    :class:`TraceStatistics` — computes exactly the quantities behind the
    paper's Figures 3 (read/write frequency), 4 (consecutive same-set
    scenario breakdown) and 5 (silent-write frequency).
"""

from repro.trace.record import AccessType, MemoryAccess, WORD_BYTES, word_address
from repro.trace.columns import TraceColumns
from repro.trace.stream import materialize
from repro.trace.stats import ScenarioBreakdown, TraceStatistics, collect_statistics
from repro.trace.textio import read_text_trace, write_text_trace
from repro.trace.binio import read_binary_trace, write_binary_trace

__all__ = [
    "AccessType",
    "MemoryAccess",
    "WORD_BYTES",
    "word_address",
    "TraceColumns",
    "materialize",
    "TraceStatistics",
    "ScenarioBreakdown",
    "collect_statistics",
    "read_text_trace",
    "write_text_trace",
    "read_binary_trace",
    "write_binary_trace",
]
