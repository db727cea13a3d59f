"""Execution engine.

The throughput layer of the simulator.  The columnar engine
(:mod:`repro.engine.columnar`) turns trace chunks into NumPy arrays —
views over the columns of a :class:`repro.trace.TraceColumns`, which
the generator and both trace file readers return — and runs
per-technique kernels that are bit-identical to the scalar
``process()`` loop, the semantics of record and the only fallback (see
``docs/performance.md`` and the differential suite in
``tests/engine/``).  :mod:`repro.engine.batch` holds the list-based
:class:`AccessBatch`; no reader decodes to it any more, and it stays
only while the repo benchmark's tracer (``perfbench/tracer.py``) wraps
:func:`iter_batches` by name.  :mod:`repro.engine.bench` measures
columnar against scalar.
"""

from repro.engine.batch import AccessBatch, DEFAULT_BATCH_SIZE, iter_batches
from repro.engine.bench import (
    BenchResult,
    bench_report,
    run_hotpath_bench,
)
from repro.engine.columnar import (
    ColumnarChunk,
    iter_chunks,
    process_chunk,
)

__all__ = [
    "AccessBatch",
    "DEFAULT_BATCH_SIZE",
    "iter_batches",
    "BenchResult",
    "bench_report",
    "run_hotpath_bench",
    "ColumnarChunk",
    "iter_chunks",
    "process_chunk",
]
