"""Lazy trace-stream transformers.

All transformers accept and return iterables of :class:`MemoryAccess`
and never materialise the stream, so multi-million-access campaigns run
in constant memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.trace.columns import TraceColumns
from repro.trace.record import MemoryAccess
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["skip_warmup", "limit_accesses", "sample_accesses", "materialize"]


def skip_warmup(
    trace: Iterable[MemoryAccess], warmup_accesses: int
) -> Iterator[MemoryAccess]:
    """Drop the first ``warmup_accesses`` records.

    Mirrors the paper's 1-billion-instruction fast-forward: statistics
    are collected only after the cache has warmed.  (The simulator still
    *processes* warm-up accesses when warming state matters; this filter
    is for pure trace statistics.)
    """
    check_non_negative("warmup_accesses", warmup_accesses)
    iterator = iter(trace)
    for _ in range(warmup_accesses):
        next(iterator, None)
    yield from iterator


def limit_accesses(
    trace: Iterable[MemoryAccess], max_accesses: int
) -> Iterator[MemoryAccess]:
    """Truncate the stream after ``max_accesses`` records.

    Pulls exactly ``max_accesses`` records from ``trace`` — the count is
    checked *after* each yield, so a shared/stateful iterator keeps its
    next element instead of losing one to limiter look-ahead.
    """
    check_non_negative("max_accesses", max_accesses)
    if max_accesses == 0:
        return
    count = 0
    for access in trace:
        yield access
        count += 1
        if count >= max_accesses:
            return


def sample_accesses(
    trace: Iterable[MemoryAccess], period: int
) -> Iterator[MemoryAccess]:
    """Keep every ``period``-th record (period 1 keeps everything).

    Note sampling breaks consecutive-pair statistics; it exists for quick
    footprint inspection, not for reproducing Figure 4.
    """
    check_positive("period", period)
    for index, access in enumerate(trace):
        if index % period == 0:
            yield access


def materialize(trace: Iterable[MemoryAccess]) -> Sequence[MemoryAccess]:
    """Fully realise a stream into a reusable sequence.

    The paper evaluated all techniques in one Pin run because Pin is not
    repeatable; we instead materialise a trace once and replay it through
    every controller so comparisons are exact.  A :class:`TraceColumns`
    is already a reusable sequence and comes back as it is, so column
    consumers never build its records; anything else becomes a list.
    """
    if isinstance(trace, TraceColumns):
        return trace
    return list(trace)
