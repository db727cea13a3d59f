"""Realising a trace stream for replay through several controllers.

A warm-up cut, a length limit or a sample of a trace is a slice of its
:class:`TraceColumns`; only :func:`materialize` is needed on top.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.trace.columns import TraceColumns
from repro.trace.record import MemoryAccess

__all__ = ["materialize"]


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
