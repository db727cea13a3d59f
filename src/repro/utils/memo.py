"""Memo tables that live for one scope, such as one report.

A report asks the same pure questions many times: every figure
regenerates the same traces, and several replay them through the same
controllers.  :func:`memo_scope` opens a scope for the duration of a
``with`` block; inside it :func:`scope_memo` hands each caller its own
named table, and outside any scope it returns ``None``, so the caller
computes afresh.  Nothing is persisted and nothing outlives the block:
the tables end, with every entry, when their scope exits.  A nested
scope starts empty and hides the enclosing one until it exits;
:func:`ensure_memo_scope` joins the open scope instead, and opens one
only when none is open.

The tables sit in a :class:`contextvars.ContextVar`, so a scope is
invisible to other threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Hashable, Iterator, Optional

__all__ = ["ensure_memo_scope", "memo_scope", "scope_memo"]

_Tables = Dict[str, Dict[Hashable, Any]]

_TABLES: ContextVar[Optional[_Tables]] = ContextVar(
    "repro_memo_tables", default=None
)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Open a memo scope, with empty tables, for the ``with`` block."""
    token = _TABLES.set({})
    try:
        yield
    finally:
        _TABLES.reset(token)


@contextmanager
def ensure_memo_scope() -> Iterator[None]:
    """Run the ``with`` block in the open memo scope, or in a new one
    when none is open."""
    if _TABLES.get() is not None:
        yield
        return
    with memo_scope():
        yield


def scope_memo(name: str) -> Optional[Dict[Hashable, Any]]:
    """The open scope's table called ``name``; ``None`` outside a scope."""
    tables = _TABLES.get()
    if tables is None:
        return None
    return tables.setdefault(name, {})
