"""Deterministic fault injection for the simulation stack.

The point of a fault-tolerance layer is unprovable without faults to
tolerate, so this package provides seedable, deterministic injectors
that the integration tests (and brave operators) aim at the campaign
runners:

``plan``
    :class:`FaultSpec`/:class:`FaultPlan` — *what* to inject and
    *where* — plus the ``REPRO_FAULTS`` environment hook that carries
    a plan across process boundaries into campaign workers, and the
    :func:`maybe_inject` call sites consult.

``corrupt``
    Byte-level file corruption helpers (truncation, bit flips) for
    exercising the trace-format integrity checks, plus
    result-store entry corruptors (torn entry, bad CRC, version skew)
    for the store's self-healing reads.

Injection is a no-op unless a plan is explicitly installed; the hook
in the worker hot path is one environment-variable lookup against a
cached value.
"""

from repro.faultinject.corrupt import (
    corrupt_entry_crc,
    flip_bit,
    skew_entry_code,
    tear_entry,
    truncate_file,
)
from repro.faultinject.plan import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    active_plan,
    inject,
    maybe_inject,
)

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "active_plan",
    "inject",
    "maybe_inject",
    "flip_bit",
    "truncate_file",
    "tear_entry",
    "corrupt_entry_crc",
    "skew_entry_code",
]
