"""Exception hierarchy for the reproduction library.

All library-specific failures derive from :class:`ReproError` so callers
can catch configuration and simulation failures without also swallowing
programming errors like ``TypeError``.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "TypeContractError",
    "StateError",
    "TraceFormatError",
    "SimulationError",
    "InvariantViolation",
    "PortConflictError",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "BreakerOpenError",
    "StoreError",
    "StoreIntegrityError",
    "CampaignFailedError",
    "LintConfigError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A cache/SRAM/workload configuration is internally inconsistent."""


class ValidationError(ConfigurationError, ValueError):
    """A caller passed an invalid value (bad range, unknown name, ...).

    Dual-inherits :class:`ValueError` so ``except ValueError`` at call
    sites (and third-party code) keeps working, while ``except
    ReproError`` — the CLI and campaign-quarantine contract — now also
    catches it.  Via :class:`ConfigurationError` it maps to exit code 2
    (usage) at the CLI entry point.  This is the standard replacement
    for ``raise ValueError`` in library code (lint rule RPR111).
    """


class TypeContractError(ReproError, TypeError):
    """A caller passed a value of the wrong type.

    Dual-inherits :class:`TypeError`; the replacement for ``raise
    TypeError`` in library code (lint rule RPR111).
    """


class StateError(ReproError, RuntimeError):
    """An object was used in a state that forbids the operation.

    E.g. processing through a finalized controller or timing with a
    never-started timer.  Dual-inherits :class:`RuntimeError`; the
    replacement for ``raise RuntimeError`` in library code (RPR111).
    """


class TraceFormatError(ReproError):
    """A trace file or record is malformed."""


class SimulationError(ReproError):
    """A simulation reached an impossible state (internal invariant broke)."""


class InvariantViolation(SimulationError):
    """A structural invariant of the cache or controller state broke.

    Raised by the debug-mode checks in :mod:`repro.check.invariants`
    (see :meth:`repro.core.controller.CacheController.
    enable_invariant_checks`), naming the exact invariant and location.
    """


class PortConflictError(SimulationError):
    """An SRAM port was scheduled for two operations in the same cycle.

    Raised by :meth:`repro.sram.ports.PortTracker.reserve`, the
    no-stall variant of ``acquire``.
    """


class WorkerTimeoutError(SimulationError):
    """A campaign worker exceeded its per-benchmark wall-clock budget.

    Raised by :func:`repro.sim.resilience.run_supervised` after the
    hung worker process has been terminated.  Retryable: the supervisor
    counts it against the benchmark's :class:`RetryPolicy` budget.
    """


class WorkerCrashError(SimulationError):
    """A campaign worker process died before returning a result.

    Covers hard crashes — a killed process (SIGKILL/OOM), an injected
    ``os._exit`` or an interpreter abort — where no exception could
    cross the process boundary.  Raised by
    :func:`repro.sim.resilience.run_supervised`; retryable.
    """


class BreakerOpenError(SimulationError):
    """A per-benchmark circuit breaker tripped; the row was skipped.

    Raised by :func:`repro.sim.resilience.retry_call` once a
    :class:`repro.sim.resilience.CircuitBreaker` has recorded its
    failure threshold: instead of burning the remaining retry budget on
    a row that keeps failing, the row is skipped and quarantined
    (``FailedRow.breaker_skipped``), and the campaign degrades
    gracefully.  Deliberately *not* retryable in spirit — the breaker
    exists to stop retries — although it derives from
    :class:`SimulationError` so the quarantine contract still catches
    it.
    """


class StoreError(ReproError):
    """A result-store operation could not be performed.

    Covers unusable store roots (a file where a directory is needed),
    malformed invalidation selectors, and commit failures that are not
    plain OS errors.  Distinct from :class:`StoreIntegrityError`, which
    classifies *entry* damage found on read.
    """


class StoreIntegrityError(StoreError):
    """A result-store entry failed validation on read.

    ``reason`` classifies the damage: ``"torn"`` (unparseable JSON — a
    torn or truncated write), ``"schema"`` (wrong format name or schema
    version), ``"skew"`` (header does not match the requested key — a
    renamed file or a code/config version mismatch), or ``"crc"`` (the
    payload checksum does not match).  The store never raises this to
    campaign callers; it quarantines the entry and reports a miss so
    the row is recomputed and re-stored (a self-healing read).
    """

    def __init__(self, message: str, reason: str = "corrupt") -> None:
        super().__init__(message)
        self.reason = reason


class CampaignFailedError(SimulationError):
    """A strict campaign had benchmarks exhaust their retry budget.

    Only raised with ``strict=True``; the default policy quarantines
    failed benchmarks into ``CampaignResult.failed_rows`` instead.
    ``failed_rows`` on the exception carries the per-benchmark
    :class:`repro.sim.resilience.FailedRow` records.
    """

    def __init__(self, message: str, failed_rows: Iterable[object] = ()) -> None:
        super().__init__(message)
        self.failed_rows = tuple(failed_rows)


class LintConfigError(ConfigurationError):
    """A ``repro-8t lint`` invocation or artifact is unusable.

    Covers unknown rule ids, unreadable paths, malformed baseline
    files, and invalid rule registrations.  Distinct from findings:
    findings are facts about the linted tree (exit code 1), this error
    means the lint run itself could not be configured (exit code 2).
    """
