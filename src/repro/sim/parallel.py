"""The supervised worker pool: campaign rows on worker processes.

A campaign is embarrassingly parallel across benchmarks (each
benchmark's trace generation + per-technique replay is independent), so
:func:`repro.sim.campaign.run_campaign` with ``processes > 1`` takes its
pending rows from :func:`worker_rows`.  Each worker synthesises its own
trace from ``(benchmark, config)`` — nothing large crosses the process
boundary, and determinism is untouched because seeds derive from
names, not from execution order.

Every benchmark attempt runs in a **dedicated, supervised child
process** (see :func:`repro.sim.resilience.run_supervised`), driven by
a small pool of supervisor threads in the parent.  A dedicated child —
unlike a slot in a shared ``ProcessPoolExecutor`` — can be killed:

* a child exceeding the :class:`RetryPolicy` timeout is terminated and
  retried (``worker.timeout``);
* a child that dies (SIGKILL, OOM, injected crash) is retried
  (``worker.crash``);
* transient exceptions are retried with deterministic backoff
  (``retry.attempt``).

Supervisor threads touch no shared telemetry and no store.  Each
job's degradation events are buffered and emitted by the coordinating
thread, which consumes :func:`worker_rows`, in submission order, just
before it yields that job's outcome; every supervised completion bumps
the ``worker.complete`` counter, the reconciliation anchor for the
per-worker metrics breakdown.  When process creation itself fails, a
job runs in process instead; the fallback is *observable*: it logs
through ``repro.obs``, bumps the ``warning.parallel.pool_fallback``
counter and (when tracing) drops an instant on the timeline — a
campaign silently running at 1/N speed is a bug, not a feature.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Event
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.sim.campaign import (
    BenchmarkRow,
    RowOutcome,
    emit_degradation,
    execute_row,
)
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import (
    CircuitBreaker,
    RetryPolicy,
    retry_call,
    run_supervised,
)

__all__ = ["worker_rows"]

#: Worker result: the benchmark row plus the worker-local metrics state
#: (None when the caller did not request telemetry).
_WorkerResult = Tuple[BenchmarkRow, Optional[dict]]


def _run_benchmark(args) -> _WorkerResult:
    """Worker: one benchmark through every technique (module-level so
    it pickles)."""
    benchmark, config, collect_metrics, attempt = args
    telemetry = Telemetry(registry=MetricsRegistry()) if collect_metrics else None
    row = execute_row(benchmark, config, telemetry, attempt=attempt)
    state = telemetry.registry.state_dict() if telemetry is not None else None
    return row, state


@dataclass
class _JobOutcome:
    """Everything one supervisor thread hands back to the main thread."""

    benchmark: str
    row: Optional[BenchmarkRow] = None
    metrics_state: Optional[dict] = None
    error: Optional[ReproError] = None
    events: List[Tuple[str, dict]] = field(default_factory=list)
    skipped: bool = False


def _supervise_job(
    benchmark: str,
    config: ExperimentConfig,
    collect_metrics: bool,
    retry: RetryPolicy,
    abort: Event,
    breaker: Optional[CircuitBreaker] = None,
) -> _JobOutcome:
    """Run one benchmark to completion or to its last failure from a
    parent thread.

    Touches no shared telemetry and no store: degradation events are
    buffered on the outcome and replayed, and the row folded, by the
    coordinating thread in deterministic order.  The circuit breaker is
    shared across supervisor threads (it locks internally).
    """
    outcome = _JobOutcome(benchmark=benchmark)

    def on_event(name: str, **details) -> None:
        outcome.events.append((name, details))

    if abort.is_set():
        outcome.skipped = True
        return outcome

    def attempt_fn(attempt: int) -> _WorkerResult:
        args = (benchmark, config, collect_metrics, attempt)
        try:
            return run_supervised(
                _run_benchmark,
                args,
                timeout_s=retry.worker_timeout_s,
                label=f"benchmark {benchmark}",
                on_event=on_event,
                heartbeat_interval_s=retry.heartbeat_interval_s,
            )
        except (OSError, PermissionError) as exc:
            # Process creation itself failed (e.g. a sandbox that
            # forbids fork): degrade to in-process execution for this
            # job.  Timeouts cannot be enforced in-process; retries and
            # quarantine still apply.
            on_event("parallel.pool_fallback", error=f"{type(exc).__name__}: {exc}")
            return _run_benchmark(args)

    try:
        row, state = retry_call(
            attempt_fn,
            policy=retry,
            seed=config.seed,
            name=benchmark,
            on_event=on_event,
            breaker=breaker,
        )
    except ReproError as exc:  # repro-lint: disable=RPR205
        # Not silent: the campaign's fold quarantines this row and
        # reports it, in deterministic submission order.  Reporting
        # from the supervisor thread here would double-count and race
        # the ordering.
        outcome.error = exc
        return outcome
    outcome.row = row
    outcome.metrics_state = state
    return outcome


def worker_rows(
    pending: Sequence[str],
    config: ExperimentConfig,
    telem: Telemetry,
    retry: RetryPolicy,
    breaker: Optional[CircuitBreaker],
    abort: Event,
    processes: int,
) -> Iterator[RowOutcome]:
    """The pending rows on up to ``processes`` supervised workers, each
    job's outcome yielded in submission order as soon as it resolves.

    No job starts once ``abort`` is set; jobs already running finish
    their attempt and are still yielded.  Workers collect metrics only
    when ``telem`` is enabled.
    """
    if not pending:
        return
    pool_fallback_errors: List[str] = []
    with ThreadPoolExecutor(max_workers=min(processes, len(pending))) as pool:
        futures = [
            pool.submit(
                _supervise_job, benchmark, config, telem.enabled, retry,
                abort, breaker,
            )
            for benchmark in pending
        ]
        for future in futures:  # deterministic: submission order
            outcome = future.result()
            if outcome.skipped:
                continue
            for name, details in outcome.events:
                if name == "parallel.pool_fallback":
                    pool_fallback_errors.append(details.get("error", ""))
                    continue
                emit_degradation(telem, name, **details)
            yield (
                outcome.benchmark, outcome.row, outcome.error,
                outcome.metrics_state,
            )
    if pool_fallback_errors:
        telem.warn(
            "parallel.pool_fallback",
            f"process pool unavailable ({pool_fallback_errors[0]}); "
            "benchmarks ran in-process",
            benchmarks=len(pool_fallback_errors),
        )
