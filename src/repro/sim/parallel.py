"""Multiprocess campaign execution with fault tolerance.

A full campaign is embarrassingly parallel across benchmarks (each
benchmark's trace generation + per-technique replay is independent), so
this module fans the rows out over worker processes.  Each worker
synthesises its own trace from ``(benchmark, config)`` — nothing large
crosses the process boundary, and determinism is untouched because
seeds derive from names, not from execution order.

Execution model
---------------
Every benchmark attempt runs in a **dedicated, supervised child
process** (see :func:`repro.sim.resilience.run_supervised`), driven by
a small pool of supervisor threads in the parent.  A dedicated child —
unlike a slot in a shared ``ProcessPoolExecutor`` — can be killed, so a
hung benchmark costs one ``worker_timeout_s`` instead of the campaign:

* a child exceeding the :class:`RetryPolicy` timeout is terminated and
  retried (``worker.timeout``);
* a child that dies (SIGKILL, OOM, injected crash) is retried
  (``worker.crash``);
* transient exceptions are retried with deterministic backoff
  (``retry.attempt``);
* a benchmark exhausting its budget is quarantined into
  ``CampaignResult.failed_rows`` (``campaign.quarantined``) — the rest
  of the suite still completes unless ``strict=True``.

Row order is pinned to ``config.benchmarks`` regardless of completion
order.  The coordinating thread folds each job's outcome in submission
order as soon as its future resolves, and with a ``result_cache`` it
commits the row to the store right then, before later jobs finish, so
an interrupted campaign resumes re-running only the missing
benchmarks.

``run_campaign_parallel`` returns exactly what
:func:`repro.sim.campaign.run_campaign` returns; a sequential fallback
keeps single-CPU and restricted environments working.  The fallback is
*observable*: it logs through ``repro.obs``, bumps the
``warning.parallel.pool_fallback`` counter and (when tracing) drops an
instant on the timeline — a campaign silently running at 1/N speed is a
bug, not a feature.

Workers execute rows through the Simulator's columnar engine (see
:mod:`repro.engine`); results are bit-identical to scalar execution, so
parallelism and the engine compose without affecting determinism.

Telemetry across the pool: trace sinks do not cross process
boundaries, so each worker collects into a private metrics-only
registry and ships its :meth:`MetricsRegistry.state_dict` back with the
row.  Metrics-only telemetry rides the columnar kernels, so a worker
collecting metrics stays on the fast path.  Supervisor threads never
touch the caller's registry; each job's metrics state and degradation
events are folded in by the coordinating thread in benchmark order, so
the merged output is deterministic (merge is associative and commutative
anyway).  States are merged with a
``worker:<benchmark>`` label (:meth:`MetricsRegistry.merge_worker_state`),
so ``--metrics-out`` reports the campaign aggregate *and* the
per-worker breakdown, and every supervised completion bumps the
``worker.complete`` counter — the reconciliation anchor for the
breakdown.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Event
from typing import Dict, List, Optional, Tuple

from repro.errors import CampaignFailedError, ReproError
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.campaign import (
    BenchmarkRow,
    CampaignResult,
    _breaker_for,
    _campaign_result,
    _emit_failure,
    _failed_row,
    _open_result_store,
    _resolve,
    _run_rows_resilient,
    _serve_cached_rows,
    _store_save_row,
    emit_degradation,
    execute_row,
)
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import (
    CircuitBreaker,
    FailedRow,
    RetryPolicy,
    retry_call,
    run_supervised,
)
from repro.utils.validation import check_positive

__all__ = ["run_campaign_parallel"]

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
    failure: Optional[FailedRow] = None
    events: List[Tuple[str, dict]] = field(default_factory=list)
    pool_fallback: bool = False
    skipped: bool = False


def _supervise_job(
    benchmark: str,
    config: ExperimentConfig,
    collect_metrics: bool,
    retry: RetryPolicy,
    abort: Event,
    breaker: Optional[CircuitBreaker] = None,
) -> _JobOutcome:
    """Run one benchmark to completion/quarantine from a parent thread.

    Touches no shared telemetry and no store: degradation events are
    buffered on the outcome and replayed, and the row committed, by the
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
            outcome.pool_fallback = True
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
        # Not silent: _run_pool reports this FailedRow (_emit_failure)
        # when folding outcomes, in deterministic submission order.
        # Emitting from the supervisor thread here would double-count
        # and race the ordering.
        outcome.failure = _failed_row(benchmark, exc, retry, breaker)
        return outcome
    outcome.row = row
    outcome.metrics_state = state
    return outcome


def run_campaign_parallel(
    config: ExperimentConfig,
    processes: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    strict: Optional[bool] = None,
    result_cache=None,
) -> CampaignResult:
    """Run the campaign with up to ``processes`` supervised workers.

    ``processes=1`` is an explicit request for in-process execution
    with the caller's full telemetry (sink included); it still honours
    retries, quarantine and the result store, but not worker timeouts.
    Parameters left as None fall back to the ambient
    :class:`ExecutionPolicy`.

    The result store is touched only from the coordinating thread:
    lookups happen before any job is dispatched, and each row is
    committed as its outcome is folded — supervisor threads and worker
    processes never see it.
    """
    if processes is not None:
        check_positive("processes", processes)
    retry, strict, result_cache, policy = _resolve(retry, strict, result_cache)
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    collect_metrics = telem.enabled

    store = _open_result_store(result_cache, policy, telem)
    cached, pending, healed = _serve_cached_rows(store, config, telem)
    breaker = _breaker_for(retry)
    if processes == 1:
        executed, failed = _run_rows_resilient(
            pending, config, telemetry, retry, strict, telem,
            breaker=breaker, store=store,
        )
    else:
        executed, failed = _run_pool(
            pending,
            config,
            collect_metrics,
            retry,
            strict,
            telem,
            processes,
            breaker=breaker,
            store=store,
        )
    if collect_metrics and processes != 1:
        telem.registry.set_gauge("parallel.workers", processes or 0)
    return _campaign_result(config, cached, executed, failed, healed)


def _run_pool(
    pending: List[str],
    config: ExperimentConfig,
    collect_metrics: bool,
    retry: RetryPolicy,
    strict: bool,
    telem: Telemetry,
    processes: Optional[int],
    breaker: Optional[CircuitBreaker] = None,
    store=None,
) -> Tuple[Dict[str, BenchmarkRow], List[FailedRow]]:
    """Fan ``pending`` out over supervisor threads; fold each outcome
    in deterministic (submission) order as soon as it resolves."""
    completed: Dict[str, BenchmarkRow] = {}
    failed: List[FailedRow] = []
    if not pending:
        return completed, failed
    workers = min(processes or os.cpu_count() or 1, len(pending))
    abort = Event()
    pool_fallback_errors: List[str] = []
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [
            pool.submit(
                _supervise_job, benchmark, config, collect_metrics, retry,
                abort, breaker,
            )
            for benchmark in pending
        ]
        for future in futures:  # deterministic: submission order
            outcome = future.result()
            if strict and outcome.failure is not None:
                # Fail fast: stop launching new jobs once any benchmark
                # is lost for good.  Jobs already running finish their
                # attempt and are still folded.
                abort.set()
            if outcome.skipped:
                continue
            for name, details in outcome.events:
                if name == "parallel.pool_fallback":
                    pool_fallback_errors.append(details.get("error", ""))
                    continue
                emit_degradation(telem, name, **details)
            if outcome.failure is not None:
                failed.append(outcome.failure)
                _emit_failure(telem, outcome.failure)
                continue
            completed[outcome.benchmark] = outcome.row
            if store is not None:
                _store_save_row(store, config, outcome.row, telem)
            if outcome.metrics_state is not None and collect_metrics:
                # Labelled merge: the aggregate gets the worker's
                # counters and the state is also filed under its worker
                # id, so --metrics-out carries the per-worker breakdown.
                # The id is the benchmark name — workers are
                # per-benchmark processes, and pids would break
                # run-to-run determinism.
                telem.registry.merge_worker_state(
                    outcome.metrics_state,
                    worker_id=f"worker:{outcome.benchmark}",
                )
    if pool_fallback_errors:
        telem.warn(
            "parallel.pool_fallback",
            f"process pool unavailable ({pool_fallback_errors[0]}); "
            "benchmarks ran in-process",
            benchmarks=len(pool_fallback_errors),
        )
    if strict and failed:
        raise CampaignFailedError(
            "campaign failed (strict): "
            + "; ".join(f.describe() for f in failed),
            failed_rows=failed,
        )
    return completed, failed
