"""Fault-tolerant execution primitives for campaign runs.

A full campaign sweeps 25 benchmarks x 4 techniques; at production
trace lengths that is hours of embarrassingly-parallel work, and one
hung worker or one transient exception must not discard everything
already computed.  This module provides the building blocks
:func:`repro.sim.campaign.run_campaign` composes:

:class:`RetryPolicy`
    Bounded retry with exponential backoff and *deterministic* jitter
    (seeded from the experiment seed and the benchmark name, so two
    runs of the same campaign back off identically).

:func:`retry_call`
    Drives a callable through a policy, retrying :class:`ReproError`
    failures and re-raising once the attempt budget is exhausted.
    Programming errors (``TypeError`` & co.) are never retried.

:class:`CircuitBreaker`
    Per-benchmark failure counter.  After ``threshold`` failures the
    breaker *opens* and :func:`retry_call` stops retrying that
    benchmark immediately (:class:`BreakerOpenError`) instead of
    burning the rest of the attempt budget on a row that keeps
    failing; the campaign quarantines it as *breaker-skipped* and
    carries on — graceful degradation instead of serial grinding.

:func:`run_supervised`
    Runs a function in a dedicated child process under a wall-clock
    timeout.  A hung child is terminated and surfaces as
    :class:`WorkerTimeoutError`; a child that dies without reporting
    (SIGKILL, OOM, ``os._exit``) surfaces as
    :class:`WorkerCrashError`.  Both are retryable.  With a heartbeat
    interval set, the child also streams liveness beats over the
    result pipe; a worker that stops beating — frozen by SIGSTOP,
    swapped out, or dead in a way that leaves the pipe open — is
    killed after a few missed beats rather than after the full
    wall-clock budget.  (Beats come from a dedicated child thread, so
    a *computing* worker keeps beating: heartbeats detect frozen
    processes early, the wall clock remains the backstop for
    livelock.)

:class:`ExecutionPolicy` / :func:`execution_policy`
    An ambient policy stack so the CLI can switch a whole command —
    including campaigns started deep inside figure producers — to a
    given retry/timeout/store configuration without threading
    arguments through every layer.

Degradation events (``retry.attempt``, ``worker.timeout``,
``worker.crash``) are reported through ``on_event`` callbacks rather
than written to telemetry directly: the worker pool supervises
jobs from threads, and replaying the events from the main thread keeps
the metrics registry single-threaded and the merged output
deterministic.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import (
    BreakerOpenError,
    ConfigurationError,
    ReproError,
    SimulationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive

__all__ = [
    "RetryPolicy",
    "FailedRow",
    "CircuitBreaker",
    "ExecutionPolicy",
    "execution_policy",
    "active_policy",
    "retry_call",
    "run_supervised",
]

#: Event callback signature: ``on_event(name, **details)``.
EventCallback = Callable[..., None]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attributes:
        max_attempts: total tries per benchmark (1 = no retry).
        base_delay_s: backoff before the second attempt.
        max_delay_s: backoff ceiling.
        multiplier: backoff growth factor per attempt.
        jitter: +/- fraction applied to each delay; the draw is
            deterministic in ``(seed, name, attempt)`` so reruns are
            bit-repeatable.
        worker_timeout_s: per-attempt wall-clock budget for supervised
            workers (None = unlimited; only enforced for
            process-isolated execution).
        breaker_threshold: distinct failures per benchmark before its
            circuit breaker opens and the row is skipped instead of
            retried (None = breakers disabled, the pre-breaker
            behaviour).
        heartbeat_interval_s: liveness beat period for supervised
            workers (None = heartbeats disabled).  A worker that
            misses several consecutive beats is killed early instead
            of waiting out ``worker_timeout_s``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    worker_timeout_s: Optional[float] = None
    breaker_threshold: Optional[int] = None
    heartbeat_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.worker_timeout_s is not None and self.worker_timeout_s <= 0:
            raise ConfigurationError(
                f"worker_timeout_s must be positive, got {self.worker_timeout_s}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if (
            self.heartbeat_interval_s is not None
            and self.heartbeat_interval_s <= 0
        ):
            raise ConfigurationError(
                "heartbeat_interval_s must be positive, got "
                f"{self.heartbeat_interval_s}"
            )

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail on the first error — the pre-resilience behaviour."""
        return cls(max_attempts=1)

    def with_timeout(self, worker_timeout_s: Optional[float]) -> "RetryPolicy":
        return replace(self, worker_timeout_s=worker_timeout_s)

    def backoff_delay(self, attempt: int, seed: int = 0, name: str = "") -> float:
        """Sleep before attempt ``attempt + 1`` (attempts count from 1)."""
        raw = self.base_delay_s * self.multiplier ** (attempt - 1)
        raw = min(raw, self.max_delay_s)
        if not self.jitter or not raw:
            return raw
        # Deterministic uniform draw in [1 - jitter, 1 + jitter].
        unit = derive_seed(seed, "retry", name, str(attempt)) / float(2**64)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)


@dataclass(frozen=True)
class FailedRow:
    """One benchmark quarantined after exhausting its retry budget.

    ``breaker_skipped`` marks rows abandoned by an *open circuit
    breaker* rather than a spent retry budget — the degradation ladder
    gave up on them early to protect campaign throughput.
    """

    benchmark: str
    attempts: int
    error_type: str
    error: str
    breaker_skipped: bool = False

    def describe(self) -> str:
        how = "skipped by open breaker" if self.breaker_skipped else "after"
        return (
            f"{self.benchmark}: {self.error_type} {how} "
            f"{self.attempts} attempt(s): {self.error}"
        )


class CircuitBreaker:
    """Per-target failure counter with a trip threshold.

    Shared by every retry loop in a campaign (the worker pool's
    supervisor threads included — mutation is lock-protected).  Once a
    target accumulates ``threshold`` failures its breaker *opens*:
    :func:`retry_call` refuses further work on it and raises
    :class:`BreakerOpenError`, which the campaign records as a
    breaker-skipped quarantined row.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._open: Dict[str, bool] = {}

    def failures(self, target: str) -> int:
        with self._lock:
            return self._failures.get(target, 0)

    def is_open(self, target: str) -> bool:
        with self._lock:
            return self._open.get(target, False)

    def record_failure(self, target: str) -> bool:
        """Count one failure; True the moment this trip *opens* it."""
        with self._lock:
            count = self._failures.get(target, 0) + 1
            self._failures[target] = count
            if count >= self.threshold and not self._open.get(target, False):
                self._open[target] = True
                return True
            return False

    def record_success(self, target: str) -> None:
        """A success resets the count (a closed breaker heals)."""
        with self._lock:
            if not self._open.get(target, False):
                self._failures.pop(target, None)

    def open_targets(self) -> List[str]:
        with self._lock:
            return sorted(t for t, is_open in self._open.items() if is_open)


@dataclass(frozen=True)
class ExecutionPolicy:
    """Ambient campaign-execution configuration.

    The CLI builds one from its flags and installs it with
    :func:`execution_policy`; :func:`repro.sim.campaign.run_campaign`
    and friends consult :func:`active_policy` for any parameter the
    caller did not pass explicitly.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    strict: bool = False
    #: Supervised worker processes per campaign (None or 1 = rows run
    #: in process).
    processes: Optional[int] = None
    #: Root directory of the content-addressed result store (None =
    #: no caching).  A campaign opens a
    #: :class:`repro.store.ResultStore` here, serve cached rows
    #: without invoking the simulator and commit each new row as it
    #: finishes — re-running against it is how a campaign resumes.
    result_cache: Optional[Union[str, Path]] = None
    #: LRU size bound for the result store (None = unbounded).
    result_cache_max_bytes: Optional[int] = None
    #: Energy/area estimator backend spec ("auto" routes each query to
    #: the most accurate capable backend; "analytical"/"library" force
    #: one).  Analysis producers that were not handed an explicit
    #: registry consult this.
    estimator: str = "auto"
    #: Directory (or file) of the durable estimation-record cache
    #: (None = estimates are recomputed every run).
    estimator_cache: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.processes is not None:
            check_positive("processes", self.processes)
        if self.result_cache_max_bytes is not None:
            check_positive("result_cache_max_bytes", self.result_cache_max_bytes)


_DEFAULT_POLICY = ExecutionPolicy()
_policy_stack: List[ExecutionPolicy] = []


def active_policy() -> ExecutionPolicy:
    """The innermost installed policy (or the defaults)."""
    return _policy_stack[-1] if _policy_stack else _DEFAULT_POLICY


@contextmanager
def execution_policy(policy: ExecutionPolicy):
    """Install ``policy`` as the ambient execution policy for a block."""
    _policy_stack.append(policy)
    try:
        yield policy
    finally:
        _policy_stack.pop()


def retry_call(
    fn: Callable[[int], Any],
    policy: RetryPolicy,
    seed: int = 0,
    name: str = "",
    on_event: Optional[EventCallback] = None,
    sleep: Callable[[float], None] = time.sleep,
    breaker: Optional[CircuitBreaker] = None,
) -> Any:
    """Call ``fn(attempt)`` under ``policy``; attempts count from 1.

    Retries any :class:`ReproError` (which includes worker timeouts and
    crashes); anything else — a programming error — propagates
    immediately.  The last failure is re-raised once the budget is
    spent, so callers see the real error; the attempt count is
    ``policy.max_attempts`` by construction.

    With a ``breaker``, every failure is recorded against ``name``;
    once the breaker opens the retry loop stops immediately — even
    with budget left — and raises :class:`BreakerOpenError` (emitting
    ``breaker.open`` at the moment it trips).  A breaker already open
    on entry refuses the call outright.
    """
    attempt = 1
    while True:
        if breaker is not None and breaker.is_open(name):
            raise BreakerOpenError(
                f"{name}: circuit breaker is open after "
                f"{breaker.failures(name)} failure(s); refusing further "
                "attempts"
            )
        try:
            result = fn(attempt)
        except BreakerOpenError:
            raise
        except ReproError as exc:
            if breaker is not None:
                opened = breaker.record_failure(name)
                if opened and on_event is not None:
                    on_event(
                        "breaker.open",
                        target=name,
                        failures=breaker.failures(name),
                        error=type(exc).__name__,
                    )
                if breaker.is_open(name):
                    raise BreakerOpenError(
                        f"{name}: circuit breaker opened after "
                        f"{breaker.failures(name)} failure(s); last error: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            if attempt >= policy.max_attempts:
                raise
            delay = policy.backoff_delay(attempt, seed=seed, name=name)
            if on_event is not None:
                on_event(
                    "retry.attempt",
                    target=name,
                    attempt=attempt,
                    error=type(exc).__name__,
                    backoff_s=round(delay, 6),
                )
            if delay:
                sleep(delay)
            attempt += 1
        else:
            if breaker is not None:
                breaker.record_success(name)
            return result


# -- supervised child-process execution ---------------------------------------------


#: A worker is declared stalled after this many silent heartbeat
#: periods.  Small enough to beat any realistic wall-clock budget,
#: large enough that one slow scheduler tick is not a death sentence.
_STALL_FACTOR = 4.0


def _child_entry(conn, target, args, heartbeat_interval_s=None) -> None:
    """Child-side shim: run ``target(args)`` and report over the pipe.

    With a heartbeat interval, a daemon thread streams ``("beat",)``
    tuples over the same pipe (send-lock serialised against the final
    result) so the supervisor can tell a frozen process from a slow
    one.
    """
    send_lock = threading.Lock()
    stop_beating = threading.Event()
    if heartbeat_interval_s:

        def _beat() -> None:
            while not stop_beating.wait(heartbeat_interval_s):
                try:
                    with send_lock:
                        conn.send(("beat",))
                except OSError:
                    return

        threading.Thread(target=_beat, daemon=True).start()
    try:
        result = target(args)
    except BaseException as exc:  # noqa: BLE001  # repro-lint: disable=RPR205
        # Not silent: the exception is serialised over the pipe and the
        # parent rebuilds and re-raises it (_rebuild_exception) — the
        # handler body *is* the error channel.
        stop_beating.set()
        try:
            with send_lock:
                conn.send(("error", type(exc).__name__, str(exc)))
        finally:
            conn.close()
        return
    stop_beating.set()
    with send_lock:
        conn.send(("ok", result))
    conn.close()


def _rebuild_exception(type_name: str, message: str) -> Exception:
    """Turn a worker's (type name, message) report back into an exception."""
    import repro.errors as errors_module

    cls = getattr(errors_module, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    try:
        from repro.faultinject.plan import InjectedFaultError

        if type_name == "InjectedFaultError":
            return InjectedFaultError(message)
    except ImportError:  # pragma: no cover - faultinject is in-tree
        pass
    return SimulationError(f"worker raised {type_name}: {message}")


def run_supervised(
    target: Callable[[Any], Any],
    args: Any,
    timeout_s: Optional[float] = None,
    label: str = "worker",
    on_event: Optional[EventCallback] = None,
    heartbeat_interval_s: Optional[float] = None,
) -> Any:
    """Run ``target(args)`` in a dedicated child process.

    Unlike a shared process pool, a dedicated child can be *killed*:
    when the wall clock passes ``timeout_s`` the child is terminated
    (then SIGKILLed if it ignores SIGTERM) and
    :class:`WorkerTimeoutError` is raised.  A child that exits without
    sending a result raises :class:`WorkerCrashError` with its exit
    code.  Exceptions the child caught and reported are rebuilt and
    re-raised in the parent.

    ``OSError``/``PermissionError`` from process creation propagate
    unchanged so callers can fall back to in-process execution in
    sandboxes that forbid fork.
    """
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_entry,
        args=(child_conn, target, args, heartbeat_interval_s),
        daemon=True,
    )
    try:
        proc.start()
    except BaseException:
        parent_conn.close()
        child_conn.close()
        raise
    child_conn.close()
    deadline = (
        time.monotonic() + timeout_s if timeout_s is not None else None
    )
    stall_budget = (
        heartbeat_interval_s * _STALL_FACTOR
        if heartbeat_interval_s is not None
        else None
    )
    last_signal = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            waits = []
            if deadline is not None:
                waits.append(deadline - now)
            if stall_budget is not None:
                waits.append(last_signal + stall_budget - now)
            wait_timeout = max(0.0, min(waits)) if waits else None
            # Wake on a message (result or beat) or child death,
            # whichever is first — a crashed child must not cost the
            # full timeout.
            ready = _wait_connections(
                [parent_conn, proc.sentinel], timeout=wait_timeout
            )
            if parent_conn in ready:
                # Ready can also mean EOF: a child that died without
                # sending (os._exit, SIGKILL) closes its end of the pipe.
                status = _recv_or_none(parent_conn)
                if status is not None and status[0] == "beat":
                    last_signal = time.monotonic()
                    if on_event is not None:
                        on_event(
                            "worker.heartbeat", target=label, pid=proc.pid
                        )
                    continue
                proc.join()
                break
            if ready:
                # Child died; drain any racing result past the
                # buffered beats.
                status = _drain_result(parent_conn)
                proc.join()
                break
            now = time.monotonic()
            if stall_budget is not None and (
                deadline is None or now < deadline
            ):
                # The heartbeat window expired first: the worker went
                # silent for _STALL_FACTOR beat periods while its
                # process still exists — frozen, not slow.
                _terminate(proc)
                if on_event is not None:
                    on_event(
                        "worker.timeout",
                        target=label,
                        stalled=True,
                        heartbeat_interval_s=heartbeat_interval_s,
                        pid=proc.pid,
                    )
                raise WorkerTimeoutError(
                    f"{label}: worker (pid {proc.pid}) missed heartbeats "
                    f"for {stall_budget:g}s (interval "
                    f"{heartbeat_interval_s:g}s) and was terminated as "
                    "stalled"
                )
            _terminate(proc)
            if on_event is not None:
                on_event(
                    "worker.timeout",
                    target=label,
                    timeout_s=timeout_s,
                    pid=proc.pid,
                )
            raise WorkerTimeoutError(
                f"{label}: worker (pid {proc.pid}) exceeded its "
                f"{timeout_s:g}s budget and was terminated"
            )
    finally:
        parent_conn.close()
    if status is None:
        if on_event is not None:
            on_event("worker.crash", target=label, exit_code=proc.exitcode)
        raise WorkerCrashError(
            f"{label}: worker died with exit code {proc.exitcode} "
            "before returning a result"
        )
    kind = status[0]
    if kind == "ok":
        if on_event is not None:
            # The success-side twin of worker.crash/worker.timeout: the
            # merged campaign metrics show how many supervised workers
            # actually completed (the counter the per-worker telemetry
            # breakdown is reconciled against).
            on_event("worker.complete", target=label, pid=proc.pid)
        return status[1]
    _, type_name, message = status
    raise _rebuild_exception(type_name, message)


def _recv_or_none(conn) -> Optional[tuple]:
    try:
        return conn.recv()
    except EOFError:
        return None


def _drain_result(conn, grace_s: float = 0.25) -> Optional[tuple]:
    """Skim buffered heartbeats for a final result after child death."""
    while conn.poll(grace_s):
        status = _recv_or_none(conn)
        if status is None or status[0] != "beat":
            return status
        grace_s = 0.0
    return None


def _terminate(proc, grace_s: float = 2.0) -> None:
    """Terminate, escalating to SIGKILL if the child ignores SIGTERM."""
    proc.terminate()
    proc.join(grace_s)
    if proc.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
        proc.kill()
        proc.join(grace_s)
