"""The declared metric-name set (``METRIC_NAMES``).

Every counter/gauge/histogram name emitted through the
:class:`repro.obs.registry.MetricsRegistry` must match one of the
patterns below, and every pattern must have at least one statically
visible emission — ``repro-8t lint`` cross-references both directions
(rules RPR131/RPR132), so this file is the single source of truth for
what the metrics plane can contain.  ``*`` spans a dynamic component
(a controller name, a span name, a write-back reason).

Keep the mapping sorted by name; the value is the human answer to
"what does this number mean?" and doubles as dashboard documentation.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["METRIC_NAMES"]

METRIC_NAMES: Dict[str, str] = {
    # -- campaign resilience (repro.sim.campaign / parallel / resilience) --
    "breaker.open": (
        "per-benchmark circuit breakers tripped after "
        "RetryPolicy.breaker_threshold distinct failures; further "
        "attempts on that benchmark are refused"
    ),
    "breaker.skip": (
        "benchmark rows abandoned because their circuit breaker was "
        "open (quarantined as FailedRow.breaker_skipped instead of "
        "burning the retry budget)"
    ),
    "campaign.quarantined": (
        "benchmarks that exhausted their retry budget and were moved "
        "to CampaignResult.failed_rows instead of failing the run"
    ),
    "parallel.workers": (
        "gauge: supervised worker processes backing the current "
        "campaign (0 = in-process sequential execution)"
    ),
    "retry.attempt": (
        "per-benchmark retry attempts after a retryable failure "
        "(WorkerTimeoutError, WorkerCrashError, transient faults)"
    ),
    "store.corrupt": (
        "result-store entries that failed validation on read (torn "
        "write, CRC mismatch, schema or version skew) and were "
        "quarantined instead of served"
    ),
    "store.evict": (
        "result-store entries evicted least-recently-used to keep the "
        "store inside its --result-cache size bound"
    ),
    "store.hit": (
        "campaign rows served from the content-addressed result store "
        "without invoking the simulator"
    ),
    "store.miss": (
        "result-store lookups that found no valid entry (absent, or "
        "quarantined as corrupt) and fell through to recomputation"
    ),
    "worker.complete": (
        "supervised campaign worker processes that finished and "
        "returned a result; the anchor the per-worker metrics "
        "breakdown (state_dict()['workers']) is reconciled against"
    ),
    "worker.crash": (
        "campaign worker processes that died without returning a "
        "result (SIGKILL, OOM, interpreter abort)"
    ),
    "worker.heartbeat": (
        "liveness beats received from supervised campaign workers "
        "(RetryPolicy.heartbeat_interval_s); a worker that stops "
        "beating is killed as stalled before its wall-clock budget"
    ),
    "worker.timeout": (
        "campaign workers terminated for exceeding the per-attempt "
        "wall-clock budget (RetryPolicy.worker_timeout_s) or for "
        "missing heartbeats (stalled=True)"
    ),
    # -- estimator layer (repro.power.estimator.registry) ------------------
    "estimator.cache.hit": (
        "estimation queries served from the durable estimation-record "
        "cache without calling a backend estimate method"
    ),
    "estimator.cache.miss": (
        "estimation-record cache lookups that found no record for the "
        "(backend, query, code-version) key and fell through to the "
        "backend"
    ),
    "estimator.dispatch": (
        "estimation queries routed through the EstimatorRegistry "
        "(cache hits and misses alike); the denominator for the cache "
        "hit rate"
    ),
    # -- controller instrumentation (repro.core.*) -------------------------
    "ctrl.*.hits": "requests that hit in the cache, per technique",
    "ctrl.*.misses": "requests that missed in the cache, per technique",
    "ctrl.*.read_requests": "read requests processed, per technique",
    "ctrl.*.read_bypass": (
        "WG+RB reads served from the Set-Buffer via the RB output "
        "multiplexer (no array access, no premature write-back)"
    ),
    "ctrl.*.rmw_issued": (
        "read-modify-write row operations issued by the RMW-family "
        "controllers (the paper's 2x write cost)"
    ),
    "ctrl.*.sb_fill": (
        "Set-Buffer fills: whole-row reads that load the buffered set"
    ),
    "ctrl.*.sb_hit": "writes absorbed by an already-buffered set",
    "ctrl.*.sb_silent_write": (
        "writes dropped because the Set-Buffer already held the value "
        "(silent-store elimination inside the buffer)"
    ),
    "ctrl.*.sb_writeback_*": (
        "Set-Buffer write-backs by reason: premature, eviction, "
        "fill_flush, or final (the WG cost the paper trades against)"
    ),
    "ctrl.*.write_requests": "write requests processed, per technique",
    # -- span timing (repro.obs.spans) -------------------------------------
    "span.*.calls": "times the named phase/span was entered",
    "span.*.seconds": (
        "histogram: wall-clock duration per span entry (SPAN_BUCKETS_S)"
    ),
    "span.*.total_s": "cumulative wall-clock seconds inside the span",
    # -- structured warnings (Telemetry.warn) ------------------------------
    "warning.estimator.*": (
        "estimator-layer degradations: an unreadable estimation cache "
        "starting cold (warning.estimator.cache_unreadable) or an "
        "unwritable one dropping a record (warning.estimator."
        "cache_unwritable); estimates still succeed"
    ),
    "warning.*": (
        "structured degradation warnings, one counter per warning "
        "name (e.g. warning.parallel.pool_fallback); always paired "
        "with a log record and a trace instant"
    ),
}
