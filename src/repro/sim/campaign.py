"""Benchmark-suite campaigns — the engine behind Figures 9, 10 and 11.

A campaign synthesises one trace per benchmark, replays it through
every technique (with a warm-up slice excluded from accounting) and
collects the per-benchmark access-reduction numbers plus suite
averages.

Inside a memo scope (:func:`repro.utils.memo.memo_scope`; every
``repro-8t report``, ``figure`` and ``power`` run opens one) a row
without telemetry takes the paper's four techniques from one
conventional traversal of its trace: :func:`repro.perf.derive.derive_row`
derives RMW, WG and WG+RB across the warm-up boundary, equal field by
field to a run of their own, and the scope shares the result between
campaigns on the same trace, geometry and warm-up.  Observed rows,
other techniques and campaigns outside a scope run one
:class:`Simulator` per technique (:func:`_run_one`).

Fault tolerance
---------------
Campaigns are the long-running shape of this codebase, so they are
*recoverable*, not merely observable:

* Each benchmark runs under the active :class:`RetryPolicy` —
  transient failures are retried with backoff, and a benchmark that
  exhausts its budget is **quarantined** into
  ``CampaignResult.failed_rows`` instead of aborting the suite
  (``strict=True`` restores fail-fast via
  :class:`CampaignFailedError`).
* With ``result_cache=...`` (or ``--result-cache``) every completed
  row is committed to a durable content-addressed store
  (:class:`repro.store.ResultStore`) keyed on config + workload + code
  version as it finishes.  Resuming an interrupted campaign means
  re-running it against the same store: rows already there are served
  without invoking the simulator, only the missing benchmarks execute,
  and corrupt or version-skewed entries are quarantined and
  transparently recomputed.
* With ``RetryPolicy.breaker_threshold`` set, a benchmark that keeps
  failing trips its circuit breaker and is *skipped* (quarantined as
  ``FailedRow.breaker_skipped``) instead of soaking up retries.
* All degradation events flow through ``repro.obs`` counters
  (``retry.attempt``, ``campaign.quarantined``, ``store.hit``,
  ``breaker.open``, ...).
* Every row is accounted for in ``CampaignResult.health``:
  ``cached + recomputed + quarantined + breaker_skipped == total``.

Per-benchmark *timeouts* need process isolation and therefore live in
:func:`repro.sim.parallel.run_campaign_parallel`; the in-process runner
here honours retries, quarantine and the result store with identical
semantics.

:func:`serialize_row` / :func:`deserialize_row` are the exact
all-integer JSON form of a row, the payload of a stored row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.config import CacheGeometry
from repro.cache.stats import CacheStats
from repro.core.outcomes import OperationCounts
from repro.errors import (
    BreakerOpenError,
    CampaignFailedError,
    ReproError,
    StoreError,
    ValidationError,
)
from repro.faultinject.plan import maybe_inject
from repro.obs.spans import span
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import (
    CircuitBreaker,
    ExecutionPolicy,
    FailedRow,
    RetryPolicy,
    active_policy,
    retry_call,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sram.events import SRAMEventLog
from repro.trace.record import MemoryAccess
from repro.utils.memo import scope_memo
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

__all__ = [
    "BenchmarkRow",
    "CampaignHealth",
    "CampaignResult",
    "run_campaign",
    "run_geometry_sweep",
    "serialize_row",
    "deserialize_row",
    "serialize_result",
    "deserialize_result",
]

#: ``result_cache`` accepts a store root path or an opened
#: :class:`repro.store.ResultStore` (tests share one across runs).
ResultCacheArg = Union[str, Path, object, None]


@dataclass(frozen=True)
class BenchmarkRow:
    """All techniques' results for one benchmark."""

    benchmark: str
    results: Dict[str, SimulationResult]

    def array_accesses(self, technique: str) -> int:
        return self.results[technique].array_accesses

    def access_reduction(self, technique: str, baseline: str = "rmw") -> float:
        baseline_accesses = self.array_accesses(baseline)
        if baseline_accesses == 0:
            return 0.0
        return 1.0 - self.array_accesses(technique) / baseline_accesses

    @property
    def rmw_overhead(self) -> float:
        conventional = self.array_accesses("conventional")
        if conventional == 0:
            return 0.0
        return self.array_accesses("rmw") / conventional - 1.0


@dataclass(frozen=True)
class CampaignHealth:
    """Where every row of a campaign came from (the degradation ledger).

    The four sourcing buckets partition the suite exactly::

        cached + recomputed + quarantined + breaker_skipped == total

    ``cached`` counts rows served from the result store without
    re-simulation (a resumed campaign's finished rows land here).
    ``healed`` counts store entries that failed validation and were
    quarantined + recomputed this run (those rows sit in
    ``recomputed``).
    """

    total: int
    cached: int
    recomputed: int
    quarantined: int
    breaker_skipped: int
    healed: int = 0

    @property
    def consistent(self) -> bool:
        """True when the four buckets account for every row exactly."""
        return (
            self.cached
            + self.recomputed
            + self.quarantined
            + self.breaker_skipped
            == self.total
        )

    def describe(self) -> str:
        parts = [
            f"{self.total} row(s): {self.cached} cached",
            f"{self.recomputed} recomputed",
            f"{self.quarantined} quarantined",
            f"{self.breaker_skipped} breaker-skipped",
        ]
        suffix = f" ({self.healed} healed)" if self.healed else ""
        return ", ".join(parts) + suffix


@dataclass(frozen=True)
class CampaignResult:
    """Suite-wide results for one geometry.

    ``rows`` holds the benchmarks that completed; ``failed_rows`` the
    ones quarantined after exhausting their retry budget or skipped by
    an open circuit breaker (empty unless a non-strict campaign hit
    persistent failures).  Aggregates are computed over the completed
    rows only.  ``health`` records how each row was sourced (cache /
    recompute / quarantine / breaker skip).
    """

    config: ExperimentConfig
    rows: List[BenchmarkRow]
    failed_rows: List[FailedRow] = field(default_factory=list)
    health: Optional[CampaignHealth] = None

    @cached_property
    def _rows_by_benchmark(self) -> Dict[str, BenchmarkRow]:
        # Safe to cache on the frozen instance: rows are assembled once
        # at construction and never mutated afterwards.
        return {row.benchmark: row for row in self.rows}

    @property
    def complete(self) -> bool:
        """True when no benchmark was quarantined."""
        return not self.failed_rows

    def row(self, benchmark: str) -> BenchmarkRow:
        try:
            return self._rows_by_benchmark[benchmark]
        except KeyError:
            raise ValidationError(f"benchmark {benchmark!r} not in campaign") from None

    def mean_reduction(self, technique: str, baseline: str = "rmw") -> float:
        """Arithmetic mean of per-benchmark reductions (the paper's avg)."""
        if not self.rows:
            return 0.0
        return sum(
            row.access_reduction(technique, baseline) for row in self.rows
        ) / len(self.rows)

    def max_reduction(self, technique: str, baseline: str = "rmw") -> float:
        return max(
            (row.access_reduction(technique, baseline) for row in self.rows),
            default=0.0,
        )

    def best_benchmark(self, technique: str, baseline: str = "rmw") -> str:
        """Benchmark with the largest reduction for ``technique``."""
        if not self.rows:
            raise ValidationError("empty campaign")
        return max(
            self.rows, key=lambda row: row.access_reduction(technique, baseline)
        ).benchmark

    @property
    def mean_rmw_overhead(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.rmw_overhead for row in self.rows) / len(self.rows)

    @property
    def max_rmw_overhead(self) -> float:
        return max((row.rmw_overhead for row in self.rows), default=0.0)

    def total_events(self, technique: str) -> SRAMEventLog:
        """Suite-wide event log for one technique (``__add__``-folded)."""
        return sum(
            (row.results[technique].events for row in self.rows),
            SRAMEventLog(),
        )


# -- row serialisation (the stored row payload) -----------------------------------


def _geometry_payload(geometry: CacheGeometry) -> Dict:
    return {
        "size_bytes": geometry.size_bytes,
        "associativity": geometry.associativity,
        "block_bytes": geometry.block_bytes,
        "address_bits": geometry.address_bits,
    }


def serialize_result(result: SimulationResult) -> Dict:
    """JSON payload for one (trace, technique) result — exact, all ints."""
    return {
        "technique": result.technique,
        "geometry": _geometry_payload(result.geometry),
        "requests": result.requests,
        "events": result.events.to_dict(),
        "counts": asdict(result.counts),
        "cache_stats": asdict(result.cache_stats),
    }


def deserialize_result(payload: Dict) -> SimulationResult:
    return SimulationResult(
        technique=payload["technique"],
        geometry=CacheGeometry(**payload["geometry"]),
        requests=payload["requests"],
        events=SRAMEventLog(**payload["events"]),
        counts=OperationCounts(**payload["counts"]),
        cache_stats=CacheStats(**payload["cache_stats"]),
    )


def serialize_row(row: BenchmarkRow) -> Dict:
    """JSON payload for one :class:`BenchmarkRow`."""
    return {
        "benchmark": row.benchmark,
        "results": {
            technique: serialize_result(result)
            for technique, result in row.results.items()
        },
    }


def deserialize_row(payload: Dict) -> BenchmarkRow:
    return BenchmarkRow(
        benchmark=payload["benchmark"],
        results={
            technique: deserialize_result(result)
            for technique, result in payload["results"].items()
        },
    )


def _run_one(
    trace: Sequence[MemoryAccess],
    technique: str,
    config: ExperimentConfig,
    telemetry: Optional[Telemetry] = None,
) -> SimulationResult:
    """One (trace, technique) run with warm-up, on the columnar engine.

    Metrics-only telemetry (registry and interval sampler) rides the
    columnar kernels; a live trace sink sends every chunk through the
    per-access path so each instrumentation point emits its instant.
    """
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    simulator = Simulator(technique, config.geometry, telemetry=telemetry)
    warmup = config.warmup_accesses
    if warmup:
        with span(telem, "warmup", technique=technique):
            simulator.feed(trace[:warmup])
        simulator.reset_measurements()
    with span(telem, "measure", technique=technique):
        simulator.feed(trace[warmup:])
    return simulator.finish()


def execute_row(
    benchmark: str,
    config: ExperimentConfig,
    telemetry: Optional[Telemetry] = None,
    attempt: int = 1,
) -> BenchmarkRow:
    """One benchmark through every technique (the unit of retry).

    Consults the fault-injection hook first, so the harness can crash,
    hang or transiently fail exactly this (benchmark, attempt).  Inside
    a memo scope and without telemetry, the paper's techniques come
    from one traversal (:func:`_derived_results`); every other
    technique, and every technique of an observed row or outside a
    scope, runs :func:`_run_one`.
    """
    maybe_inject("worker", benchmark=benchmark, attempt=attempt)
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    profile = get_profile(benchmark)
    with span(telem, "trace_gen", benchmark=benchmark):
        trace = generate_trace(
            profile, config.accesses_per_benchmark, seed=config.seed
        )
    derived = {} if telem.enabled else _derived_results(trace, config)
    results = {
        technique: (
            derived[technique]
            if technique in derived
            else _run_one(trace, technique, config, telemetry)
        )
        for technique in config.techniques
    }
    return BenchmarkRow(benchmark=benchmark, results=results)


def _derived_results(
    trace: Sequence[MemoryAccess], config: ExperimentConfig
) -> Dict[str, SimulationResult]:
    """The paper's four techniques on ``trace`` from one traversal, or
    nothing outside a memo scope or for a row that runs none of them.

    Inside a scope each (trace, geometry, warm-up) is traversed once
    (:func:`repro.perf.derive.derive_row`), so campaigns on the same
    shared traces, such as Fig 9 and ``claim_rmw``, take their
    techniques from one entry.  An entry keeps the trace, matched by
    identity, and the results.
    """
    memo = scope_memo("sim.derived_rows")
    if memo is None:
        return {}
    from repro.perf.derive import PAPER_TECHNIQUES, derive_row

    if not set(config.techniques).intersection(PAPER_TECHNIQUES):
        return {}
    warmup = config.warmup_accesses
    key = (id(trace), config.geometry, warmup)
    entry = memo.get(key)
    if entry is None or entry[0] is not trace:
        entry = memo[key] = (trace, derive_row(trace, config.geometry, warmup))
    return entry[1]


def emit_degradation(telem: Telemetry, name: str, **details) -> None:
    """Route one degradation event through counters + trace instants."""
    if not telem.enabled:
        return
    telem.registry.inc(name)
    telem.instant(name, category="resilience", **details)


# -- result-store plumbing shared with the parallel runner --------------------------


def _open_result_store(
    result_cache: ResultCacheArg, policy: ExecutionPolicy, telem: Telemetry
):
    """Open (or pass through) the campaign's result store.

    Inside a memo scope (one report) every campaign gets the scope's
    store for its (root, ``max_bytes``), opened once; each campaign
    that takes it points its degradation events at itself.  Outside a
    scope each campaign opens its own.

    An unusable store root *degrades* — the campaign runs uncached
    behind a ``warning.store.open_failed`` — rather than failing work
    that does not need the cache to be correct.
    """
    if result_cache is None:
        return None
    from repro.store import ResultStore

    if isinstance(result_cache, ResultStore):
        return result_cache

    def on_event(name: str, **details) -> None:
        emit_degradation(telem, name, **details)

    max_bytes = policy.result_cache_max_bytes
    opened = scope_memo("sim.result_stores")
    handle = (str(result_cache), max_bytes)
    if opened is not None and handle in opened:
        store = opened[handle]
        store.on_event = on_event
        return store
    try:
        store = ResultStore(result_cache, max_bytes=max_bytes, on_event=on_event)
    except (StoreError, OSError) as exc:
        telem.warn(
            "store.open_failed",
            f"result cache disabled for this campaign: {exc}",
            root=str(result_cache),
        )
        return None
    if opened is not None:
        opened[handle] = store
    return store


def _store_load_row(
    store, config: ExperimentConfig, benchmark: str, telem: Telemetry
) -> Optional[BenchmarkRow]:
    """Validated store lookup -> row, or None on any miss/degradation."""
    try:
        payload = store.get_row(config, benchmark)
    except (ReproError, OSError) as exc:
        telem.warn(
            "store.get_failed",
            f"result-store lookup failed for {benchmark}: {exc}",
            benchmark=benchmark,
        )
        return None
    if payload is None:
        return None
    try:
        return deserialize_row(payload)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        # The entry checksummed but does not decode as a row — a
        # serializer drift the CRC cannot see.  Treat as a miss.
        telem.warn(
            "store.decode_failed",
            f"cached row for {benchmark} does not decode: {exc}",
            benchmark=benchmark,
        )
        return None


def _store_save_row(
    store, config: ExperimentConfig, row: BenchmarkRow, telem: Telemetry
) -> None:
    """Commit a completed row; a failed cache write never fails the row."""
    try:
        store.put_row(config, row.benchmark, serialize_row(row))
    except (ReproError, OSError) as exc:
        telem.warn(
            "store.put_failed",
            f"could not cache row {row.benchmark}: {exc}",
            benchmark=row.benchmark,
        )


def _serve_cached_rows(
    store, config: ExperimentConfig, telem: Telemetry
) -> Tuple[Dict[str, BenchmarkRow], List[str], int]:
    """(rows served from ``store``, benchmarks still to run, healed).

    ``healed`` counts entries found corrupt, quarantined and so left to
    recompute.  Without a store every benchmark is pending.
    """
    cached: Dict[str, BenchmarkRow] = {}
    if store is None:
        return cached, list(config.benchmarks), 0
    pending: List[str] = []
    corrupt_before = store.counters["corrupt"]
    try:
        # The hits' recency goes to the index journal in one append.
        with store.index.batch():
            for benchmark in config.benchmarks:
                row = _store_load_row(store, config, benchmark, telem)
                if row is not None:
                    cached[benchmark] = row
                else:
                    pending.append(benchmark)
    except OSError as exc:
        telem.warn(
            "store.get_failed",
            f"result-store recency of this lookup pass not recorded: {exc}",
        )
    return cached, pending, store.counters["corrupt"] - corrupt_before


def _campaign_result(
    config: ExperimentConfig,
    cached: Dict[str, BenchmarkRow],
    executed: Dict[str, BenchmarkRow],
    failed: List[FailedRow],
    healed: int,
) -> CampaignResult:
    """Rows in ``config.benchmarks`` order plus their health ledger."""
    completed = {**cached, **executed}
    rows = [
        completed[benchmark]
        for benchmark in config.benchmarks
        if benchmark in completed
    ]
    health = CampaignHealth(
        total=len(config.benchmarks),
        cached=len(cached),
        recomputed=len(executed),
        quarantined=sum(1 for f in failed if not f.breaker_skipped),
        breaker_skipped=sum(1 for f in failed if f.breaker_skipped),
        healed=healed,
    )
    return CampaignResult(
        config=config, rows=rows, failed_rows=failed, health=health
    )


def _breaker_for(retry: RetryPolicy) -> Optional[CircuitBreaker]:
    if retry.breaker_threshold is None:
        return None
    return CircuitBreaker(retry.breaker_threshold)


def _resolve(
    retry: Optional[RetryPolicy],
    strict: Optional[bool],
    result_cache: ResultCacheArg = None,
) -> Tuple[RetryPolicy, bool, ResultCacheArg, ExecutionPolicy]:
    policy = active_policy()
    return (
        retry if retry is not None else policy.retry,
        strict if strict is not None else policy.strict,
        result_cache if result_cache is not None else policy.result_cache,
        policy,
    )


def run_campaign(
    config: ExperimentConfig,
    telemetry: Optional[Telemetry] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    strict: Optional[bool] = None,
    result_cache: ResultCacheArg = None,
) -> CampaignResult:
    """Run every benchmark through every technique, in process.

    Parameters left as None fall back to the ambient
    :class:`ExecutionPolicy` (see :func:`execution_policy`); if that
    policy requests multiple processes, execution is delegated to
    :func:`repro.sim.parallel.run_campaign_parallel`.

    With ``result_cache``, rows whose exact (config, workload, code
    version) are already in the store are served from it — zero
    simulator invocations — and each newly computed row is committed
    as soon as it finishes, so an interrupted campaign resumes by
    running again against the same store.  ``CampaignResult.health``
    accounts for every row's provenance either way.

    With ``telemetry``, each campaign phase (trace-gen, warm-up,
    measure) runs under a span and the controllers are instrumented.
    """
    retry, strict, result_cache, policy = _resolve(retry, strict, result_cache)
    if policy.processes is not None and policy.processes > 1:
        from repro.sim.parallel import run_campaign_parallel

        return run_campaign_parallel(
            config,
            processes=policy.processes,
            telemetry=telemetry,
            retry=retry,
            strict=strict,
            result_cache=result_cache,
        )
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    store = _open_result_store(result_cache, policy, telem)
    cached, pending, healed = _serve_cached_rows(store, config, telem)
    executed, failed = _run_rows_resilient(
        pending,
        config,
        telemetry,
        retry,
        strict,
        telem,
        breaker=_breaker_for(retry),
        store=store,
    )
    return _campaign_result(config, cached, executed, failed, healed)


def _run_rows_resilient(
    benchmarks: Sequence[str],
    config: ExperimentConfig,
    telemetry: Optional[Telemetry],
    retry: RetryPolicy,
    strict: bool,
    telem: Telemetry,
    breaker: Optional[CircuitBreaker] = None,
    store=None,
) -> Tuple[Dict[str, BenchmarkRow], List[FailedRow]]:
    """Sequential resilient execution of ``benchmarks`` (shared with
    the parallel runner's ``processes=1`` path); each finished row is
    committed to ``store`` before the next benchmark starts."""
    completed: Dict[str, BenchmarkRow] = {}
    failed: List[FailedRow] = []

    def on_event(name: str, **details) -> None:
        emit_degradation(telem, name, **details)

    for benchmark in benchmarks:
        try:
            row = retry_call(
                lambda attempt, _b=benchmark: execute_row(
                    _b, config, telemetry, attempt
                ),
                policy=retry,
                seed=config.seed,
                name=benchmark,
                on_event=on_event,
                breaker=breaker,
            )
        except ReproError as exc:
            skipped = isinstance(exc, BreakerOpenError)
            failure = FailedRow(
                benchmark=benchmark,
                attempts=(
                    breaker.failures(benchmark)
                    if skipped and breaker is not None
                    else retry.max_attempts
                ),
                error_type=type(exc).__name__,
                error=str(exc),
                breaker_skipped=skipped,
            )
            if strict:
                raise CampaignFailedError(
                    f"campaign failed (strict): {failure.describe()}",
                    failed_rows=[failure],
                ) from exc
            failed.append(failure)
            if skipped:
                emit_degradation(
                    telem, "breaker.skip", benchmark=benchmark
                )
            else:
                emit_degradation(
                    telem,
                    "campaign.quarantined",
                    benchmark=benchmark,
                    error=failure.error_type,
                )
            continue
        completed[benchmark] = row
        if store is not None:
            _store_save_row(store, config, row, telem)
    return completed, failed


def run_geometry_sweep(
    config: ExperimentConfig, geometries: Sequence[CacheGeometry]
) -> Dict[str, CampaignResult]:
    """Run the campaign once per geometry (Figures 10/11).

    Returns results keyed by ``geometry.describe()``.  Each geometry's
    campaign is an independent config, so its rows have their own
    result-store keys and resume separately.
    """
    return {
        geometry.describe(): run_campaign(config.with_geometry(geometry))
        for geometry in geometries
    }
