"""Multi-technique comparison on a single trace.

The paper evaluates every technique in one Pin run (Pin is not
repeatable).  We get the same apples-to-apples guarantee a cleaner way:
the trace is materialised once and replayed through each technique on a
fresh cache + memory, so all techniques see the identical request
stream.

The headline metric (Figures 9-11) is::

    reduction(t) = 1 - array_accesses(t) / array_accesses(rmw)

and the RMW-overhead claim of Section 1 is::

    overhead = array_accesses(rmw) / array_accesses(conventional) - 1
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cache.config import CacheGeometry
from repro.obs.spans import span
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.resilience import RetryPolicy, active_policy, retry_call
from repro.sim.simulator import SimulationResult, run_simulation
from repro.trace.record import MemoryAccess
from repro.errors import TypeContractError, ValidationError

__all__ = ["ComparisonResult", "compare_techniques"]

DEFAULT_TECHNIQUES = ("conventional", "rmw", "wg", "wg_rb")


@dataclass(frozen=True)
class ComparisonResult:
    """Per-technique results for one trace on one geometry."""

    geometry: CacheGeometry
    results: Dict[str, SimulationResult]

    def result(self, technique: str) -> SimulationResult:
        try:
            return self.results[technique]
        except KeyError:
            raise ValidationError(
                f"technique {technique!r} was not simulated; "
                f"have {sorted(self.results)}"
            ) from None

    def access_reduction(self, technique: str, baseline: str = "rmw") -> float:
        """Fractional access reduction of ``technique`` vs ``baseline``."""
        baseline_accesses = self.result(baseline).array_accesses
        if baseline_accesses == 0:
            return 0.0
        return 1.0 - self.result(technique).array_accesses / baseline_accesses

    @property
    def rmw_overhead(self) -> float:
        """Access-frequency increase of RMW over a conventional cache."""
        conventional = self.result("conventional").array_accesses
        if conventional == 0:
            return 0.0
        return self.result("rmw").array_accesses / conventional - 1.0


def compare_techniques(
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    techniques: Sequence[str] = DEFAULT_TECHNIQUES,
    telemetry: Optional[Telemetry] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint=None,
    **controller_kwargs,
) -> ComparisonResult:
    """Replay ``trace`` through each technique on a fresh cache.

    ``trace`` must be a materialised sequence (not a one-shot iterator),
    because it is replayed once per technique.  With ``telemetry`` the
    controllers are instrumented and each technique's replay runs under
    a ``simulate.<technique>`` span.

    Each technique replays under the active :class:`RetryPolicy`
    (transient failures retry with backoff; a comparison missing its
    baseline is useless, so exhaustion raises rather than quarantines).
    With ``checkpoint=...``, finished techniques journal to a file
    fingerprinted on (trace, geometry, techniques) and are not re-run
    on resume.  Both default from the ambient execution policy.
    """
    if isinstance(trace, Iterator):
        raise TypeContractError(
            "trace must be a reusable sequence; call "
            "repro.trace.materialize() on generators first"
        )
    policy = active_policy()
    retry = retry if retry is not None else policy.retry
    checkpoint = checkpoint if checkpoint is not None else policy.checkpoint
    telem = telemetry if telemetry is not None else NULL_TELEMETRY

    journal = None
    results: Dict[str, SimulationResult] = {}
    if checkpoint is not None:
        from repro.sim import checkpoint as ckpt

        journal = ckpt.as_store(checkpoint).open_comparison(
            trace, geometry, techniques, controller_kwargs
        )
        for technique in techniques:
            payload = journal.rows.get(technique)
            if payload is not None:
                results[technique] = ckpt.deserialize_result(payload)
        if results and telem.enabled:
            telem.registry.inc("checkpoint.resumed_rows", len(results))

    def on_event(name: str, **details) -> None:
        if telem.enabled:
            telem.registry.inc(name)
            telem.instant(name, category="resilience", **details)

    try:
        for technique in techniques:
            if technique in results:
                continue
            with span(telem, f"simulate.{technique}", requests=len(trace)):
                results[technique] = retry_call(
                    lambda _attempt, _t=technique: run_simulation(
                        trace, _t, geometry, telemetry=telemetry,
                        **controller_kwargs,
                    ),
                    policy=retry,
                    name=technique,
                    on_event=on_event,
                )
            if journal is not None:
                from repro.sim import checkpoint as ckpt

                journal.append(
                    technique, ckpt.serialize_result(results[technique])
                )
    finally:
        if journal is not None:
            journal.close()
    return ComparisonResult(geometry=geometry, results=results)
