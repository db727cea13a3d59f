"""Statistical regression gates over the bench-history ledger.

``repro-8t perf compare`` replaces the hand-pinned speedup floors that
used to live in ``benchmarks/bench_hotpath.py``: instead of a constant
chosen once ("the fast path must stay above 2.0x"), the gate
derives a **rolling baseline** from the last K comparable ledger
entries and fails only on a drop beyond the measured noise.

Methodology
-----------
For each technique, the baseline window's speedups feed the same
mean / sample-standard-deviation statistics the seed-stability analysis
uses (:class:`repro.sim.stability.StabilityResult` — reused directly,
not re-implemented).  The regression threshold is::

    threshold = mean - max(sigma * std, min_band * mean)

* ``sigma * std`` is the noise band proper: a drop within a few
  standard deviations of the historical mean is scheduler jitter, not a
  regression.  ``sigma`` defaults to 3 — the false-positive rate of a
  3-sigma band on roughly normal noise is well under 1 %.
* ``min_band * mean`` is the floor on the band's width: a very quiet
  ledger (tiny std) must not turn the gate into a hair trigger that
  fires on the first normally-noisy CI run.  Defaults to 10 % of the
  mean.
* The threshold never drops below the legacy static floor for the
  technique (when one exists), so the gate is a **ratchet**: history
  can only tighten it, never loosen it below the hand-pinned minimum.

Only current-schema ledger entries measuring the *same workload shape*
(benchmark, geometry, trace length) enter the baseline, and the gate
compares speedup **ratios**, which transfer across machines; absolute
accesses/sec do not and are reported for context only.

With fewer than :data:`MIN_SAMPLES` comparable entries the gate falls
back to the static floor (bootstrap mode) — a brand-new ledger must not
make the perf job vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.perf.ledger import LedgerEntry
from repro.sim.stability import StabilityResult

__all__ = [
    "FALLBACK_SPEEDUP_FLOORS",
    "MIN_SAMPLES",
    "TechniqueGate",
    "GateResult",
    "compare_to_baseline",
]

#: Static bootstrap floors, inherited from the original perf-smoke
#: pins: conservative minima that only apply until the ledger has
#: enough history — and below which the rolling threshold never drops.
FALLBACK_SPEEDUP_FLOORS: Dict[str, float] = {
    "conventional": 2.0,
    "rmw": 2.0,
    "wg": 1.4,
    "wg_rb": 1.4,
}

#: Ledger entries needed before the rolling baseline engages; below
#: this the sample standard deviation is meaningless.
MIN_SAMPLES = 2


@dataclass(frozen=True)
class TechniqueGate:
    """One technique's verdict against the rolling baseline.

    ``source`` says where ``threshold`` came from: ``"ledger"`` (the
    rolling noise band), ``"floor"`` (static bootstrap — not enough
    history), or ``"none"`` (no history *and* no floor: informational
    only, can never regress).
    """

    technique: str
    current_speedup: float
    threshold: float
    source: str
    samples: int
    baseline_mean: float
    baseline_std: float

    @property
    def regressed(self) -> bool:
        return self.source != "none" and self.current_speedup < self.threshold

    def describe(self) -> str:
        if self.source == "ledger":
            basis = (
                f"baseline {self.baseline_mean:.2f}x +/- "
                f"{self.baseline_std:.3f} over {self.samples} runs"
            )
        elif self.source == "floor":
            basis = f"static floor (only {self.samples} comparable runs)"
        else:
            basis = "no baseline"
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.technique}: {self.current_speedup:.2f}x vs "
            f"threshold {self.threshold:.2f}x ({basis}) -> {verdict}"
        )


@dataclass(frozen=True)
class GateResult:
    """All techniques' verdicts for one ``perf compare`` invocation."""

    gates: Tuple[TechniqueGate, ...]
    window: int
    sigma: float
    min_band: float
    comparable_entries: int

    @property
    def regressions(self) -> List[TechniqueGate]:
        return [gate for gate in self.gates if gate.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible gate report (uploaded as a CI artifact)."""
        return {
            "window": self.window,
            "sigma": self.sigma,
            "min_band": self.min_band,
            "comparable_entries": self.comparable_entries,
            "ok": self.ok,
            "gates": [
                {
                    "technique": gate.technique,
                    "current_speedup": gate.current_speedup,
                    "threshold": gate.threshold,
                    "source": gate.source,
                    "samples": gate.samples,
                    "baseline_mean": gate.baseline_mean,
                    "baseline_std": gate.baseline_std,
                    "regressed": gate.regressed,
                }
                for gate in self.gates
            ],
        }


def _current_speedups(results: Sequence[Any]) -> Dict[str, float]:
    """``technique -> speedup`` from BenchResults or their dict form."""
    speedups: Dict[str, float] = {}
    for result in results:
        if hasattr(result, "to_dict"):
            result = result.to_dict()
        if not isinstance(result, dict) or "technique" not in result:
            raise ValidationError(
                "compare_to_baseline needs BenchResult objects or "
                "to_dict() dicts"
            )
        speedups[str(result["technique"])] = float(result["speedup"])
    if not speedups:
        raise ValidationError("no current bench results to gate")
    return speedups


def _gate_one(
    technique: str,
    current: float,
    samples: Sequence[float],
    sigma: float,
    min_band: float,
    floors: Dict[str, float],
) -> TechniqueGate:
    floor = floors.get(technique)
    if len(samples) >= MIN_SAMPLES:
        stats = StabilityResult(
            technique=technique, per_seed_means=tuple(samples)
        )
        band = max(sigma * stats.std, min_band * stats.mean)
        threshold = stats.mean - band
        if floor is not None:
            threshold = max(threshold, floor)
        return TechniqueGate(
            technique=technique,
            current_speedup=current,
            threshold=threshold,
            source="ledger",
            samples=len(samples),
            baseline_mean=stats.mean,
            baseline_std=stats.std,
        )
    if floor is not None:
        return TechniqueGate(
            technique=technique,
            current_speedup=current,
            threshold=floor,
            source="floor",
            samples=len(samples),
            baseline_mean=0.0,
            baseline_std=0.0,
        )
    return TechniqueGate(
        technique=technique,
        current_speedup=current,
        threshold=0.0,
        source="none",
        samples=len(samples),
        baseline_mean=0.0,
        baseline_std=0.0,
    )


def compare_to_baseline(
    current_results: Sequence[Any],
    entries: Sequence[LedgerEntry],
    benchmark: str,
    geometry: str,
    accesses: int,
    window: int = 10,
    sigma: float = 3.0,
    min_band: float = 0.10,
    floors: Optional[Dict[str, float]] = None,
) -> GateResult:
    """Gate ``current_results`` against the rolling ledger baseline.

    ``entries`` is the full parsed ledger (oldest first); only
    current-schema entries matching the ``(benchmark, geometry,
    accesses)`` workload shape are baselined, and of those only the
    newest ``window``.  ``floors`` defaults to
    :data:`FALLBACK_SPEEDUP_FLOORS`.
    """
    if window < MIN_SAMPLES:
        raise ValidationError(
            f"window must be >= {MIN_SAMPLES}, got {window}"
        )
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= min_band < 1.0:
        raise ValidationError(
            f"min_band must be in [0, 1), got {min_band}"
        )
    floors = floors if floors is not None else FALLBACK_SPEEDUP_FLOORS
    speedups = _current_speedups(current_results)
    comparable = [
        entry
        for entry in entries
        if entry.current_schema
        and entry.matches_workload(benchmark, geometry, accesses)
    ]
    recent = comparable[-window:]
    gates = []
    for technique in speedups:
        samples = [
            speedup
            for speedup in (entry.speedup(technique) for entry in recent)
            if speedup is not None
        ]
        gates.append(
            _gate_one(
                technique,
                speedups[technique],
                samples,
                sigma,
                min_band,
                floors,
            )
        )
    return GateResult(
        gates=tuple(gates),
        window=window,
        sigma=sigma,
        min_band=min_band,
        comparable_entries=len(comparable),
    )
