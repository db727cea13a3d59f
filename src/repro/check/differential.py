"""Three-way differential check: oracle vs scalar vs columnar.

One :func:`run_differential` call replays a single trace through

* the :class:`repro.check.oracle.ReferenceOracle` (independent model),
* the scalar path (``CacheController.process`` per record), and
* the columnar engine (:class:`repro.sim.simulator.Simulator`),

then compares every observable the models share: per-read values
(oracle vs scalar, access by access), circuit events, operation counts,
hit/miss statistics, and the final memory image after draining the
controller and flushing every dirty line.  The telemetry leg rides
along: the scalar reference runs under
``Telemetry(sampler=IntervalSampler(TELEMETRY_WINDOW))``, one more
columnar run does too, and the two must agree on :func:`observed_state`
— the registry (``span.*`` timings aside) and every interval snapshot.
So does the timing leg: :class:`repro.perf.timing.TimingSimulator`, at
the case's batch size, must match every :class:`PerfResult` field of
:func:`repro.check.timing.reference_timing`, the per-access schedule
over the scalar run's outcomes.  For RMW, WG and WG+RB at default knobs
(no miss-traffic accounting; for the WG family silent-write detection
on and one Set-Buffer entry) the leg also derives the technique from a
conventional replay (:mod:`repro.perf.derive`, whose tag walk takes
the trace whole at any batch size) and holds the derived
:class:`PerfResult` to the same reference, and its events, counts and
statistics to the scalar run's, never to conventional's; the trail leg
holds the miss trail of that traversal's tag walk
(:func:`repro.perf.derive.traverse`) to the scalar run's misses, so a
wrong trail is named as such, not only through the derived counts.  The
derived-row leg does the same across a warm-up boundary: at default
knobs each of the paper's four techniques, taken from a campaign row's
one traversal (:func:`repro.perf.derive.derive_row`, measured after
the first ``len(trace) // ROW_WARMUP_DIVISOR`` requests), must equal
the controller's per-access run whose measurements reset at that
boundary.
The return value is a flat list of human-readable divergence strings —
empty means the models agree on everything.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.check.oracle import ORACLE_TECHNIQUES, OracleRun, ReferenceOracle
from repro.check.timing import reference_timing
from repro.core.registry import make_controller
from repro.obs.sampler import IntervalSampler, IntervalSnapshot
from repro.obs.telemetry import Telemetry
from repro.perf.derive import (
    DERIVED_TECHNIQUES,
    PAPER_TECHNIQUES,
    derive_row,
    traverse,
)
from repro.perf.timing import TimingSimulator
from repro.sim.simulator import Simulator
from repro.trace.record import MemoryAccess

__all__ = ["run_differential", "observed_state", "WG_FAMILY"]

WG_FAMILY = ("wg", "wg_rb")
"""Techniques that accept the Set-Buffer knobs."""

TELEMETRY_WINDOW = 11
"""Sampler window of the telemetry leg.  Small, so a fuzz trace crosses
many window boundaries; prime, so with any batch size the fuzzer draws
most boundaries fall mid-chunk and every ``batch_size``-th one at a
chunk end."""

ROW_WARMUP_DIVISOR = 3
"""The derived-row leg measures after the first third of the trace, so
resident blocks and open Set-Buffer windows cross the warm-up
boundary."""


def _controller_kwargs(
    technique: str,
    count_miss_traffic: bool,
    detect_silent_writes: bool,
    entries: int,
) -> Dict[str, object]:
    kwargs: Dict[str, object] = {"count_miss_traffic": count_miss_traffic}
    if technique in WG_FAMILY:
        kwargs["detect_silent_writes"] = detect_silent_writes
        kwargs["entries"] = entries
    return kwargs


#: ``observed_state`` of one run: registry state without ``span.*``,
#: and the sampler's snapshots.
ObservedState = Tuple[Dict[str, Dict[str, Any]], List[IntervalSnapshot]]


def _run_scalar(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    kwargs: Dict[str, object],
    invariants: bool,
):
    """Scalar reference run, observed for the telemetry leg; returns
    (controller, cache, outcomes, memory, observed state)."""
    memory = FunctionalMemory()
    cache = SetAssociativeCache(geometry, memory)
    telemetry = Telemetry(sampler=IntervalSampler(TELEMETRY_WINDOW))
    controller = make_controller(technique, cache, telemetry=telemetry, **kwargs)
    if invariants:
        controller.enable_invariant_checks()
    outcomes = controller.run(list(trace))
    cache.flush_all_dirty()
    return controller, cache, outcomes, memory.snapshot(), observed_state(telemetry)


def _run_columnar(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    kwargs: Dict[str, object],
    batch_size: Optional[int],
):
    simulator = Simulator(technique, geometry, batch_size=batch_size, **kwargs)
    simulator.feed(list(trace))
    result = simulator.finish()
    simulator.cache.flush_all_dirty()
    return result, simulator.memory.snapshot()


def _diff_mapping(
    label: str, reference: Dict[str, int], candidate: Dict[str, int]
) -> List[str]:
    return [
        f"{label}.{name}: {reference[name]} != {candidate[name]}"
        for name in sorted(reference)
        if reference[name] != candidate.get(name)
    ]


def _as_dict(obj) -> Dict[str, int]:
    return {
        f.name: getattr(obj, f.name) for f in dataclass_fields(type(obj))
    }


def _nonzero(memory: Dict[int, int]) -> Dict[int, int]:
    return {word: value for word, value in memory.items() if value != 0}


def run_differential(
    trace: Iterable[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    batch_size: Optional[int] = None,
    count_miss_traffic: bool = False,
    detect_silent_writes: bool = True,
    entries: int = 1,
    invariants: bool = False,
) -> List[str]:
    """Replay ``trace`` through every model; returns divergences.

    ``invariants=True`` additionally runs the scalar engine with the
    inline invariant checker enabled (structural checks after every
    access); an :class:`repro.errors.InvariantViolation` propagates so
    the caller sees the exact broken invariant, not a downstream diff.
    """
    trace = list(trace)
    kwargs = _controller_kwargs(
        technique, count_miss_traffic, detect_silent_writes, entries
    )

    controller, cache, outcomes, scalar_memory, scalar_observed = _run_scalar(
        trace, technique, geometry, kwargs, invariants
    )

    divergences: List[str] = []

    # -- scalar vs columnar: must be bit-identical --------------------------
    candidate, candidate_memory = _run_columnar(
        trace, technique, geometry, kwargs, batch_size
    )
    label = "scalar-vs-columnar"
    divergences += _diff_mapping(
        f"{label} events",
        controller.events.to_dict(),
        candidate.events.to_dict(),
    )
    divergences += _diff_mapping(
        f"{label} counts",
        _as_dict(controller.counts),
        _as_dict(candidate.counts),
    )
    divergences += _diff_mapping(
        f"{label} stats",
        _as_dict(cache.stats),
        _as_dict(candidate.cache_stats),
    )
    if scalar_memory != candidate_memory:
        delta = {
            word
            for word in set(scalar_memory) | set(candidate_memory)
            if scalar_memory.get(word, 0) != candidate_memory.get(word, 0)
        }
        divergences.append(
            f"{label} memory: "
            f"{len(delta)} word(s) differ, first at word "
            f"{min(delta)}"
        )

    divergences += _diff_telemetry(
        scalar_observed,
        _observed_columnar(trace, technique, geometry, kwargs, batch_size),
    )

    # -- per-access timing reference vs the vectorised schedule -------------
    reference = _as_dict(reference_timing(trace, outcomes, controller))
    divergences += _diff_mapping(
        "reference-vs-timing",
        reference,
        _as_dict(
            TimingSimulator(
                technique, geometry, batch_size=batch_size, **kwargs
            ).run(trace)
        ),
    )
    at_default_knobs = kwargs == _controller_kwargs(technique, False, True, 1)
    if technique in DERIVED_TECHNIQUES and at_default_knobs:
        traversal = TimingSimulator("conventional", geometry)
        traversal.run(trace, (technique,))
        perf, derived = traversal.replays[technique]
        divergences += _diff_mapping("reference-vs-derived", reference, _as_dict(perf))
        divergences += _diff_mapping(
            "scalar-vs-derived events",
            controller.events.to_dict(),
            derived.events.to_dict(),
        )
        divergences += _diff_mapping(
            "scalar-vs-derived counts",
            _as_dict(controller.counts),
            _as_dict(derived.counts),
        )
        divergences += _diff_mapping(
            "scalar-vs-derived stats",
            _as_dict(cache.stats),
            _as_dict(derived.cache_stats),
        )
        divergences += _diff_trail(trace, outcomes, geometry)
    if technique in PAPER_TECHNIQUES and at_default_knobs:
        divergences += _diff_derived_row(trace, technique, geometry)

    # -- oracle vs scalar ---------------------------------------------------
    if technique in ORACLE_TECHNIQUES:
        oracle_run = ReferenceOracle(
            technique,
            geometry,
            count_miss_traffic=count_miss_traffic,
            detect_silent_writes=detect_silent_writes,
            entries=entries,
        ).run(trace)
        divergences += _diff_oracle(
            oracle_run, trace, outcomes, controller, cache, scalar_memory
        )
    return divergences


def _diff_trail(
    trace: Sequence[MemoryAccess],
    outcomes: Sequence[Any],
    geometry: CacheGeometry,
) -> List[str]:
    """The tag walk's miss trail against the scalar run's misses: every
    technique hits and misses alike, so the trail is each outcome's
    ``not cache_hit``."""
    walked = traverse(trace, geometry).missed.tolist()
    scalar = [not outcome.cache_hit for outcome in outcomes]
    wrong = [i for i, (a, b) in enumerate(zip(scalar, walked)) if a != b]
    if not wrong:
        return []
    first = wrong[0]
    return [
        f"scalar-vs-walk miss trail: {len(wrong)} request(s) differ, first "
        f"at request {first} (scalar {'miss' if scalar[first] else 'hit'}, "
        f"walk {'miss' if walked[first] else 'hit'})"
    ]


def _diff_derived_row(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
) -> List[str]:
    """``technique`` from a campaign row's one traversal against its
    per-access run, both measured after the same warm-up."""
    warmup = len(trace) // ROW_WARMUP_DIVISOR
    derived = derive_row(trace, geometry, warmup)[technique]
    reference = Simulator(technique, geometry)
    process = reference.controller.process
    for access in trace[:warmup]:
        process(access)
    reference.reset_measurements()
    for access in trace[warmup:]:
        process(access)
    reference.controller.finalize()
    label = f"scalar-vs-derived-row (warm-up {warmup})"
    divergences = _diff_mapping(
        f"{label} events",
        reference.controller.events.to_dict(),
        derived.events.to_dict(),
    )
    divergences += _diff_mapping(
        f"{label} counts",
        _as_dict(reference.controller.counts),
        _as_dict(derived.counts),
    )
    divergences += _diff_mapping(
        f"{label} stats",
        _as_dict(reference.cache.stats),
        _as_dict(derived.cache_stats),
    )
    if derived.requests != len(trace) - warmup:
        divergences.append(
            f"{label} requests: {len(trace) - warmup} != {derived.requests}"
        )
    return divergences


def observed_state(telemetry: Telemetry) -> ObservedState:
    """What an observed run must reproduce on every engine: the registry
    state without the wall-clock ``span.*`` timings, and the sampler's
    snapshots (empty without a sampler)."""
    state = {
        section: {
            name: value
            for name, value in values.items()
            if not name.startswith("span.")
        }
        for section, values in telemetry.registry.state_dict().items()
    }
    sampler = telemetry.sampler
    return state, list(sampler.snapshots) if sampler is not None else []


def _observed_columnar(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    kwargs: Dict[str, object],
    batch_size: Optional[int],
) -> ObservedState:
    telemetry = Telemetry(sampler=IntervalSampler(TELEMETRY_WINDOW))
    simulator = Simulator(
        technique, geometry, telemetry=telemetry, batch_size=batch_size, **kwargs
    )
    simulator.feed(trace)
    simulator.finish()
    return observed_state(telemetry)


def _diff_telemetry(
    reference: ObservedState, candidate: ObservedState
) -> List[str]:
    reference_state, reference_snapshots = reference
    candidate_state, candidate_snapshots = candidate
    label = f"scalar-vs-columnar telemetry (window {TELEMETRY_WINDOW})"
    reference_counters = reference_state["counters"]
    candidate_counters = candidate_state["counters"]
    # ``get`` keeps a counter missing on one side (None) apart from one
    # that exists at zero: lazily created counters must match too.
    divergences = [
        f"{label} counters.{name}: "
        f"{reference_counters.get(name)} != {candidate_counters.get(name)}"
        for name in sorted(set(reference_counters) | set(candidate_counters))
        if reference_counters.get(name) != candidate_counters.get(name)
    ]
    for section in ("gauges", "histograms"):
        if reference_state[section] != candidate_state[section]:
            divergences.append(f"{label} {section} differ")
    for i, (expected, got) in enumerate(
        zip(reference_snapshots, candidate_snapshots)
    ):
        if expected != got:
            divergences.append(f"{label} snapshot {i}: {expected} != {got}")
            break
    if len(reference_snapshots) != len(candidate_snapshots):
        divergences.append(
            f"{label} snapshots: {len(reference_snapshots)} != "
            f"{len(candidate_snapshots)}"
        )
    return divergences


def _diff_oracle(
    oracle_run: OracleRun,
    trace: Sequence[MemoryAccess],
    outcomes,
    controller,
    cache,
    scalar_memory: Dict[int, int],
) -> List[str]:
    divergences: List[str] = []
    for i, (access, outcome, expected) in enumerate(
        zip(trace, outcomes, oracle_run.read_values)
    ):
        if access.is_read and outcome.value != expected:
            divergences.append(
                f"oracle-vs-scalar read value at access {i} "
                f"({access.describe()}): expected {expected}, "
                f"got {outcome.value}"
            )
            break  # one value divergence is enough to localise
    divergences += _diff_mapping(
        "oracle-vs-scalar events",
        oracle_run.events,
        controller.events.to_dict(),
    )
    divergences += _diff_mapping(
        "oracle-vs-scalar counts",
        oracle_run.counts,
        _as_dict(controller.counts),
    )
    divergences += _diff_mapping(
        "oracle-vs-scalar stats", oracle_run.stats, _as_dict(cache.stats)
    )
    scalar_nonzero = _nonzero(scalar_memory)
    if oracle_run.memory != scalar_nonzero:
        delta = {
            word
            for word in set(oracle_run.memory) | set(scalar_nonzero)
            if oracle_run.memory.get(word, 0) != scalar_nonzero.get(word, 0)
        }
        divergences.append(
            "oracle-vs-scalar memory: "
            f"{len(delta)} word(s) differ, first at word {min(delta)}"
        )
    return divergences
