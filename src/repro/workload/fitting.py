"""Fit a workload profile to an observed trace.

Closes the loop between the two trace sources: given any trace — an
instrumented kernel, a converted real trace file, or another tool's
output — estimate the :class:`WorkloadProfile` knobs that would make
the synthetic generator mimic it.  Useful for (a) calibrating profiles
from real measurements when they exist, and (b) sanity-checking the
generator (fitting a synthetic trace should roughly recover its own
knobs — property-tested).

Estimators (all on the trace's columns, so records are never built):

* read/write frequency — directly from :class:`TraceStatistics`;
* silent fraction — directly from the value stream;
* burst_mean — from the mean run length of *consecutive same-block*
  accesses (the observable footprint of stream bursts);
* type_persistence — from P(kind_i == kind_{i-1}), inverted through
  the stationary mixing identity p_obs = rho + (1-rho)*(r^2 + w^2);
* stream mix — a coarse spatial classification: fraction of accesses
  whose block distance to the previous access is 0/1 (sequential-ish),
  small (strided/hot) or large (random/pointer), mapped to a
  three-stream mixture.

The block distances are one NumPy difference over the block column
(``addresses >> 5``), and the kind changes one over the kinds column.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy

from repro.trace.columns import TraceColumns
from repro.trace.record import WORD_BYTES, MemoryAccess
from repro.trace.stats import collect_statistics
from repro.utils.bitops import round_up_pow2
from repro.workload.profile import StreamSpec, WorkloadProfile
from repro.errors import ValidationError

# Bound as ``Any``: the estimators are pinned by the fitting tests, and
# NumPy's stubs would only add casts.
np: Any = numpy

__all__ = ["fit_profile"]

_BLOCK_SHIFT = 5  # classification granularity: 32 B (baseline block size)


def _estimate_burst_mean(steps: Any) -> float:
    """Mean run length of consecutive same-block accesses, floor 1.

    ``steps`` holds the block distance between each pair of adjacent
    accesses; a run continues while it is at most 1, so the runs
    partition the trace's ``len(steps) + 1`` accesses.
    """
    runs = int(np.count_nonzero(steps > 1)) + 1
    return max(1.0, (len(steps) + 1) / runs)


def _estimate_persistence(kinds: Any, stats) -> float:
    """Invert P(same kind) = rho + (1-rho)(r^2+w^2) for rho."""
    if len(kinds) < 2:
        return 0.5
    same_kind = int(np.count_nonzero(kinds[1:] == kinds[:-1]))
    observed = same_kind / (len(kinds) - 1)
    write_share = stats.write_share_of_accesses
    base = write_share**2 + (1.0 - write_share) ** 2
    if base >= 1.0:
        return 0.0
    rho = (observed - base) / (1.0 - base)
    return min(1.0, max(0.0, rho))


def _classify_spatial(steps: Any) -> Dict[str, float]:
    """Fractions of near/strided/far transitions between accesses."""
    near = int(np.count_nonzero(steps <= 1))
    far = int(np.count_nonzero(steps > 16))
    counts = {
        "sequential": near,
        "strided": len(steps) - near - far,
        "random": far,
    }
    total = max(1, len(steps))
    return {kind: count / total for kind, count in counts.items()}


def fit_profile(
    trace: Sequence[MemoryAccess], name: str = "fitted"
) -> WorkloadProfile:
    """Estimate a :class:`WorkloadProfile` from a trace.

    Raises ``ValueError`` for traces too short to estimate from
    (< 100 accesses) or with no reads or no writes (the profile model
    requires both).
    """
    columns = TraceColumns.of(trace)
    if len(columns) < 100:
        raise ValidationError(
            f"need at least 100 accesses to fit a profile, got {len(columns)}"
        )
    stats = collect_statistics(columns)
    if stats.reads == 0 or stats.writes == 0:
        raise ValidationError("trace must contain both reads and writes")

    read_frequency = min(0.6, max(0.01, stats.read_frequency))
    write_frequency = min(0.6, max(0.01, stats.write_frequency))
    if read_frequency + write_frequency >= 1.0:
        scale = 0.95 / (read_frequency + write_frequency)
        read_frequency *= scale
        write_frequency *= scale

    addresses = columns.addresses
    footprint_words = len(np.unique(addresses // WORD_BYTES))
    region_kib = max(8, round_up_pow2(footprint_words * 8 // 1024 or 1))
    steps = np.abs(np.diff((addresses >> _BLOCK_SHIFT).astype(np.int64)))
    spatial = _classify_spatial(steps)
    streams = tuple(
        StreamSpec(kind, weight=max(share, 0.02), region_kib=region_kib)
        for kind, share in spatial.items()
    )

    return WorkloadProfile(
        name=name,
        read_frequency=read_frequency,
        write_frequency=write_frequency,
        silent_fraction=stats.silent_write_fraction,
        burst_mean=_estimate_burst_mean(steps),
        type_persistence=_estimate_persistence(columns.kinds, stats),
        streams=streams,
        description=f"fitted from a {len(columns)}-access trace",
    )
