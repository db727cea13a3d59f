"""Content-addressed keys: ``(config, workload, code) -> key``.

A store key is the sha256 of an entry's *meta* header — the complete
identity of the unit of work it caches:

* ``config`` — everything a row's value depends on from the
  :class:`repro.sim.experiment.ExperimentConfig` **except** the
  benchmark list (geometry, techniques, trace length, warm-up, seed).
  Keying rows individually rather than per-campaign means adding a
  26th benchmark reuses the 25 already cached.
* ``workload`` — the benchmark's :class:`WorkloadProfile` knobs.  The
  config only names the benchmark; the profile's calibrated numbers
  live in code, and retuning ``bwaves`` must invalidate cached
  ``bwaves`` rows without touching the rest.
* ``code`` — :func:`repro.store.version.code_version`.  Same config +
  same workload + different simulator is a different result.

Because the key *is* the digest of the meta, the store can (and does)
cross-check a loaded entry's stored meta against the expectation: any
divergence — a renamed file, a hand-edited header, version skew — is
quarantined, never served.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.store.version import code_version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workload.profile import WorkloadProfile

__all__ = [
    "canonical_json",
    "digest",
    "row_key",
    "row_config_fingerprint",
    "profile_fingerprint",
    "workload_fingerprint",
    "verdict_key",
]

#: Hex digits kept for the intermediate fingerprints inside a meta
#: header (the full entry key stays a whole sha256).
FINGERPRINT_LENGTH = 16


def canonical_json(payload: Dict) -> str:
    """The byte-stable JSON form everything here digests."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def row_config_fingerprint(config) -> str:
    """Identity of one row's config inputs, benchmark-list independent.

    This excludes ``benchmarks``: each row is keyed by its own benchmark
    name, so campaigns that share geometry/techniques/seed share cached
    rows.  Technique order is excluded too (the list is sorted).
    Memoised on the digested values rather than the config, so a config
    holding a technique list (unhashable) works too.
    """
    geometry = config.geometry
    return _config_fingerprint(
        geometry.size_bytes,
        geometry.associativity,
        geometry.block_bytes,
        geometry.address_bits,
        tuple(sorted(config.techniques)),
        config.accesses_per_benchmark,
        config.warmup_fraction,
        config.seed,
    )


# ``typed=True``: ``0`` and ``0.0`` (or ``1`` and ``True``) hash equal
# but dump differently, so they must not share a memoised digest.
@lru_cache(maxsize=256, typed=True)
def _config_fingerprint(
    size_bytes,
    associativity,
    block_bytes,
    address_bits,
    techniques,
    accesses,
    warmup_fraction,
    seed,
) -> str:
    return digest(
        {
            "geometry": {
                "size_bytes": size_bytes,
                "associativity": associativity,
                "block_bytes": block_bytes,
                "address_bits": address_bits,
            },
            "techniques": list(techniques),
            "accesses_per_benchmark": accesses,
            "warmup_fraction": warmup_fraction,
            "seed": seed,
        }
    )[:FINGERPRINT_LENGTH]


def workload_fingerprint(benchmark: str) -> str:
    """Digest of the benchmark's calibrated profile knobs."""
    from repro.workload.spec2006 import get_profile

    return profile_fingerprint(get_profile(benchmark))


@lru_cache(maxsize=256)
def profile_fingerprint(profile: "WorkloadProfile") -> str:
    """Digest of one profile's knobs, memoised on the frozen profile value.

    Keyed on the value rather than the benchmark name, so a retuned
    profile is a new key and gets a new fingerprint.
    """
    return digest(asdict(profile))[:FINGERPRINT_LENGTH]


def row_key(
    config, benchmark: str, code: Optional[str] = None
) -> Tuple[str, Dict[str, object]]:
    """(key, meta) for one cached campaign row.

    The config fingerprint and the key are memoised on the values they
    digest (the meta's, for the key), so a lookup pass and its commits
    hash each row once.  The meta dict is fresh on every call, and a
    new code version (``REPRO_CODE_VERSION`` included) is a new key.
    """
    values = (
        benchmark,
        row_config_fingerprint(config),
        workload_fingerprint(benchmark),
        code if code is not None else code_version(),
    )
    return _row_digest(*values), _row_meta(*values)


def _row_meta(benchmark, config, workload, code) -> Dict[str, object]:
    return {
        "kind": "campaign-row",
        "benchmark": benchmark,
        "config": config,
        "workload": workload,
        "code": code,
    }


@lru_cache(maxsize=1024, typed=True)
def _row_digest(benchmark, config, workload, code) -> str:
    return digest(_row_meta(benchmark, config, workload, code))


def verdict_key(
    entry_document: Dict, invariants: bool, code: Optional[str] = None
) -> Tuple[str, Dict[str, object]]:
    """(key, meta) for one cached ``check`` corpus-replay verdict.

    The case fingerprint hashes the saved repro document *minus* its
    recorded divergences — those are the verdict being cached, not an
    input to it.  ``code`` is part of the meta, so a replay after any
    result-bearing code change misses and genuinely re-runs instead of
    parroting a stale verdict.
    """
    case = {
        key: value
        for key, value in entry_document.items()
        if key != "divergences"
    }
    meta: Dict[str, object] = {
        "kind": "check-verdict",
        "case": digest(case)[:FINGERPRINT_LENGTH],
        "technique": entry_document.get("technique", ""),
        "invariants": bool(invariants),
        "code": code if code is not None else code_version(),
    }
    return digest(meta), meta
