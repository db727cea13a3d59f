"""Deterministic trace fuzzer biased toward the simulator's hard corners.

Every generator draws from a :class:`random.Random` seeded through
:func:`repro.utils.rng.derive_seed`, so a campaign is fully reproducible
from ``(seed, iteration)`` — rerunning ``repro-8t check --seed 0``
regenerates the exact traces, geometries, batch sizes and knobs.

The scenarios target the places where the columnar kernels diverge
from a naive per-request loop:

* ``write_runs`` — long same-set write runs with lengths chosen to
  straddle the (deliberately tiny) fuzzed batch sizes, so runs span
  chunk boundaries while the Set-Buffer is dirty;
* ``silent_dirty`` — silent and dirty writes interleaved on the same
  words (value-tracking makes silent writes genuinely silent);
* ``buffered_reads`` — reads to Set-Buffer-resident sets (premature
  write-backs under WG, bypasses under WG+RB);
* ``eviction_storm`` — more live tags than ways per set, mostly writes,
  so fills constantly evict dirty victims and flush the buffer;
* ``way_alias`` — a small tag pool aliasing across the ways of a few
  sets, stressing tag-probe and victim-choice agreement;
* ``mixed`` — an unbiased blend as a control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.config import CacheGeometry
from repro.trace.record import AccessType, MemoryAccess, WORD_BYTES
from repro.utils.rng import derive_seed
from repro.errors import ValidationError

__all__ = ["FuzzCase", "TraceFuzzer", "SCENARIO_NAMES", "FUZZ_GEOMETRIES"]

FUZZ_GEOMETRIES: Tuple[CacheGeometry, ...] = (
    # Tiny caches so short traces still cause fills, evictions and
    # Set-Buffer flushes; one wide-block geometry for offset coverage.
    CacheGeometry(size_bytes=512, associativity=2, block_bytes=32),
    CacheGeometry(size_bytes=1024, associativity=4, block_bytes=32),
    CacheGeometry(size_bytes=2048, associativity=2, block_bytes=64),
)

#: Batch sizes biased small so multi-access patterns cross boundaries.
_BATCH_SIZES = (1, 2, 3, 5, 7, 13, 32, 256)


@dataclass(frozen=True)
class FuzzCase:
    """One generated differential test case (minus the technique)."""

    scenario: str
    geometry: CacheGeometry
    trace: Tuple[MemoryAccess, ...]
    batch_size: int
    count_miss_traffic: bool = False
    detect_silent_writes: bool = True
    entries: int = 1

    def knobs(self) -> Dict[str, object]:
        return {
            "count_miss_traffic": self.count_miss_traffic,
            "detect_silent_writes": self.detect_silent_writes,
            "entries": self.entries,
        }


class _TraceBuilder:
    """Accumulates accesses with value tracking for true silent writes."""

    def __init__(self, rng: random.Random, geometry: CacheGeometry) -> None:
        self.rng = rng
        self.geometry = geometry
        self._memory: Dict[int, int] = {}
        self._accesses: List[MemoryAccess] = []
        self._icount = 0
        self._fresh = 1

    def address(self, set_index: int, tag: int, word_offset: int) -> int:
        g = self.geometry
        return (
            (tag << (g.offset_bits + g.index_bits))
            | (set_index << g.offset_bits)
            | (word_offset * WORD_BYTES)
        )

    def read(self, address: int) -> None:
        self._icount += self.rng.randint(1, 3)
        self._accesses.append(
            MemoryAccess(
                icount=self._icount, kind=AccessType.READ, address=address
            )
        )

    def write(self, address: int, silent: bool = False) -> None:
        word = address // WORD_BYTES
        if silent:
            # The last value architecturally stored at this word; a cache
            # or buffer holding anything else is itself a bug the
            # differential check will surface.
            value = self._memory.get(word, 0)
        else:
            value = self._fresh
            self._fresh += 1
            self._memory[word] = value
        self._icount += self.rng.randint(1, 3)
        self._accesses.append(
            MemoryAccess(
                icount=self._icount,
                kind=AccessType.WRITE,
                address=address,
                value=value,
            )
        )

    def build(self) -> Tuple[MemoryAccess, ...]:
        return tuple(self._accesses)


# -- scenario generators ----------------------------------------------------
# Each takes (builder, length) and appends ~length accesses.


def _gen_mixed(b: _TraceBuilder, length: int) -> None:
    g, rng = b.geometry, b.rng
    sets = min(g.num_sets, 4)
    for _ in range(length):
        address = b.address(
            rng.randrange(sets),
            rng.randrange(g.associativity + 2),
            rng.randrange(g.words_per_block),
        )
        if rng.random() < 0.5:
            b.write(address, silent=rng.random() < 0.3)
        else:
            b.read(address)


def _gen_write_runs(b: _TraceBuilder, length: int) -> None:
    """Maximal same-set write runs sized to straddle batch boundaries."""
    g, rng = b.geometry, b.rng
    sets = min(g.num_sets, 3)
    produced = 0
    while produced < length:
        set_index = rng.randrange(sets)
        run = rng.choice((2, 3, 5, 7, 8, 13, 14, 15, 17, 29))
        for _ in range(min(run, length - produced)):
            address = b.address(
                set_index,
                rng.randrange(g.associativity + 1),
                rng.randrange(g.words_per_block),
            )
            b.write(address, silent=rng.random() < 0.25)
            produced += 1
        if produced < length and rng.random() < 0.4:
            # A read (sometimes to the buffered set) between runs.
            b.read(
                b.address(
                    set_index if rng.random() < 0.6 else rng.randrange(sets),
                    rng.randrange(g.associativity + 1),
                    rng.randrange(g.words_per_block),
                )
            )
            produced += 1


def _gen_silent_dirty(b: _TraceBuilder, length: int) -> None:
    """Silent and dirty writes interleaved on a handful of words."""
    g, rng = b.geometry, b.rng
    hot = [
        b.address(
            rng.randrange(min(g.num_sets, 2)),
            rng.randrange(g.associativity),
            rng.randrange(g.words_per_block),
        )
        for _ in range(4)
    ]
    for _ in range(length):
        address = rng.choice(hot)
        roll = rng.random()
        if roll < 0.45:
            b.write(address, silent=True)
        elif roll < 0.85:
            b.write(address, silent=False)
        else:
            b.read(address)


def _gen_buffered_reads(b: _TraceBuilder, length: int) -> None:
    """Writes establish a buffered set, then reads hit it repeatedly."""
    g, rng = b.geometry, b.rng
    sets = min(g.num_sets, 3)
    produced = 0
    while produced < length:
        set_index = rng.randrange(sets)
        tags = [rng.randrange(g.associativity) for _ in range(2)]
        for tag in tags:
            if produced >= length:
                break
            b.write(
                b.address(set_index, tag, rng.randrange(g.words_per_block)),
                silent=rng.random() < 0.2,
            )
            produced += 1
        for _ in range(rng.randint(1, 4)):
            if produced >= length:
                break
            b.read(
                b.address(
                    set_index,
                    rng.choice(tags),
                    rng.randrange(g.words_per_block),
                )
            )
            produced += 1


def _gen_eviction_storm(b: _TraceBuilder, length: int) -> None:
    """More live tags than ways: every few accesses evict a dirty block."""
    g, rng = b.geometry, b.rng
    sets = min(g.num_sets, 2)
    tag_pool = g.associativity + 2
    for _ in range(length):
        address = b.address(
            rng.randrange(sets),
            rng.randrange(tag_pool),
            rng.randrange(g.words_per_block),
        )
        if rng.random() < 0.75:
            b.write(address, silent=rng.random() < 0.15)
        else:
            b.read(address)


def _gen_way_alias(b: _TraceBuilder, length: int) -> None:
    """A tag pool exactly filling the ways, aliasing reads over writes."""
    g, rng = b.geometry, b.rng
    set_index = rng.randrange(min(g.num_sets, 4))
    tags = list(range(g.associativity))
    for _ in range(length):
        address = b.address(
            set_index, rng.choice(tags), rng.randrange(g.words_per_block)
        )
        if rng.random() < 0.55:
            b.write(address, silent=rng.random() < 0.35)
        else:
            b.read(address)


_SCENARIOS: Dict[str, Callable[[_TraceBuilder, int], None]] = {
    "mixed": _gen_mixed,
    "write_runs": _gen_write_runs,
    "silent_dirty": _gen_silent_dirty,
    "buffered_reads": _gen_buffered_reads,
    "eviction_storm": _gen_eviction_storm,
    "way_alias": _gen_way_alias,
}

SCENARIO_NAMES: Tuple[str, ...] = tuple(_SCENARIOS)


class TraceFuzzer:
    """Seeded generator of :class:`FuzzCase` objects.

    ``case(iteration)`` is a pure function of ``(seed, iteration)``:
    the same pair always regenerates the identical case, which is what
    makes corpus-free reproduction possible (``repro-8t check --seed S``
    plus an iteration number *is* the repro).
    """

    def __init__(
        self,
        seed: int = 0,
        max_accesses: int = 400,
        geometries: Optional[Tuple[CacheGeometry, ...]] = None,
    ) -> None:
        if max_accesses <= 0:
            raise ValidationError(
                f"max_accesses must be positive, got {max_accesses}"
            )
        self.seed = seed
        self.max_accesses = max_accesses
        self.geometries = geometries if geometries else FUZZ_GEOMETRIES

    def case(self, iteration: int) -> FuzzCase:
        """Deterministically generate case number ``iteration``."""
        rng = random.Random(
            derive_seed(self.seed, "check.fuzz", str(iteration))
        )
        scenario = SCENARIO_NAMES[iteration % len(SCENARIO_NAMES)]
        geometry = rng.choice(self.geometries)
        length = rng.randint(max(16, self.max_accesses // 8), self.max_accesses)
        builder = _TraceBuilder(rng, geometry)
        _SCENARIOS[scenario](builder, length)
        return FuzzCase(
            scenario=scenario,
            geometry=geometry,
            trace=builder.build(),
            batch_size=rng.choice(_BATCH_SIZES),
            count_miss_traffic=rng.random() < 0.25,
            detect_silent_writes=rng.random() >= 0.2,
            entries=rng.choice((1, 1, 1, 2, 3)),
        )
