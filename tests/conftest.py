"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.cache.config import CacheGeometry
from repro.sim.simulator import Simulator
from repro.trace.record import AccessType, MemoryAccess, WORD_BYTES


def make_random_trace(
    num_accesses: int,
    seed: int = 0,
    word_span: int = 256,
    write_share: float = 0.4,
    silent_share: float = 0.3,
    icount_gap: int = 3,
) -> List[MemoryAccess]:
    """A small random trace with a compact footprint.

    The compact footprint (``word_span`` words) forces heavy set reuse
    and — on tiny cache geometries — fills, evictions and Set-Buffer
    flushes, which is exactly what the consistency properties need to
    stress.  Values mirror a functional memory so silent writes occur at
    roughly ``silent_share``.
    """
    rng = random.Random(seed)
    memory = {}
    trace: List[MemoryAccess] = []
    icount = 0
    fresh = 1
    for _ in range(num_accesses):
        icount += rng.randint(1, icount_gap)
        word = rng.randrange(word_span)
        address = word * WORD_BYTES
        if rng.random() < write_share:
            if rng.random() < silent_share:
                value = memory.get(word, 0)
            else:
                value = fresh
                fresh += 1
                memory[word] = value
            trace.append(
                MemoryAccess(
                    icount=icount,
                    kind=AccessType.WRITE,
                    address=address,
                    value=value,
                )
            )
        else:
            trace.append(
                MemoryAccess(icount=icount, kind=AccessType.READ, address=address)
            )
    return trace


class ScalarSimulator(Simulator):
    """A :class:`Simulator` that feeds every record through
    ``controller.process``: the scalar reference the columnar engine is
    checked against, with the same warm-up reset and result snapshot."""

    def feed(self, trace):
        process = self.controller.process
        for access in trace:
            process(access)
            self._requests += 1


def oracle_read_values(trace) -> List[Optional[int]]:
    """Expected value of every read under simple sequential semantics."""
    memory = {}
    values: List[Optional[int]] = []
    for access in trace:
        if access.is_write:
            memory[access.word] = access.value
            values.append(None)
        else:
            values.append(memory.get(access.word, 0))
    return values


def oracle_final_memory(trace) -> dict:
    """Final word->value memory state under sequential semantics."""
    memory = {}
    for access in trace:
        if access.is_write:
            memory[access.word] = access.value
    return {word: value for word, value in memory.items() if value != 0}


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """A deliberately tiny cache: 512 B, 2-way, 32 B blocks, 8 sets.

    Small enough that random traces cause constant fills/evictions.
    """
    return CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """4 KB, 4-way, 32 B blocks — 32 sets."""
    return CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=32)


@pytest.fixture
def baseline_geometry() -> CacheGeometry:
    """The paper's 64 KB / 4-way / 32 B baseline."""
    return CacheGeometry(size_bytes=64 * 1024, associativity=4, block_bytes=32)
