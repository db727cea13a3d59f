"""Unit tests for address pattern engines."""

import pytest

from repro.trace.record import WORD_BYTES
from repro.utils.rng import DeterministicRNG
from repro.workload.patterns import (
    HotspotPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    make_pattern,
)


@pytest.fixture
def rng():
    return DeterministicRNG(0)


def _take(pattern, rng, count):
    sample = pattern.sampler(rng)
    return [sample() for _ in range(count)]


class TestSequential:
    def test_unit_stride(self, rng):
        pattern = SequentialPattern(base_address=0x1000, region_words=8)
        addresses = _take(pattern, rng, 4)
        assert addresses == [0x1000, 0x1008, 0x1010, 0x1018]

    def test_wraps(self, rng):
        pattern = SequentialPattern(base_address=0, region_words=3)
        addresses = _take(pattern, rng, 4)
        assert addresses[3] == addresses[0]

    def test_samplers_continue_one_walk(self, rng):
        pattern = SequentialPattern(base_address=0, region_words=8)
        first, second = pattern.sampler(rng), pattern.sampler(rng)
        assert [first(), second(), first()] == [0, WORD_BYTES, 2 * WORD_BYTES]

    def test_base_must_be_aligned(self):
        with pytest.raises(ValueError, match="aligned"):
            SequentialPattern(base_address=3, region_words=4)

    def test_region_positive(self):
        with pytest.raises(ValueError):
            SequentialPattern(base_address=0, region_words=0)


class TestStrided:
    def test_stride(self, rng):
        pattern = StridedPattern(base_address=0, region_words=64, stride_words=4)
        addresses = _take(pattern, rng, 3)
        assert addresses == [0, 4 * WORD_BYTES, 8 * WORD_BYTES]

    def test_wraps_modulo_region(self, rng):
        pattern = StridedPattern(base_address=0, region_words=8, stride_words=3)
        addresses = _take(pattern, rng, 9)
        words = [a // WORD_BYTES for a in addresses]
        assert all(0 <= w < 8 for w in words)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            StridedPattern(base_address=0, region_words=8, stride_words=0)


class TestRandom:
    def test_stays_in_region(self, rng):
        pattern = RandomPattern(base_address=0x2000, region_words=16)
        for address in _take(pattern, rng, 200):
            assert 0x2000 <= address < 0x2000 + 16 * WORD_BYTES
            assert address % WORD_BYTES == 0

    def test_covers_region(self, rng):
        pattern = RandomPattern(base_address=0, region_words=4)
        words = {a // WORD_BYTES for a in _take(pattern, rng, 200)}
        assert words == {0, 1, 2, 3}


class TestPointerChase:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            PointerChasePattern(base_address=0, region_words=6)

    def test_full_period_visits_every_word(self, rng):
        pattern = PointerChasePattern(base_address=0, region_words=16)
        words = [a // WORD_BYTES for a in _take(pattern, rng, 16)]
        assert sorted(words) == list(range(16))

    def test_not_sequential(self, rng):
        pattern = PointerChasePattern(base_address=0, region_words=64)
        addresses = _take(pattern, rng, 8)
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas != {WORD_BYTES}


class TestHotspot:
    def test_hot_bias(self, rng):
        pattern = HotspotPattern(
            base_address=0, region_words=1024, hot_words=4, hot_probability=0.9
        )
        hot_hits = sum(a < 4 * WORD_BYTES for a in _take(pattern, rng, 2000))
        assert hot_hits / 2000 > 0.85

    def test_hot_words_clamped_to_region(self, rng):
        pattern = HotspotPattern(
            base_address=0, region_words=2, hot_words=100, hot_probability=1.0
        )
        for address in _take(pattern, rng, 20):
            assert address < 2 * WORD_BYTES

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            HotspotPattern(0, 16, hot_probability=1.5)


class TestFactory:
    def test_builds_each_kind(self):
        assert isinstance(make_pattern("sequential", 0, 8), SequentialPattern)
        assert isinstance(
            make_pattern("strided", 0, 8, stride_words=2), StridedPattern
        )
        assert isinstance(make_pattern("random", 0, 8), RandomPattern)
        assert isinstance(
            make_pattern("pointer_chase", 0, 8), PointerChasePattern
        )
        assert isinstance(make_pattern("hotspot", 0, 8), HotspotPattern)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_pattern("zigzag", 0, 8)
