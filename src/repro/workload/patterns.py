"""Address-stream pattern engines.

Each pattern walks a private region of the address space and yields
word-aligned byte addresses.  The mixture of patterns in a profile is
what gives each synthetic benchmark its spatial-locality signature —
and spatial locality is what the paper's techniques harvest.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Type

from repro.trace.record import WORD_BYTES
from repro.utils.rng import DeterministicRNG, below, fixed_outcome
from repro.utils.bitops import is_power_of_two
from repro.utils.validation import check_positive
from repro.errors import ValidationError

__all__ = [
    "AddressPattern",
    "SequentialPattern",
    "StridedPattern",
    "RandomPattern",
    "PointerChasePattern",
    "HotspotPattern",
    "make_pattern",
]


#: A zero-argument callable producing a pattern's successive addresses.
AddressSampler = Callable[[], int]


class AddressPattern(abc.ABC):
    """A stateful generator of word-aligned byte addresses.

    Each pattern defines its address rule in :meth:`sampler`: a closure
    bound to one random stream that yields successive addresses and
    keeps the walk position on the pattern, so every sampler of one
    pattern continues the same walk.  Word indices always lie in
    ``[0, region_words)``.

    Args:
        base_address: first byte of the pattern's region (word aligned).
        region_words: number of words in the region.
    """

    def __init__(self, base_address: int, region_words: int) -> None:
        check_positive("region_words", region_words)
        if base_address % WORD_BYTES != 0:
            raise ValidationError(
                f"base_address must be word aligned, got {base_address:#x}"
            )
        self.base_address = base_address
        self.region_words = region_words

    @abc.abstractmethod
    def sampler(self, rng: DeterministicRNG) -> AddressSampler:
        """A closure producing this stream's next addresses from ``rng``."""


class SequentialPattern(AddressPattern):
    """Unit-stride walk, wrapping at the region end.

    Models streaming kernels (bwaves, lbm, libquantum): consecutive
    accesses fall in the same cache block 1 - 1/words_per_block of the
    time, which is the raw material for write grouping.
    """

    def __init__(self, base_address: int, region_words: int) -> None:
        super().__init__(base_address, region_words)
        self._position = 0

    def sampler(self, rng: DeterministicRNG) -> AddressSampler:
        base, region = self.base_address, self.region_words

        def next_address() -> int:
            position = self._position
            self._position = (position + 1) % region
            return base + position * WORD_BYTES

        return next_address


class StridedPattern(AddressPattern):
    """Constant-stride walk (column-major array sweeps, records)."""

    def __init__(
        self, base_address: int, region_words: int, stride_words: int
    ) -> None:
        super().__init__(base_address, region_words)
        check_positive("stride_words", stride_words)
        self.stride_words = stride_words
        self._position = 0

    def sampler(self, rng: DeterministicRNG) -> AddressSampler:
        base, region = self.base_address, self.region_words
        stride = self.stride_words

        def next_address() -> int:
            position = self._position
            self._position = (position + stride) % region
            return base + position * WORD_BYTES

        return next_address


class RandomPattern(AddressPattern):
    """Uniform random words in the region (hash tables, gobmk/sjeng)."""

    def sampler(self, rng: DeterministicRNG) -> AddressSampler:
        base, region, draw_bits = self.base_address, self.region_words, rng.draw_bits
        return lambda: base + below(draw_bits, region) * WORD_BYTES


class PointerChasePattern(AddressPattern):
    """A full-period pseudo-random permutation walk (mcf-style chasing).

    Uses an LCG over a power-of-two region (odd increment, multiplier
    ≡ 1 mod 4) so every word is visited exactly once per period without
    materialising a permutation.
    """

    def __init__(self, base_address: int, region_words: int) -> None:
        if not is_power_of_two(region_words):
            raise ValidationError(
                f"pointer chase needs a power-of-two region, got {region_words}"
            )
        super().__init__(base_address, region_words)
        self._position = 0
        # Full-period LCG parameters for modulus 2^k (Hull-Dobell).
        self._multiplier = 5
        self._increment = 12345 | 1

    def sampler(self, rng: DeterministicRNG) -> AddressSampler:
        base, region = self.base_address, self.region_words
        multiplier, increment = self._multiplier, self._increment

        def next_address() -> int:
            position = self._position
            self._position = (multiplier * position + increment) % region
            return base + position * WORD_BYTES

        return next_address


class HotspotPattern(AddressPattern):
    """A small hot set reused with high probability, else a cold word.

    Models stack frames and frequently written globals — the main source
    of silent stores and tight set reuse in integer codes.
    """

    def __init__(
        self,
        base_address: int,
        region_words: int,
        hot_words: int = 16,
        hot_probability: float = 0.9,
    ) -> None:
        super().__init__(base_address, region_words)
        check_positive("hot_words", hot_words)
        if not 0.0 <= hot_probability <= 1.0:
            raise ValidationError(
                f"hot_probability must be in [0, 1], got {hot_probability}"
            )
        self.hot_words = min(hot_words, region_words)
        self.hot_probability = hot_probability

    def sampler(self, rng: DeterministicRNG) -> AddressSampler:
        """A hot word with ``hot_probability`` (:meth:`DeterministicRNG.maybe`),
        else a word anywhere in the region, each uniform (``randint``)."""
        base, hot, region = self.base_address, self.hot_words, self.region_words
        draw, draw_bits = rng.draw, rng.draw_bits
        probability = self.hot_probability
        fixed = fixed_outcome(probability)
        if fixed is not None:
            words = hot if fixed else region
            return lambda: base + below(draw_bits, words) * WORD_BYTES

        def next_address() -> int:
            words = hot if draw() < probability else region
            return base + below(draw_bits, words) * WORD_BYTES

        return next_address


_PATTERN_KINDS: Dict[str, Type[AddressPattern]] = {
    "sequential": SequentialPattern,
    "strided": StridedPattern,
    "random": RandomPattern,
    "pointer_chase": PointerChasePattern,
    "hotspot": HotspotPattern,
}


def make_pattern(
    kind: str, base_address: int, region_words: int, **kwargs
) -> AddressPattern:
    """Build a pattern engine by kind name."""
    try:
        pattern_class = _PATTERN_KINDS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown pattern kind {kind!r}; known: {sorted(_PATTERN_KINDS)}"
        ) from None
    return pattern_class(base_address, region_words, **kwargs)
