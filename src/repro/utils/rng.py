"""Deterministic random sources.

The paper notes that Pin runs are not repeatable, which forced the
authors to evaluate every technique in a single run.  Our substitute
traces are fully repeatable instead: every stochastic component draws
from a :class:`DeterministicRNG` derived from a single experiment seed,
so re-running any figure reproduces it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar
from repro.errors import TypeContractError, ValidationError

T = TypeVar("T")

__all__ = [
    "derive_seed",
    "DeterministicRNG",
    "below",
    "cumulative_weights",
    "fixed_outcome",
    "geometric_stop",
]


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a stable child seed from a root seed and a name path.

    Uses SHA-256 so that unrelated components (e.g. two benchmarks, or
    the address stream vs. the value stream of one benchmark) never see
    correlated randomness even for adjacent seeds.
    """
    payload = repr(root_seed).encode() + b"\x00" + "\x00".join(names).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def fixed_outcome(probability: float) -> Optional[bool]:
    """What :meth:`DeterministicRNG.maybe` returns *without a draw*.

    ``probability <= 0`` is always False and ``>= 1`` always True, and
    neither consumes a draw; ``None`` means the Bernoulli draws
    ``draw() < probability``.
    """
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return None


def geometric_stop(mean: float) -> Optional[float]:
    """Per-trial stop probability of :meth:`DeterministicRNG.geometric`.

    The draw is ``1`` plus one for every ``draw() >= stop``, stopping at
    the first ``draw() < stop``; ``None`` (``mean <= 1``) means the
    constant 1 with no draw.
    """
    if mean <= 1.0:
        return None
    return 1.0 / mean


def cumulative_weights(weights: Sequence[float]) -> Tuple[List[float], float]:
    """:meth:`random.Random.choices`' table for ``weights``.

    Returns the cumulative weights and their float total; a weighted
    draw is index ``bisect_right(cumulative, draw() * total, 0,
    len(cumulative) - 1)``, the arithmetic of ``choices(k=1)``, so a
    table built once makes exactly its draws.
    """
    cumulative = list(accumulate(weights))
    if not cumulative:
        raise ValidationError("weighted draw needs at least one weight")
    total = cumulative[-1] + 0.0
    if not 0.0 < total < float("inf"):
        raise ValidationError(
            f"weights must have a positive finite total, got {total}"
        )
    return cumulative, total


def below(draw_bits: Callable[[int], int], n: int) -> int:
    """Uniform integer in ``[0, n)`` from a ``getrandbits`` primitive.

    CPython's ``randrange`` rejection loop: draw ``n.bit_length()``
    bits, redraw while the result is ``>= n``.  :meth:`randint` is
    defined on it, so both make the same draws as ``random.randint``.
    """
    if n <= 0:
        raise ValidationError(f"empty range: below({n})")
    bits = n.bit_length()
    value = draw_bits(bits)
    while value >= n:
        value = draw_bits(bits)
    return value


class DeterministicRNG:
    """A seeded random source with the handful of draws the library needs.

    Thin wrapper over :mod:`random.Random` that (a) forbids unseeded
    construction and (b) exposes ``fork`` for creating independent child
    streams by name.  Every draw is defined on the two primitives
    :attr:`draw` and :attr:`draw_bits` and the rule helpers above, so a
    hot loop holding the primitives makes exactly the methods' draws.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeContractError(f"seed must be int, got {type(seed).__name__}")
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def draw(self) -> Callable[[], float]:
        """This stream's bound ``random()`` primitive: uniform in [0, 1)."""
        return self._random.random

    @property
    def draw_bits(self) -> Callable[[int], int]:
        """This stream's bound ``getrandbits(k)`` primitive."""
        return self._random.getrandbits

    def fork(self, *names: str) -> "DeterministicRNG":
        """Create an independent child stream identified by ``names``."""
        return DeterministicRNG(derive_seed(self._seed, *names))

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return low + below(self._random.getrandbits, high - low + 1)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly choose one element of a non-empty sequence."""
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one element with the given (unnormalised) weights."""
        cumulative, total = cumulative_weights(weights)
        if len(cumulative) != len(items):
            raise ValidationError(
                f"{len(weights)} weights for {len(items)} items"
            )
        hi = len(cumulative) - 1
        return items[bisect_right(cumulative, self._random.random() * total, 0, hi)]

    def geometric(self, mean: float) -> int:
        """Geometric draw (support >= 1) with the given mean.

        Used for burst lengths; ``mean <= 1`` degenerates to constant 1.
        """
        stop = geometric_stop(mean)
        length = 1
        if stop is not None:
            draw = self._random.random
            while draw() >= stop:
                length += 1
        return length

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def sample_bits(self, width: int) -> int:
        """Uniform ``width``-bit integer."""
        if width <= 0:
            return 0
        return self._random.getrandbits(width)

    def maybe(self, probability: float) -> bool:
        """Bernoulli draw."""
        fixed = fixed_outcome(probability)
        if fixed is not None:
            return fixed
        return self._random.random() < probability

    def state_snapshot(self) -> Optional[tuple]:
        """Expose internal state for tests that assert stream independence."""
        return self._random.getstate()
