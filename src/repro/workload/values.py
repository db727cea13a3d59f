"""Store-value model.

Silent stores — writes whose value equals what memory already holds —
are 42 % of SPEC 2006 writes on average (paper Figure 5, following
Lepak & Lipasti).  The value model mirrors the program's memory state
and, for each write, either replays the current value (silent, with the
profile's calibrated probability) or produces a fresh distinct value.
Memory starts zero-filled, consistent with the cache substrate's
:class:`FunctionalMemory`.
"""

from __future__ import annotations

from typing import Dict

from repro.trace.record import word_address
from repro.utils.rng import DeterministicRNG, fixed_outcome
from repro.errors import ValidationError

__all__ = ["ValueModel"]


class ValueModel:
    """Produces write values with a target silent-store fraction."""

    def __init__(self, silent_fraction: float, rng: DeterministicRNG) -> None:
        if not 0.0 <= silent_fraction <= 1.0:
            raise ValidationError(
                f"silent_fraction must be in [0, 1], got {silent_fraction}"
            )
        self.silent_fraction = silent_fraction
        # The silent draw is ``rng.maybe(silent_fraction)``, made on the
        # bound primitive because the generator calls this per write.
        self._draw = rng.draw
        self._silent_fixed = fixed_outcome(silent_fraction)
        self._memory: Dict[int, int] = {}
        self._next_fresh = 1
        self.silent_writes = 0
        self.total_writes = 0

    def value_for_write(self, byte_address: int) -> int:
        """Choose the value the program stores at ``byte_address``."""
        self.total_writes += 1
        word = word_address(byte_address)
        current = self._memory.get(word, 0)
        silent = self._silent_fixed
        if silent is None:
            silent = self._draw() < self.silent_fraction
        if silent:
            self.silent_writes += 1
            return current
        value = self._next_fresh
        self._next_fresh += 1
        if value == current:  # pragma: no cover - counter never collides
            value += 1
            self._next_fresh += 1
        self._memory[word] = value
        return value

    def current_value(self, byte_address: int) -> int:
        """Value the model believes memory holds (oracle for tests)."""
        return self._memory.get(word_address(byte_address), 0)

    @property
    def observed_silent_fraction(self) -> float:
        if self.total_writes == 0:
            return 0.0
        return self.silent_writes / self.total_writes
