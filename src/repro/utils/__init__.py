"""Shared low-level utilities used across the reproduction.

The submodules are deliberately tiny and dependency-free:

``bitops``
    Power-of-two and bit-field arithmetic used by address mappers and
    SRAM geometry code.
``validation``
    Argument-checking helpers that raise uniform, descriptive errors.
``rng``
    A thin deterministic random-source wrapper so every simulation run
    is repeatable from a single integer seed.
``tables``
    Plain-text table rendering used by the figure-reproduction reports.
``memo``
    Memo tables that live for one scope (one report), so a report
    computes each distinct trace and timed replay once.
"""

from repro.utils.bitops import (
    bit_mask,
    extract_bits,
    is_power_of_two,
    log2_exact,
    round_up_pow2,
)
from repro.utils.rng import DeterministicRNG, derive_seed
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_type,
)

__all__ = [
    "bit_mask",
    "extract_bits",
    "is_power_of_two",
    "log2_exact",
    "round_up_pow2",
    "DeterministicRNG",
    "derive_seed",
    "format_table",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_power_of_two",
    "check_type",
]
