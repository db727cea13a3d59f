"""SEC-DED ECC and bit interleaving — why RMW exists at all.

The chain of reasoning in the paper's Section 2:

1. low-voltage operation raises the soft-error rate, so cache words
   carry ECC — usually single-error-correct/double-error-detect
   (SEC-DED) Hamming codes, because they are small and fast;
2. a single particle strike often upsets *adjacent* cells; if adjacent
   cells belonged to the same word, a strike would produce a multi-bit
   error SEC-DED cannot correct;
3. therefore arrays **bit-interleave**: physically adjacent cells belong
   to different words, converting a spatial multi-bit upset into
   several single-bit (correctable) errors;
4. but interleaving makes all words of a row share word lines — the
   column-selection problem — which for write-optimised 8T cells forces
   Read-Modify-Write.

This module implements each link in that chain: a real Hamming(72,64)
SEC-DED codec, the logical-word-bit to physical-column mapping for an
interleaved row, and an upset model that demonstrates point 3
quantitatively (used by tests and the interleaving ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.utils.validation import check_in_range, check_non_negative
from repro.errors import InvariantViolation, ValidationError

__all__ = [
    "DATA_BITS",
    "CHECK_BITS",
    "CODEWORD_BITS",
    "encode",
    "decode",
    "DecodeResult",
    "InterleavedRowLayout",
]

DATA_BITS = 64
#: 7 Hamming check bits cover 64+7 positions; +1 overall parity = DED.
CHECK_BITS = 8
CODEWORD_BITS = DATA_BITS + CHECK_BITS

# Positions in the (1-indexed) Hamming codeword that hold check bits are
# the powers of two; everything else holds data.  Position 0 is used for
# the overall parity bit.
_HAMMING_POSITIONS = CODEWORD_BITS - 1  # 71 positions, 1..71
_POWER_POSITIONS = (1, 2, 4, 8, 16, 32, 64)
_DATA_POSITIONS = [
    position
    for position in range(1, _HAMMING_POSITIONS + 1)
    if position not in _POWER_POSITIONS
]
if len(_DATA_POSITIONS) != DATA_BITS:  # always-on structural check
    raise InvariantViolation(
        f"Hamming layout broke: {len(_DATA_POSITIONS)} data positions "
        f"for {DATA_BITS} data bits"
    )


def _parity_of(value: int) -> int:
    parity = 0
    while value:
        parity ^= 1
        value &= value - 1
    return parity


def encode(data: int) -> int:
    """Encode a 64-bit word into a 72-bit SEC-DED codeword.

    Bit 0 of the result is the overall parity bit; bits 1..71 are the
    Hamming codeword (check bits at power-of-two positions).
    """
    check_in_range("data", data, 0, (1 << DATA_BITS) - 1)
    codeword = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (data >> bit_index) & 1:
            codeword |= 1 << position
    for power in _POWER_POSITIONS:
        parity = 0
        for position in range(1, _HAMMING_POSITIONS + 1):
            if position & power and (codeword >> position) & 1:
                parity ^= 1
        if parity:
            codeword |= 1 << power
    # Overall parity over positions 1..71 gives double-error detection.
    if _parity_of(codeword >> 1):
        codeword |= 1
    return codeword


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one codeword.

    ``status`` is one of ``"clean"``, ``"corrected"`` (single-bit error
    repaired), or ``"uncorrectable"`` (double-bit error detected — data
    is not trustworthy).
    """

    data: int
    status: str

    @property
    def ok(self) -> bool:
        return self.status != "uncorrectable"


def decode(codeword: int) -> DecodeResult:
    """Decode a 72-bit codeword, correcting up to one flipped bit."""
    check_in_range("codeword", codeword, 0, (1 << CODEWORD_BITS) - 1)
    syndrome = 0
    for power in _POWER_POSITIONS:
        parity = 0
        for position in range(1, _HAMMING_POSITIONS + 1):
            if position & power and (codeword >> position) & 1:
                parity ^= 1
        if parity:
            syndrome |= power
    overall = _parity_of(codeword)

    corrected = codeword
    if syndrome == 0 and overall == 0:
        status = "clean"
    elif overall == 1:
        # Odd number of flips: a single-bit error (possibly in the
        # parity bit itself when syndrome == 0) — correctable.
        if syndrome:
            corrected = codeword ^ (1 << syndrome)
        else:
            corrected = codeword ^ 1
        status = "corrected"
    else:
        # Even flips with nonzero syndrome: double error, detected.
        return DecodeResult(data=_extract(codeword), status="uncorrectable")

    return DecodeResult(data=_extract(corrected), status=status)


def _extract(codeword: int) -> int:
    data = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (codeword >> position) & 1:
            data |= 1 << bit_index
    return data


class InterleavedRowLayout:
    """Logical-bit to physical-column mapping of one array row.

    With interleave factor ``words``, physical column ``c`` holds bit
    ``c // words`` of word ``c % words``: adjacent columns belong to
    different words, so a burst of adjacent upsets spreads across words
    (paper Section 2, citing Kim et al. [4]).  ``words == 1`` models the
    non-interleaved layout of Chang et al. [2], where adjacent columns
    belong to the *same* word.
    """

    def __init__(self, words: int, bits_per_word: int = CODEWORD_BITS) -> None:
        if words < 1:
            raise ValidationError(f"words must be >= 1, got {words}")
        if bits_per_word < 1:
            raise ValidationError(f"bits_per_word must be >= 1, got {bits_per_word}")
        self.words = words
        self.bits_per_word = bits_per_word

    @property
    def columns(self) -> int:
        return self.words * self.bits_per_word

    def physical_column(self, word_index: int, bit_index: int) -> int:
        """Column holding ``bit_index`` of ``word_index``."""
        self._check(word_index, bit_index)
        return bit_index * self.words + word_index

    def logical_position(self, column: int) -> Tuple[int, int]:
        """(word_index, bit_index) stored at a physical column."""
        if not 0 <= column < self.columns:
            raise ValidationError(f"column {column} out of range [0, {self.columns})")
        return column % self.words, column // self.words

    def upset_burst(self, first_column: int, width: int) -> List[Tuple[int, int]]:
        """Logical positions hit by ``width`` adjacent upset columns.

        Models a particle strike flipping a contiguous run of cells.
        Truncated at the row edge.
        """
        check_non_negative("width", width)
        hits = []
        for column in range(first_column, min(first_column + width, self.columns)):
            hits.append(self.logical_position(column))
        return hits

    def errors_per_word(self, first_column: int, width: int) -> dict:
        """Upset bit-count per word for an adjacent burst.

        The quantity that decides correctability: SEC-DED survives as
        long as every word sees at most one flipped bit.
        """
        counts: dict = {}
        for word_index, _bit in self.upset_burst(first_column, width):
            counts[word_index] = counts.get(word_index, 0) + 1
        return counts

    def burst_correctable(self, first_column: int, width: int) -> bool:
        """True when SEC-DED corrects the whole burst.

        The burst covers ``min(width, columns - first_column)`` adjacent
        columns (it is truncated at the row edge), and adjacent columns
        cycle through the ``words`` interleaved words, so no word takes
        two flips exactly when that many columns fit in one cycle — the
        closed form of :meth:`errors_per_word`'s "every count <= 1".
        """
        check_non_negative("width", width)
        return min(width, self.columns - first_column) <= self.words

    def max_correctable_burst(self) -> int:
        """Widest adjacent burst guaranteed correctable anywhere.

        Equals the interleave factor: with ``words`` interleaved words a
        burst of ``words`` adjacent cells touches each word exactly
        once; ``words + 1`` necessarily doubles up somewhere.
        """
        return self.words

    def _check(self, word_index: int, bit_index: int) -> None:
        if not 0 <= word_index < self.words:
            raise ValidationError(
                f"word_index {word_index} out of range [0, {self.words})"
            )
        if not 0 <= bit_index < self.bits_per_word:
            raise ValidationError(
                f"bit_index {bit_index} out of range [0, {self.bits_per_word})"
            )
