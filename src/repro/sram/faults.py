"""Soft-error injection over SRAM rows.

Completes the paper's motivation chain with a quantitative model: at
low supply voltage the critical charge of a cell falls, so one particle
strike upsets *wider bursts* of adjacent cells (Kim et al. [4], the
paper's citation for why bit interleaving is "commonly used ... and
prevents multi-bit upsets in one word").

The injector throws strikes at a row, draws a burst width whose mean
grows as Vdd shrinks, and asks the :class:`InterleavedRowLayout`
whether per-word SEC-DED survives.  Comparing the interleaved and
non-interleaved layouts across voltage reproduces the trade the paper
builds on: interleaving keeps low-voltage operation reliable — at the
price of the column-selection problem that WG/WG+RB then solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sram.ecc import InterleavedRowLayout
from repro.utils.rng import DeterministicRNG, geometric_stop
from repro.utils.validation import check_in_range, check_positive

__all__ = ["ReliabilityReport", "FaultInjector", "mean_burst_width"]

# Behavioural burst-width curve: ~1 adjacent cell per strike at nominal
# voltage, widening toward several cells near threshold.  The constants
# give mean widths of ~1.2 at 1000 mV and ~3.4 at 400 mV — the right
# order for the multi-cell-upset data the paper's citations report.
_WIDTH_AT_NOMINAL = 1.2
_WIDTH_VOLTAGE_SLOPE = 3.7  # extra mean width per 1000 mV of downscaling
_NOMINAL_MV = 1000.0


def mean_burst_width(vdd_mv: float) -> float:
    """Mean adjacent-cell burst width of one strike at ``vdd_mv``."""
    check_in_range("vdd_mv", vdd_mv, 200.0, 1500.0)
    downscale_v = max(0.0, (_NOMINAL_MV - vdd_mv) / 1000.0)
    return _WIDTH_AT_NOMINAL + _WIDTH_VOLTAGE_SLOPE * downscale_v


@dataclass(frozen=True)
class ReliabilityReport:
    """Outcome of a fault-injection campaign."""

    strikes: int
    corrected: int
    uncorrectable: int
    vdd_mv: float
    interleaved: bool

    @property
    def uncorrectable_fraction(self) -> float:
        return self.uncorrectable / self.strikes if self.strikes else 0.0

    @property
    def corrected_fraction(self) -> float:
        return self.corrected / self.strikes if self.strikes else 0.0


class FaultInjector:
    """Monte-Carlo strike injection against one row layout."""

    def __init__(
        self, layout: InterleavedRowLayout, rng: DeterministicRNG
    ) -> None:
        self.layout = layout
        self._rng = rng

    def inject(self, strikes: int, vdd_mv: float) -> ReliabilityReport:
        """Throw ``strikes`` independent strikes; classify each.

        A strike is *corrected* when every affected word sees at most
        one flipped bit (SEC-DED repairs it), *uncorrectable* otherwise.
        Each strike makes the draws ``randint(0, columns - 1)`` (first
        column) and ``geometric(mean_burst_width(vdd_mv))`` (burst width)
        would, from the stream's bound primitives.
        """
        check_positive("strikes", strikes)
        corrected = 0
        columns = self.layout.columns
        words = self.layout.words
        stop = geometric_stop(mean_burst_width(vdd_mv))
        draw = self._rng.draw
        draw_bits = self._rng.draw_bits
        # ``below(draw_bits, columns)``'s rejection loop, inlined with
        # its bit count hoisted: the same draws (a layout has at least
        # one column, so the range is never empty).
        bits = columns.bit_length()
        for _ in range(strikes):
            first_column = draw_bits(bits)
            while first_column >= columns:
                first_column = draw_bits(bits)
            width = 1
            if stop is not None:
                while draw() >= stop:
                    width += 1
            # InterleavedRowLayout.burst_correctable, inlined (its
            # width check holds here: every width is at least 1).
            if width <= words or columns - first_column <= words:
                corrected += 1
        uncorrectable = strikes - corrected
        return ReliabilityReport(
            strikes=strikes,
            corrected=corrected,
            uncorrectable=uncorrectable,
            vdd_mv=vdd_mv,
            interleaved=self.layout.words > 1,
        )
