"""Per-phase latency parameters for array operations.

Default cycle counts reflect the relative costs the paper relies on:
a Set-Buffer access is faster than an array access (Section 5.5 — this
is why WG+RB *improves* read latency).  An RMW occupies both ports
because its read phase feeds its write phase; the timing model starts
the write phase when the read phase finishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive
from repro.errors import ValidationError

__all__ = ["PhaseTiming"]


@dataclass(frozen=True)
class PhaseTiming:
    """Latency (in core cycles) of each array/buffer operation.

    Attributes:
        array_read_cycles: precharge + RWL + sense + mux.
        array_write_cycles: write-driver load + WWL pulse.
        set_buffer_cycles: read or write of the Set-Buffer (a small
            latch array next to the write drivers — faster than the
            full array).
    """

    array_read_cycles: int = 2
    array_write_cycles: int = 2
    set_buffer_cycles: int = 1

    def __post_init__(self) -> None:
        check_positive("array_read_cycles", self.array_read_cycles)
        check_positive("array_write_cycles", self.array_write_cycles)
        check_positive("set_buffer_cycles", self.set_buffer_cycles)
        if self.set_buffer_cycles > self.array_read_cycles:
            raise ValidationError(
                "the Set-Buffer must not be slower than the array "
                "(Section 5.5 premise)"
            )
