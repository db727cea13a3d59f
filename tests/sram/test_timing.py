"""Unit tests for phase timing parameters."""

import pytest

from repro.sram.timing import PhaseTiming


class TestDefaults:
    def test_buffer_faster_than_array(self):
        """Section 5.5 premise: Set-Buffer access beats array access."""
        timing = PhaseTiming()
        assert timing.set_buffer_cycles <= timing.array_read_cycles


class TestValidation:
    def test_zero_read_rejected(self):
        with pytest.raises(ValueError):
            PhaseTiming(array_read_cycles=0)

    def test_slow_buffer_rejected(self):
        with pytest.raises(ValueError, match="Set-Buffer"):
            PhaseTiming(array_read_cycles=2, set_buffer_cycles=3)

    def test_custom_values(self):
        timing = PhaseTiming(
            array_read_cycles=3,
            array_write_cycles=4,
            set_buffer_cycles=1,
        )
        assert (
            timing.array_read_cycles,
            timing.array_write_cycles,
            timing.set_buffer_cycles,
        ) == (3, 4, 1)
