"""Unit tests for the soft-error injection model."""

import hashlib
import json

import pytest

from repro.analysis.reliability import reliability_vs_voltage
from repro.sram.ecc import InterleavedRowLayout
from repro.sram.faults import FaultInjector, ReliabilityReport, mean_burst_width
from repro.utils.rng import DeterministicRNG


def digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Digest of ``[[corrected, uncorrectable], ...]`` for 3000 strikes at
#: 200/400/600/800/1000 mV, each from a fresh ``DeterministicRNG(seed)``,
#: keyed by (interleaved words, seed).  Recorded with the per-strike
#: ``randint``/``geometric``/``errors_per_word`` injector.
INJECTION_DIGESTS = {
    (1, 2012): "48d2056bf343ad1b",
    (1, 7): "2ed8096ac3220f94",
    (1, 3): "a805a5741686c279",
    (2, 2012): "d1d2abf4dfccbae0",
    (2, 7): "90d3e407ee8314db",
    (2, 3): "ce4b0048b0f63353",
    (4, 2012): "abaa72ad4ef3c4e7",
    (4, 7): "e6607b4a1e162d55",
    (4, 3): "a21169e55e0d0777",
    (16, 2012): "7a88e7a046dd6122",
    (16, 7): "65442285dc7d28a5",
    (16, 3): "91a0965790cded5b",
}

#: Digest of the default ``reliability_vs_voltage(seed=...)`` rows and
#: summary, recorded the same way.
FIGURE_DIGESTS = {
    2012: "3874d3472a335aa0",
    7: "763b182a17faa13f",
    3: "f62597608e3ef715",
}


class TestBurstWidthCurve:
    def test_widens_as_voltage_drops(self):
        assert mean_burst_width(400.0) > mean_burst_width(700.0)
        assert mean_burst_width(700.0) > mean_burst_width(1000.0)

    def test_nominal_near_single_cell(self):
        assert 1.0 <= mean_burst_width(1000.0) <= 1.5

    def test_low_voltage_multi_cell(self):
        assert mean_burst_width(400.0) > 3.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            mean_burst_width(100.0)


class TestInjection:
    def test_every_strike_classified(self):
        layout = InterleavedRowLayout(words=8)
        injector = FaultInjector(layout, DeterministicRNG(1))
        report = injector.inject(500, vdd_mv=600.0)
        assert report.corrected + report.uncorrectable == 500
        assert 0.0 <= report.uncorrectable_fraction <= 1.0

    def test_interleaving_helps(self):
        rng = DeterministicRNG(2)
        interleaved = FaultInjector(
            InterleavedRowLayout(words=16), rng.fork("a")
        ).inject(4000, vdd_mv=500.0)
        flat = FaultInjector(
            InterleavedRowLayout(words=1, bits_per_word=16 * 72), rng.fork("b")
        ).inject(4000, vdd_mv=500.0)
        assert interleaved.uncorrectable_fraction < flat.uncorrectable_fraction / 3

    def test_low_voltage_is_worse(self):
        layout = InterleavedRowLayout(words=2)
        rng = DeterministicRNG(3)
        high = FaultInjector(layout, rng.fork("high")).inject(4000, 1000.0)
        low = FaultInjector(layout, rng.fork("low")).inject(4000, 400.0)
        assert low.uncorrectable_fraction > high.uncorrectable_fraction

    def test_wide_interleave_nearly_perfect_at_nominal(self):
        layout = InterleavedRowLayout(words=16)
        report = FaultInjector(layout, DeterministicRNG(4)).inject(4000, 1000.0)
        assert report.uncorrectable_fraction < 0.01

    def test_deterministic(self):
        layout = InterleavedRowLayout(words=4)
        a = FaultInjector(layout, DeterministicRNG(5)).inject(1000, 600.0)
        b = FaultInjector(layout, DeterministicRNG(5)).inject(1000, 600.0)
        assert a == b

    def test_report_fields(self):
        layout = InterleavedRowLayout(words=4)
        report = FaultInjector(layout, DeterministicRNG(6)).inject(100, 800.0)
        assert isinstance(report, ReliabilityReport)
        assert report.vdd_mv == 800.0
        assert report.interleaved
        assert report.corrected_fraction == pytest.approx(
            1.0 - report.uncorrectable_fraction
        )

    def test_strikes_positive(self):
        layout = InterleavedRowLayout(words=4)
        with pytest.raises(ValueError):
            FaultInjector(layout, DeterministicRNG(7)).inject(0, 800.0)


class TestReliabilityAnalysis:
    def test_figure_shape(self):
        from repro.analysis.reliability import reliability_vs_voltage

        result = reliability_vs_voltage(strikes=2000)
        assert len(result.rows) == 4
        # Interleaved column always (weakly) better.
        for row in result.rows:
            assert row[1] <= row[2]
        # Non-interleaved degrades sharply at low voltage.
        assert (
            result.summary["flat_uncorrectable_400mv"]
            > result.summary["flat_uncorrectable_1000mv"]
        )


class TestBitIdentity:
    """The injector makes the same draws and classifications it did with
    per-strike ``randint``/``geometric`` calls and the per-word count."""

    @pytest.mark.parametrize("words, seed", sorted(INJECTION_DIGESTS))
    def test_injection_counts(self, words, seed):
        layout = InterleavedRowLayout(words=words)
        reports = []
        for vdd in (200.0, 400.0, 600.0, 800.0, 1000.0):
            report = FaultInjector(layout, DeterministicRNG(seed)).inject(3000, vdd)
            reports.append([report.corrected, report.uncorrectable])
        assert digest(reports) == INJECTION_DIGESTS[(words, seed)]

    @pytest.mark.parametrize("seed", sorted(FIGURE_DIGESTS))
    def test_figure(self, seed):
        figure = reliability_vs_voltage(seed=seed)
        document = {
            "rows": [list(row) for row in figure.rows],
            "summary": figure.summary,
        }
        assert digest(document) == FIGURE_DIGESTS[seed]
