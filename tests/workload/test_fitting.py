"""Unit and round-trip tests for profile fitting."""

import pytest

from repro.trace.binio import read_binary_trace, write_binary_trace
from repro.trace.stats import collect_statistics
from repro.utils.bitops import round_up_pow2
from repro.workload.fitting import fit_profile
from repro.workload.generator import generate_trace
from repro.workload.kernels import run_kernel
from repro.workload.profile import StreamSpec, WorkloadProfile
from repro.workload.spec2006 import benchmark_names, get_profile


class TestValidation:
    def test_short_trace_rejected(self):
        trace = run_kernel("histogram", words=64)[:50]
        with pytest.raises(ValueError, match="at least 100"):
            fit_profile(trace)

    def test_read_only_trace_rejected(self):
        trace = [a for a in run_kernel("binary_search", words=512) if a.is_read]
        with pytest.raises(ValueError, match="both reads and writes"):
            fit_profile(trace[:500])


class TestEstimators:
    def test_frequencies_recovered(self):
        source = get_profile("gcc")
        trace = generate_trace(source, 15_000, seed=5)
        fitted = fit_profile(trace)
        assert fitted.read_frequency == pytest.approx(
            source.read_frequency, abs=0.06
        )
        assert fitted.write_frequency == pytest.approx(
            source.write_frequency, abs=0.06
        )

    def test_silent_fraction_recovered(self):
        source = get_profile("bwaves")  # 77 % silent
        trace = generate_trace(source, 15_000, seed=6)
        fitted = fit_profile(trace)
        assert fitted.silent_fraction == pytest.approx(0.77, abs=0.05)

    def test_burstiness_ordering_recovered(self):
        """bwaves (burst 5.5) must fit as burstier than mcf (1.5)."""
        bursty = fit_profile(generate_trace(get_profile("bwaves"), 12_000))
        choppy = fit_profile(generate_trace(get_profile("mcf"), 12_000))
        assert bursty.burst_mean > choppy.burst_mean + 1.0

    def test_persistence_ordering_recovered(self):
        sticky = fit_profile(generate_trace(get_profile("lbm"), 12_000))
        loose = fit_profile(generate_trace(get_profile("sjeng"), 12_000))
        assert sticky.type_persistence > loose.type_persistence

    def test_spatial_mix_reflects_source(self):
        """A streaming source fits with sequential-dominated streams."""
        fitted = fit_profile(
            generate_trace(get_profile("libquantum"), 12_000)
        )
        weights = {spec.kind: spec.weight for spec in fitted.streams}
        assert weights["sequential"] > weights["random"]


class TestRoundTrip:
    def test_regenerated_trace_matches_key_statistics(self):
        """Generate from the fitted profile; Figures 3/5-level stats
        should land near the original's."""
        source_trace = generate_trace(get_profile("wrf"), 15_000, seed=9)
        fitted = fit_profile(source_trace, name="wrf-fit")
        regenerated = generate_trace(fitted, 15_000, seed=10)
        source_stats = collect_statistics(source_trace)
        refit_stats = collect_statistics(regenerated)
        assert refit_stats.write_share_of_accesses == pytest.approx(
            source_stats.write_share_of_accesses, abs=0.08
        )
        assert refit_stats.silent_write_fraction == pytest.approx(
            source_stats.silent_write_fraction, abs=0.08
        )

    def test_fits_kernel_traces(self):
        """Kernel traces (the mechanistic source) are fittable too."""
        trace = run_kernel("stream_triad", words=3000)
        fitted = fit_profile(trace, name="triad-fit")
        assert isinstance(fitted, WorkloadProfile)
        assert fitted.name == "triad-fit"
        # Triad writes 1/3 of accesses.
        assert fitted.write_share == pytest.approx(1 / 3, abs=0.08)

    def test_fitted_profile_is_usable(self):
        """The fitted profile must drive the whole pipeline."""
        from repro.cache.config import BASELINE_GEOMETRY
        from repro.sim.comparison import compare_techniques

        fitted = fit_profile(generate_trace(get_profile("hmmer"), 8_000))
        trace = generate_trace(fitted, 5_000)
        comparison = compare_techniques(
            trace, BASELINE_GEOMETRY, techniques=("rmw", "wg")
        )
        assert comparison.access_reduction("wg") > 0.0


def record_fit(trace, name="fitted"):
    """:func:`fit_profile`'s estimates computed record by record: the
    per-access reference its column estimators must equal exactly."""
    stats = collect_statistics(list(trace))
    read_frequency = min(0.6, max(0.01, stats.read_frequency))
    write_frequency = min(0.6, max(0.01, stats.write_frequency))
    if read_frequency + write_frequency >= 1.0:
        scale = 0.95 / (read_frequency + write_frequency)
        read_frequency *= scale
        write_frequency *= scale
    pairs = list(zip(trace, trace[1:]))
    distances = [abs(b.address // 32 - a.address // 32) for a, b in pairs]
    runs, current = [], 1
    for distance in distances:
        if distance <= 1:
            current += 1
        else:
            runs.append(current)
            current = 1
    runs.append(current)
    observed = sum(a.kind is b.kind for a, b in pairs) / len(pairs)
    share = stats.write_share_of_accesses
    base = share**2 + (1.0 - share) ** 2
    rho = 0.0 if base >= 1.0 else (observed - base) / (1.0 - base)
    spatial = {
        "sequential": sum(d <= 1 for d in distances),
        "strided": sum(1 < d <= 16 for d in distances),
        "random": sum(d > 16 for d in distances),
    }
    footprint_words = len({access.word for access in trace})
    region_kib = max(8, round_up_pow2(footprint_words * 8 // 1024 or 1))
    return WorkloadProfile(
        name=name,
        read_frequency=read_frequency,
        write_frequency=write_frequency,
        silent_fraction=stats.silent_write_fraction,
        burst_mean=max(1.0, sum(runs) / len(runs)),
        type_persistence=min(1.0, max(0.0, rho)),
        streams=tuple(
            StreamSpec(
                kind,
                weight=max(count / len(distances), 0.02),
                region_kib=region_kib,
            )
            for kind, count in spatial.items()
        ),
        description=f"fitted from a {len(trace)}-access trace",
    )


class TestColumnEstimators:
    """The estimators run on columns; records and columns of one trace
    fit to the same profile, field for field, as the per-record
    reference does."""

    @pytest.mark.parametrize("seed", (2012, 7))
    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_records_and_columns_fit_alike(self, profile_name, seed):
        columns = generate_trace(get_profile(profile_name), 2_000, seed=seed)
        records = list(columns)
        expected = record_fit(records, name=profile_name)
        assert fit_profile(columns, name=profile_name) == expected
        assert fit_profile(records, name=profile_name) == expected

    def test_decoded_rptrace2_file(self, tmp_path):
        trace = generate_trace(get_profile("bwaves"), 5_000, seed=7)
        path = tmp_path / "t.rpt"
        write_binary_trace(path, trace, crc=True)
        decoded = read_binary_trace(path)
        assert fit_profile(decoded) == fit_profile(trace) == record_fit(trace)

    def test_kernel_trace(self):
        trace = run_kernel("histogram", words=2_000)
        assert fit_profile(trace, name="h") == record_fit(trace, name="h")
