"""Gate tests: rolling baseline, noise band, ratchet, bootstrap floors."""

import pytest

from repro.errors import ValidationError
from repro.obs.perf import (
    FALLBACK_SPEEDUP_FLOORS,
    compare_to_baseline,
    read_ledger,
)
from tests.obs.perf.conftest import (
    WORKLOAD,
    make_record,
    make_schema1_record,
    result_dict,
)


def gate(results, entries, **kwargs):
    return compare_to_baseline(results, entries, **{**WORKLOAD, **kwargs})


class TestRollingBaseline:
    def test_older_schema_runs_never_enter_the_baseline(self, ledger_path):
        from repro.obs.perf import append_run

        # Schema-1 speedups were batched over scalar: far faster history
        # that would fail today's columnar run if it were baselined.
        for i in range(3):
            append_run(
                ledger_path,
                make_schema1_record(
                    {"conventional": 20.0},
                    timestamp=f"2026-08-0{i + 1}T10:00:00+00:00",
                ),
            )
        result = gate(
            [result_dict("conventional", 2.5)], read_ledger(ledger_path)
        )
        assert result.ok
        assert result.comparable_entries == 0
        (only,) = result.gates
        assert only.source == "floor"

    def test_healthy_run_passes(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        result = gate(
            [result_dict("conventional", 8.1), result_dict("wg", 4.1)],
            entries,
        )
        assert result.ok
        assert result.comparable_entries == 5
        for technique_gate in result.gates:
            assert technique_gate.source == "ledger"
            assert technique_gate.samples == 5

    def test_regression_beyond_band_fails(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        # Baseline mean ~8.04; a 10% min-band puts the threshold ~7.2.
        result = gate([result_dict("conventional", 5.0)], entries)
        assert not result.ok
        (regression,) = result.regressions
        assert regression.technique == "conventional"
        assert regression.regressed
        assert "REGRESSION" in regression.describe()

    def test_drop_within_noise_band_passes(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        # ~5% below the mean: inside the 10% minimum band.
        result = gate([result_dict("conventional", 7.65)], entries)
        assert result.ok

    def test_window_limits_baseline(self, ledger_path):
        # Three slow ancient runs, then two fast recent ones; window=2
        # must baseline on the fast era only.
        for i, speedup in enumerate((2.0, 2.0, 2.0, 8.0, 8.2)):
            from repro.obs.perf import append_run

            append_run(
                ledger_path,
                make_record(
                    {"conventional": speedup},
                    timestamp=f"2026-08-0{i + 1}T10:00:00+00:00",
                ),
            )
        entries = read_ledger(ledger_path)
        result = gate([result_dict("conventional", 6.0)], entries, window=2)
        (technique_gate,) = result.gates
        assert technique_gate.samples == 2
        assert technique_gate.baseline_mean == pytest.approx(8.1)
        assert technique_gate.regressed  # 6.0 is a real drop vs 8.1

    def test_mismatched_workloads_excluded(self, seeded_ledger):
        from repro.obs.perf import append_run

        # A tiny-trace run with absurd speedups must not poison the
        # 200k-access baseline.
        append_run(
            seeded_ledger,
            make_record({"conventional": 50.0}, accesses=1_000),
        )
        entries = read_ledger(seeded_ledger)
        result = gate([result_dict("conventional", 8.0)], entries)
        assert result.comparable_entries == 5
        assert result.ok


class TestRatchet:
    def test_threshold_never_below_static_floor(self, ledger_path):
        from repro.obs.perf import append_run

        # A noisy, slow history would put the rolling threshold under
        # the legacy 2.0x floor; the ratchet must hold the floor.
        for i, speedup in enumerate((2.2, 3.8, 2.4, 3.6)):
            append_run(
                ledger_path,
                make_record(
                    {"conventional": speedup},
                    timestamp=f"2026-08-0{i + 1}T10:00:00+00:00",
                ),
            )
        entries = read_ledger(ledger_path)
        result = gate([result_dict("conventional", 2.1)], entries)
        (technique_gate,) = result.gates
        assert technique_gate.source == "ledger"
        assert technique_gate.threshold == pytest.approx(
            FALLBACK_SPEEDUP_FLOORS["conventional"]
        )
        assert not technique_gate.regressed  # 2.1 >= 2.0 floor

    def test_quiet_history_tightens_past_floor(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        result = gate([result_dict("conventional", 8.0)], entries)
        (technique_gate,) = result.gates
        assert (
            technique_gate.threshold
            > FALLBACK_SPEEDUP_FLOORS["conventional"]
        )


class TestBootstrap:
    def test_empty_ledger_falls_back_to_floor(self):
        result = gate([result_dict("conventional", 2.5)], [])
        (technique_gate,) = result.gates
        assert technique_gate.source == "floor"
        assert technique_gate.threshold == 2.0
        assert result.ok

    def test_empty_ledger_still_catches_gross_regression(self):
        result = gate([result_dict("conventional", 1.2)], [])
        assert not result.ok

    def test_single_sample_is_not_a_baseline(self, ledger_path):
        from repro.obs.perf import append_run

        append_run(ledger_path, make_record({"conventional": 8.0}))
        entries = read_ledger(ledger_path)
        result = gate([result_dict("conventional", 2.5)], entries)
        (technique_gate,) = result.gates
        assert technique_gate.source == "floor"
        assert technique_gate.samples == 1

    def test_unknown_technique_without_floor_is_informational(self):
        result = gate([result_dict("word_write", 1.01)], [])
        (technique_gate,) = result.gates
        assert technique_gate.source == "none"
        assert not technique_gate.regressed
        assert result.ok


class TestValidationAndReport:
    def test_bad_parameters_rejected(self, seeded_ledger):
        entries = read_ledger(seeded_ledger)
        results = [result_dict("conventional", 8.0)]
        with pytest.raises(ValidationError):
            gate(results, entries, window=1)
        with pytest.raises(ValidationError):
            gate(results, entries, sigma=0)
        with pytest.raises(ValidationError):
            gate(results, entries, min_band=1.0)
        with pytest.raises(ValidationError):
            gate([], entries)

    def test_to_dict_is_json_shaped(self, seeded_ledger):
        import json

        entries = read_ledger(seeded_ledger)
        result = gate([result_dict("conventional", 5.0)], entries)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["ok"] is False
        assert payload["comparable_entries"] == 5
        assert payload["gates"][0]["regressed"] is True
