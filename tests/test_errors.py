"""Unit tests for the exception hierarchy.

Beyond subclass relationships, every error class is exercised from the
site its docstring names — so the documented contract ("raised by X")
is executable, not aspirational.
"""

import pytest

from repro.errors import (
    CampaignFailedError,
    ConfigurationError,
    PortConflictError,
    ReproError,
    SimulationError,
    TraceFormatError,
    WorkerCrashError,
    WorkerTimeoutError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            ConfigurationError,
            TraceFormatError,
            SimulationError,
            PortConflictError,
            WorkerTimeoutError,
            WorkerCrashError,
            CampaignFailedError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_retryable_errors_are_simulation_errors(self):
        # The retry loop only retries SimulationError-shaped failures,
        # so the worker-death errors must sit under it.
        for exc_type in (
            PortConflictError,
            WorkerTimeoutError,
            WorkerCrashError,
            CampaignFailedError,
        ):
            assert issubclass(exc_type, SimulationError)

    def test_half_select_violation_in_hierarchy(self):
        from repro.sram.array import HalfSelectViolation

        assert issubclass(HalfSelectViolation, SimulationError)

    def test_injected_fault_in_hierarchy(self):
        from repro.faultinject import InjectedFaultError

        assert issubclass(InjectedFaultError, SimulationError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ConfigurationError("bad config")

    def test_campaign_failed_carries_failed_rows(self):
        from repro.sim.resilience import FailedRow

        rows = (FailedRow("mcf", 3, "WorkerCrashError", "died"),)
        exc = CampaignFailedError("1 benchmark failed", failed_rows=rows)
        assert exc.failed_rows == rows
        assert CampaignFailedError("none").failed_rows == ()


class TestRaisedFromDocumentedSite:
    def test_configuration_error_from_cache_geometry(self):
        from repro.cache.config import CacheGeometry

        with pytest.raises(ConfigurationError):
            CacheGeometry(100, 4, 32)

    def test_trace_format_error_from_text_reader(self, tmp_path):
        from repro.trace.textio import read_text_trace

        path = tmp_path / "bad.trc"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            list(read_text_trace(path))

    def test_trace_format_error_from_binary_reader(self, tmp_path):
        from repro.trace.binio import read_binary_trace

        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 25)
        with pytest.raises(TraceFormatError, match="bad magic"):
            list(read_binary_trace(path))

    def test_port_conflict_error_from_reserve(self):
        from repro.sram.ports import PortKind, PortTracker

        tracker = PortTracker()
        assert tracker.reserve(PortKind.WRITE, 0, 2) == 0
        with pytest.raises(PortConflictError, match="busy until cycle 2"):
            tracker.reserve(PortKind.WRITE, 1, 1)
        assert tracker.conflicts[PortKind.WRITE] == 1
        # The read port is independent — no conflict there.
        assert tracker.reserve(PortKind.READ, 1, 1) == 1

    def test_half_select_violation_from_interleaved_partial_write(self):
        from repro.sram.array import HalfSelectViolation, SRAMArray
        from repro.sram.geometry import ArrayGeometry

        array = SRAMArray(ArrayGeometry(rows=4, words_per_row=8, interleaved=True))
        with pytest.raises(HalfSelectViolation):
            array.write_words(0, {0: 1})

    def test_worker_timeout_error_from_run_supervised(self):
        import time

        from repro.sim.resilience import run_supervised

        with pytest.raises(WorkerTimeoutError):
            run_supervised(time.sleep, 60, timeout_s=0.5)

    def test_worker_crash_error_from_run_supervised(self):
        import os

        from repro.sim.resilience import run_supervised

        with pytest.raises(WorkerCrashError):
            run_supervised(os._exit, 7)

    def test_campaign_failed_error_from_strict_campaign(self, monkeypatch):
        from repro.faultinject import FaultSpec, inject
        from repro.sim.campaign import run_campaign
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.resilience import RetryPolicy

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        config = ExperimentConfig(
            benchmarks=("mcf",), techniques=("rmw",), accesses_per_benchmark=500
        )
        with inject(FaultSpec(kind="transient", benchmark="mcf", until_attempt=9)):
            with pytest.raises(CampaignFailedError):
                run_campaign(config, retry=RetryPolicy.none(), strict=True)
