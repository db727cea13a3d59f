"""End-to-end fault-tolerance tests: crash, hang, transient and resume.

Every test asserts the *strong* property: a campaign that survived
injected faults (or was interrupted and resumed from its result store)
produces results bit-identical to an undisturbed run.  The serialisation layer is exact
(all-integer payloads), so equality of serialised rows is equality of
results.
"""

import signal
import sys
import time

import pytest

from repro.errors import CampaignFailedError
from repro.faultinject import FaultSpec, inject
from repro.obs import Telemetry
from repro.sim import parallel
from repro.sim.campaign import run_campaign, serialize_row
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import RetryPolicy
from repro.store import ResultStore, row_key

BENCHMARKS = ("bwaves", "mcf", "gcc")

#: Retries with zero backoff so fault-healing tests stay fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)

@pytest.fixture(autouse=True)
def no_leftover_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        benchmarks=BENCHMARKS,
        techniques=("conventional", "rmw", "wg"),
        accesses_per_benchmark=2000,
        seed=13,
    )


@pytest.fixture(scope="module")
def clean(config):
    """Reference result from an undisturbed sequential run."""
    return run_campaign(config)


def payloads(result):
    """Exact serialised form of every completed row, keyed by benchmark."""
    return {row.benchmark: serialize_row(row) for row in result.rows}


class TestTransientFaults:
    def test_sequential_retry_heals_and_is_bit_identical(self, config, clean):
        telemetry = Telemetry()
        with inject(FaultSpec(kind="transient", benchmark="mcf")):
            result = run_campaign(config, telemetry, retry=FAST_RETRY)
        assert result.complete
        assert payloads(result) == payloads(clean)
        assert telemetry.registry.value("retry.attempt") >= 1

    def test_parallel_retry_heals_and_is_bit_identical(self, config, clean):
        telemetry = Telemetry()
        with inject(FaultSpec(kind="transient", benchmark="mcf")):
            result = run_campaign(
                config, processes=2, telemetry=telemetry, retry=FAST_RETRY
            )
        assert result.complete
        assert payloads(result) == payloads(clean)
        assert telemetry.registry.value("retry.attempt") >= 1

    def test_exhausted_retries_quarantine_not_raise(self, config, clean):
        telemetry = Telemetry()
        permanent = FaultSpec(kind="transient", benchmark="gcc", until_attempt=99)
        with inject(permanent):
            result = run_campaign(
                config, telemetry, retry=RetryPolicy(max_attempts=2, base_delay_s=0.0)
            )
        assert not result.complete
        assert [f.benchmark for f in result.failed_rows] == ["gcc"]
        failure = result.failed_rows[0]
        assert failure.error_type == "InjectedFaultError"
        assert failure.attempts == 2
        # The healthy benchmarks still completed, bit-identical.
        reference = payloads(clean)
        assert payloads(result) == {
            name: reference[name] for name in ("bwaves", "mcf")
        }
        assert telemetry.registry.value("campaign.quarantined") == 1
        with pytest.raises(ValueError):
            result.row("gcc")

    def test_strict_mode_raises(self, config):
        permanent = FaultSpec(kind="transient", benchmark="gcc", until_attempt=99)
        with inject(permanent):
            with pytest.raises(CampaignFailedError) as excinfo:
                run_campaign(
                    config, retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                    strict=True,
                )
        assert [f.benchmark for f in excinfo.value.failed_rows] == ["gcc"]


class TestProcessDeath:
    def test_crash_quarantined_and_counted(self, config, clean):
        telemetry = Telemetry()
        with inject(FaultSpec(kind="crash", benchmark="gcc", until_attempt=99)):
            result = run_campaign(
                config,
                processes=2,
                telemetry=telemetry,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )
        assert [f.benchmark for f in result.failed_rows] == ["gcc"]
        assert result.failed_rows[0].error_type == "WorkerCrashError"
        reference = payloads(clean)
        assert payloads(result) == {
            name: reference[name] for name in ("bwaves", "mcf")
        }
        assert telemetry.registry.value("worker.crash") == 2
        assert telemetry.registry.value("campaign.quarantined") == 1

    def test_crash_healed_by_retry(self, config, clean):
        with inject(FaultSpec(kind="crash", benchmark="mcf", until_attempt=1)):
            result = run_campaign(config, processes=2, retry=FAST_RETRY)
        assert result.complete
        assert payloads(result) == payloads(clean)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM") or sys.platform == "win32",
        reason="hang teardown relies on POSIX signal semantics",
    )
    def test_hang_terminated_by_worker_timeout(self, config, clean):
        telemetry = Telemetry()
        with inject(FaultSpec(kind="hang", benchmark="mcf", until_attempt=99)):
            result = run_campaign(
                config,
                processes=2,
                telemetry=telemetry,
                retry=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, worker_timeout_s=1.0
                ),
            )
        assert [f.benchmark for f in result.failed_rows] == ["mcf"]
        assert result.failed_rows[0].error_type == "WorkerTimeoutError"
        assert telemetry.registry.value("worker.timeout") == 2
        reference = payloads(clean)
        assert payloads(result) == {
            name: reference[name] for name in ("bwaves", "gcc")
        }


class TestResumeFromStore:
    """Resume means re-running against the same result store."""

    def test_interrupted_then_resumed_is_bit_identical(
        self, config, clean, tmp_path
    ):
        store = tmp_path / "store"
        # First run: gcc permanently failing stands in for an interrupt —
        # bwaves and mcf land in the store, gcc does not.
        with inject(
            FaultSpec(kind="transient", benchmark="gcc", until_attempt=99)
        ):
            partial = run_campaign(
                config,
                retry=RetryPolicy.none(),
                result_cache=store,
            )
        assert not partial.complete
        assert {row.benchmark for row in partial.rows} == {"bwaves", "mcf"}

        # Second run: fault gone.  Only gcc re-runs; the stored rows
        # come back verbatim and the whole result matches a clean run.
        telemetry = Telemetry()
        resumed = run_campaign(config, telemetry, result_cache=store)
        assert resumed.complete
        assert payloads(resumed) == payloads(clean)
        assert telemetry.registry.value("store.hit") == 2
        assert (resumed.health.cached, resumed.health.recomputed) == (2, 1)

    def test_parallel_resume_is_bit_identical(self, config, clean, tmp_path):
        store = tmp_path / "store"
        with inject(
            FaultSpec(kind="transient", benchmark="mcf", until_attempt=99)
        ):
            run_campaign(
                config,
                processes=2,
                retry=RetryPolicy.none(),
                result_cache=store,
            )
        telemetry = Telemetry()
        resumed = run_campaign(
            config, processes=2, telemetry=telemetry, result_cache=store
        )
        assert resumed.complete
        assert payloads(resumed) == payloads(clean)
        assert telemetry.registry.value("store.hit") == 2

    def test_completed_store_reruns_nothing(self, config, clean, tmp_path):
        store = tmp_path / "store"
        run_campaign(config, result_cache=store)
        # A permanent wildcard fault proves no benchmark actually re-runs.
        with inject(FaultSpec(kind="transient", until_attempt=99)):
            resumed = run_campaign(
                config, retry=RetryPolicy.none(), result_cache=store
            )
        assert resumed.complete
        assert payloads(resumed) == payloads(clean)

    def test_parallel_rows_are_stored_before_the_last_job_ends(
        self, config, clean, tmp_path, monkeypatch
    ):
        """A killed ``--processes N`` run keeps every row folded so far."""
        store = ResultStore(tmp_path / "store")
        earlier = [
            store._object_path(row_key(config, benchmark)[0])
            for benchmark in BENCHMARKS[:-1]
        ]
        seen = []
        supervise = parallel._supervise_job

        def last_job_waits(benchmark, *args, **kwargs):
            if benchmark == BENCHMARKS[-1]:
                deadline = time.monotonic() + 30.0
                while not all(path.exists() for path in earlier):
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
                seen.append(all(path.exists() for path in earlier))
            return supervise(benchmark, *args, **kwargs)

        monkeypatch.setattr(parallel, "_supervise_job", last_job_waits)
        result = run_campaign(config, processes=2, result_cache=store)
        assert seen == [True]
        assert payloads(result) == payloads(clean)


class TestDeterministicOrdering:
    def test_parallel_rows_follow_config_order(self, config, clean):
        # Delay the *first* benchmark so it finishes last; row order must
        # still follow the config, not completion time.
        with inject(
            FaultSpec(
                kind="delay", benchmark="bwaves", seconds=0.4, until_attempt=99
            )
        ):
            result = run_campaign(config, processes=3)
        assert [row.benchmark for row in result.rows] == list(BENCHMARKS)
        assert payloads(result) == payloads(clean)
