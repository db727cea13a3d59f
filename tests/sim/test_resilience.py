"""Unit tests for retry policies and supervised worker execution."""

import os
import time

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    ValidationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.sim.resilience import (
    ExecutionPolicy,
    FailedRow,
    RetryPolicy,
    active_policy,
    execution_policy,
    retry_call,
    run_supervised,
)


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.worker_timeout_s is None

    def test_none_is_single_attempt(self):
        assert RetryPolicy.none().max_attempts == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"worker_timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3, jitter=0.0
        )
        delays = [policy.backoff_delay(a) for a in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.25)
        one = policy.backoff_delay(1, seed=7, name="mcf")
        two = policy.backoff_delay(1, seed=7, name="mcf")
        assert one == two

    def test_jitter_varies_by_name_and_stays_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.25)
        delays = {
            policy.backoff_delay(1, seed=7, name=name)
            for name in ("mcf", "gcc", "bwaves")
        }
        assert len(delays) == 3
        for delay in delays:
            assert 0.075 <= delay <= 0.125

    def test_with_timeout(self):
        policy = RetryPolicy().with_timeout(2.5)
        assert policy.worker_timeout_s == 2.5


class TestRetryCall:
    def test_retries_repro_errors_then_succeeds(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise SimulationError("transient")
            return "done"

        events = []
        result = retry_call(
            flaky,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            name="flaky",
            on_event=lambda name, **details: events.append((name, details)),
            sleep=lambda _s: None,
        )
        assert result == "done"
        assert calls == [1, 2, 3]
        assert [name for name, _ in events] == ["retry.attempt", "retry.attempt"]
        assert events[0][1]["target"] == "flaky"

    def test_exhaustion_reraises_last_error(self):
        def always_fails(attempt):
            raise SimulationError(f"attempt {attempt}")

        with pytest.raises(SimulationError, match="attempt 2"):
            retry_call(
                always_fails,
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                sleep=lambda _s: None,
            )

    def test_programming_errors_never_retried(self):
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise TypeError("bug")

        with pytest.raises(TypeError):
            retry_call(broken, policy=RetryPolicy(max_attempts=5), sleep=lambda _s: None)
        assert calls == [1]

    def test_sleeps_backoff_delays(self):
        slept = []

        def fails_twice(attempt):
            if attempt < 3:
                raise SimulationError("again")
            return attempt

        retry_call(
            fails_twice,
            policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.1, multiplier=2.0, jitter=0.0
            ),
            sleep=slept.append,
        )
        assert slept == [0.1, 0.2]


class TestExecutionPolicy:
    def test_default_policy(self):
        policy = active_policy()
        assert policy.strict is False

    def test_stacking(self):
        inner = ExecutionPolicy(strict=True, processes=4)
        with execution_policy(inner) as installed:
            assert installed is inner
            assert active_policy() is inner
            with execution_policy(ExecutionPolicy()):
                assert active_policy().strict is False
            assert active_policy() is inner
        assert active_policy().strict is False

    def test_stack_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with execution_policy(ExecutionPolicy(strict=True)):
                raise RuntimeError("boom")
        assert active_policy().strict is False

    @pytest.mark.parametrize("value", (0, -3))
    @pytest.mark.parametrize("name", ("processes", "result_cache_max_bytes"))
    def test_values_no_campaign_can_use_are_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be positive"):
            ExecutionPolicy(**{name: value})

    def test_positive_values_are_kept(self):
        policy = ExecutionPolicy(processes=1, result_cache_max_bytes=1)
        assert (policy.processes, policy.result_cache_max_bytes) == (1, 1)


# Module-level targets so they survive pickling under spawn contexts.


def _echo(args):
    return ("echo", args)


def _raise_simulation_error(args):
    raise SimulationError(f"injected {args}")


def _exit_hard(args):
    os._exit(29)


def _sleep_forever(_args):
    time.sleep(60)


class TestRunSupervised:
    def test_returns_result(self):
        assert run_supervised(_echo, 42) == ("echo", 42)

    def test_worker_exception_rebuilt(self):
        with pytest.raises(SimulationError, match="injected boom"):
            run_supervised(_raise_simulation_error, "boom")

    def test_crash_raises_worker_crash_error(self):
        events = []
        with pytest.raises(WorkerCrashError, match="exit code 29"):
            run_supervised(
                _exit_hard,
                None,
                label="crashy",
                on_event=lambda name, **details: events.append((name, details)),
            )
        assert events and events[0][0] == "worker.crash"
        assert events[0][1]["exit_code"] == 29

    def test_timeout_kills_and_raises(self):
        events = []
        start = time.monotonic()
        with pytest.raises(WorkerTimeoutError, match="budget"):
            run_supervised(
                _sleep_forever,
                None,
                timeout_s=0.5,
                label="sleepy",
                on_event=lambda name, **details: events.append(name),
            )
        assert time.monotonic() - start < 30.0
        assert "worker.timeout" in events


class TestFailedRow:
    def test_describe(self):
        failure = FailedRow(
            benchmark="mcf", attempts=3, error_type="SimulationError", error="x"
        )
        text = failure.describe()
        assert "mcf" in text and "3" in text and "SimulationError" in text
