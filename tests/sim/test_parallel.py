"""Unit tests for the campaign runner's two row sources: in process
(``processes`` None or 1) and supervised workers (``processes > 1``)."""

import pytest

from repro.errors import CampaignFailedError, ValidationError
from repro.faultinject import FaultSpec, inject
from repro.sim.campaign import run_campaign, serialize_row
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import RetryPolicy

CONFIG = ExperimentConfig(
    benchmarks=("bwaves", "mcf", "gcc"),
    techniques=("rmw", "wg"),
    accesses_per_benchmark=2500,
)


class TestParallelCampaign:
    def test_matches_sequential_exactly(self):
        """Parallel execution must be bit-identical to sequential."""
        sequential = run_campaign(CONFIG)
        parallel = run_campaign(CONFIG, processes=2)
        for seq_row, par_row in zip(sequential.rows, parallel.rows):
            assert seq_row.benchmark == par_row.benchmark
            for technique in CONFIG.techniques:
                assert (
                    seq_row.results[technique].array_accesses
                    == par_row.results[technique].array_accesses
                )
                assert (
                    seq_row.results[technique].counts
                    == par_row.results[technique].counts
                )

    def test_single_process_fallback(self):
        result = run_campaign(CONFIG, processes=1)
        assert len(result.rows) == 3
        assert result.mean_reduction("wg") > 0

    def test_row_order_preserved(self):
        result = run_campaign(CONFIG, processes=2)
        assert [row.benchmark for row in result.rows] == list(CONFIG.benchmarks)

    def test_row_order_pinned_against_scheduling(self):
        """Completion order must not leak into row order.

        An injected delay makes the *first* benchmark finish last; the
        rows must still come back in config order.
        """
        with inject(
            FaultSpec(
                kind="delay", benchmark="bwaves", seconds=0.4, until_attempt=99
            )
        ):
            result = run_campaign(CONFIG, processes=3)
        assert [row.benchmark for row in result.rows] == list(CONFIG.benchmarks)

    def test_row_lookup_is_cached(self):
        result = run_campaign(CONFIG, processes=2)
        assert result.row("mcf") is result.row("mcf")
        assert result._rows_by_benchmark is result._rows_by_benchmark

    def test_processes_validated(self):
        for processes in (0, -3):
            with pytest.raises(ValidationError, match="processes must be positive"):
                run_campaign(CONFIG, processes=processes)


#: A benchmark that fails on every attempt, and a budget that gives up
#: on it quickly.
LOST_ROW = FaultSpec(kind="transient", benchmark="mcf", until_attempt=99)
SHORT_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


def stored_objects(root):
    """Every stored object's bytes, keyed by its path under ``objects/``."""
    objects = root / "objects"
    return {
        path.relative_to(objects).as_posix(): path.read_bytes()
        for path in sorted(objects.rglob("*.json"))
    }


def campaign_record(result):
    return (
        {row.benchmark: serialize_row(row) for row in result.rows},
        result.health,
        result.failed_rows,
    )


class TestTwoSources:
    """Both sources go through one fold: the same rows, health ledger,
    quarantine records and stored bytes, cold and warm."""

    @pytest.fixture(autouse=True)
    def fixed_code_version(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_CODE_VERSION", "0123456789abcdef")

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """A sequential campaign, cold then warm, into its own store."""
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("REPRO_FAULTS", raising=False)
            patch.setenv("REPRO_CODE_VERSION", "0123456789abcdef")
            root = tmp_path_factory.mktemp("reference")
            cold = run_campaign(CONFIG, result_cache=root)
            objects = stored_objects(root)
            warm = run_campaign(CONFIG, result_cache=root)
            with inject(LOST_ROW):
                lost = run_campaign(CONFIG, retry=SHORT_RETRY)
        return campaign_record(cold), objects, campaign_record(warm), lost

    @pytest.mark.parametrize("processes", (1, 2))
    def test_rows_health_and_store_objects(self, reference, processes, tmp_path):
        cold, objects, warm, _ = reference
        result = run_campaign(CONFIG, processes=processes, result_cache=tmp_path)
        assert campaign_record(result) == cold
        assert cold[1].recomputed == len(CONFIG.benchmarks)
        assert stored_objects(tmp_path) == objects
        assert len(objects) == len(CONFIG.benchmarks)
        rerun = run_campaign(CONFIG, processes=processes, result_cache=tmp_path)
        assert campaign_record(rerun) == warm
        assert warm[1].cached == len(CONFIG.benchmarks)

    @pytest.mark.parametrize("processes", (1, 2))
    def test_a_lost_row_is_quarantined_alike(self, reference, processes):
        lost = reference[3]
        with inject(LOST_ROW):
            result = run_campaign(CONFIG, processes=processes, retry=SHORT_RETRY)
        assert campaign_record(result) == campaign_record(lost)
        assert [f.benchmark for f in result.failed_rows] == ["mcf"]
        assert result.health.quarantined == 1

    def test_strict_failure_is_the_same_error(self):
        raised = {}
        for processes in (1, 2):
            with inject(LOST_ROW):
                with pytest.raises(CampaignFailedError) as excinfo:
                    run_campaign(
                        CONFIG, processes=processes, retry=SHORT_RETRY, strict=True
                    )
            raised[processes] = (str(excinfo.value), excinfo.value.failed_rows)
        assert raised[1] == raised[2]
        message, failed_rows = raised[1]
        assert message == (
            "campaign failed (strict): " + failed_rows[0].describe()
        )
        assert [f.benchmark for f in failed_rows] == ["mcf"]


class TestWorkerMetricsAggregation:
    def _run_with_metrics(self, processes=2):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.telemetry import Telemetry

        telem = Telemetry(registry=MetricsRegistry())
        result = run_campaign(CONFIG, processes=processes, telemetry=telem)
        return result, telem.registry

    def test_aggregate_is_bit_identical_sum_of_worker_counters(self):
        """--metrics-out must reflect all workers, exactly.

        For every counter any worker reported, the campaign aggregate
        equals the sum over the per-worker breakdowns — bit-identical
        float equality, not approx.  Parent-only counters (supervision,
        degradations) ride on top and are excluded by construction.
        """
        _, registry = self._run_with_metrics()
        worker_states = {
            worker_id: registry.worker_state(worker_id)
            for worker_id in registry.worker_ids()
        }
        assert worker_states, "campaign with telemetry produced no workers"
        counter_names = set()
        for state in worker_states.values():
            counter_names.update(state["counters"])
        assert counter_names, "workers reported no counters"
        for name in counter_names:
            expected = sum(
                state["counters"].get(name, 0)
                for state in worker_states.values()
            )
            assert registry.value(name) == expected, name

    def test_worker_ids_are_deterministic_benchmark_labels(self):
        _, registry = self._run_with_metrics()
        assert registry.worker_ids() == [
            f"worker:{benchmark}" for benchmark in CONFIG.benchmarks
        ]

    def test_supervised_completions_are_counted(self):
        _, registry = self._run_with_metrics()
        if registry.value("warning.parallel.pool_fallback"):
            pytest.skip("process creation unavailable; no supervision")
        # One worker.complete per benchmark: the reconciliation anchor
        # for the per-worker breakdown.
        assert registry.value("worker.complete") == len(CONFIG.benchmarks)

    def test_metrics_out_payload_carries_the_breakdown(self):
        _, registry = self._run_with_metrics()
        state = registry.state_dict()
        assert set(state["workers"]) == {
            f"worker:{benchmark}" for benchmark in CONFIG.benchmarks
        }

    def test_worker_counters_match_isolated_sequential_runs(self):
        """Each worker's counters equal an isolated in-process run.

        Workers are per-benchmark processes with private registries, so
        every worker's deterministic counters must be bit-identical to
        running that benchmark alone through execute_row with a fresh
        registry.  (A *shared* sequential registry is not comparable:
        each benchmark's warm-up reset wipes the previous benchmark's
        ctrl.* counters — exactly the lossiness the labelled merge
        fixes.)
        """
        from repro.obs.registry import MetricsRegistry
        from repro.obs.telemetry import Telemetry
        from repro.sim.campaign import execute_row

        _, par_registry = self._run_with_metrics()
        for benchmark in CONFIG.benchmarks:
            telem = Telemetry(registry=MetricsRegistry())
            execute_row(benchmark, CONFIG, telem)
            expected = telem.registry.state_dict()["counters"]
            actual = par_registry.worker_state(f"worker:{benchmark}")["counters"]
            for name, value in expected.items():
                if name.startswith("span."):  # wall-clock durations
                    continue
                assert actual.get(name) == value, (benchmark, name)
