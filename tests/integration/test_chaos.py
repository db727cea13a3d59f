"""Chaos end-to-end: crashes + store corruption, bit-identical results.

The strongest claim the robustness layer makes: you can kill workers
mid-campaign, tear/corrupt/skew the result store underneath the run,
and the campaign still produces rows bit-identical to a clean
sequential run — with `CampaignResult.health` accounting for every
row's provenance (`cached + recomputed + quarantined + breaker_skipped
== total`).
"""

import pytest

from repro.faultinject import (
    FaultSpec,
    corrupt_entry_crc,
    inject,
    skew_entry_code,
    tear_entry,
)
from repro.sim import campaign as campaign_mod
from repro.sim.campaign import run_campaign, serialize_row
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import RetryPolicy
from repro.store import ResultStore

BENCHMARKS = ("bwaves", "gcc", "mcf", "milc", "lbm")

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def no_leftover_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        benchmarks=BENCHMARKS,
        techniques=("conventional", "wg"),
        accesses_per_benchmark=1500,
        seed=2012,
    )


@pytest.fixture(scope="module")
def clean(config):
    return run_campaign(config, retry=RetryPolicy.none())


def payloads(result):
    return {row.benchmark: serialize_row(row) for row in result.rows}


def test_clean_run_health_is_all_recomputed(clean):
    health = clean.health
    assert health.total == len(BENCHMARKS)
    assert health.recomputed == len(BENCHMARKS)
    assert health.cached == 0
    assert health.consistent
    assert "recomputed" in health.describe()


def test_chaotic_parallel_run_with_store_matches_clean(
    config, clean, tmp_path
):
    """Workers killed mid-campaign; store written; rows bit-identical."""
    cache = tmp_path / "cache"
    with inject(
        FaultSpec(kind="crash", benchmark="gcc", until_attempt=1),
        FaultSpec(kind="transient", benchmark="mcf", until_attempt=1),
    ):
        chaotic = run_campaign(
            config, processes=2, retry=FAST_RETRY, result_cache=cache
        )
    assert payloads(chaotic) == payloads(clean)
    assert not chaotic.failed_rows
    health = chaotic.health
    assert health.consistent
    assert health.recomputed == len(BENCHMARKS)

    # The survived chaos left a complete, verifiable store behind.
    store = ResultStore(cache)
    assert store.stats()["entries"] == len(BENCHMARKS)
    assert store.verify()["corrupt"] == []


def test_corrupted_store_heals_and_still_matches(config, clean, tmp_path):
    """One corruptor per validation layer; the rerun heals them all."""
    cache = tmp_path / "cache"
    run_campaign(config, retry=FAST_RETRY, result_cache=cache)
    store = ResultStore(cache)
    entries = sorted(store.objects_dir.rglob("*.json"))
    assert len(entries) == len(BENCHMARKS)
    for corruptor, path in zip(
        (tear_entry, corrupt_entry_crc, skew_entry_code), entries
    ):
        corruptor(path)

    rerun = run_campaign(config, retry=FAST_RETRY, result_cache=cache)
    assert payloads(rerun) == payloads(clean)
    health = rerun.health
    assert health.consistent
    assert health.healed == 3
    assert health.cached == len(BENCHMARKS) - 3
    assert health.recomputed == 3
    # Quarantine holds the three damaged entries for post-mortems.
    reopened = ResultStore(cache)
    assert reopened.stats()["quarantined"] == 3
    # Healing re-stored the recomputed rows: the store is whole again.
    assert reopened.stats()["entries"] == len(BENCHMARKS)
    assert reopened.verify()["corrupt"] == []


def test_warm_rerun_serves_everything_with_zero_simulator_calls(
    config, clean, tmp_path, monkeypatch
):
    """Acceptance: >= 90% of rows from the store, zero execute_row calls."""
    cache = tmp_path / "cache"
    run_campaign(config, retry=FAST_RETRY, result_cache=cache)

    calls = []
    real = campaign_mod.execute_row

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign_mod, "execute_row", counting)
    warm = run_campaign(config, retry=FAST_RETRY, result_cache=cache)
    assert payloads(warm) == payloads(clean)
    health = warm.health
    assert health.consistent
    assert health.cached == health.total == len(BENCHMARKS)
    assert health.cached / health.total >= 0.9
    assert calls == []  # no simulator invocation for any cached row


def test_parallel_warm_rerun_served_from_store(config, clean, tmp_path):
    """The parallel runner serves cached rows before dispatching jobs."""
    cache = tmp_path / "cache"
    run_campaign(config, retry=FAST_RETRY, result_cache=cache)
    warm = run_campaign(
        config, processes=2, retry=FAST_RETRY, result_cache=cache
    )
    assert payloads(warm) == payloads(clean)
    assert warm.health.cached == warm.health.total
    assert warm.health.consistent


def test_mid_campaign_death_leaves_partial_reusable_store(
    config, clean, tmp_path
):
    """A quarantined run's healthy rows are still served next time."""
    cache = tmp_path / "cache"
    with inject(
        FaultSpec(kind="transient", benchmark="mcf", until_attempt=99)
    ):
        broken = run_campaign(config, retry=FAST_RETRY, result_cache=cache)
    assert [f.benchmark for f in broken.failed_rows] == ["mcf"]
    health = broken.health
    assert health.consistent
    assert health.quarantined == 1
    assert health.recomputed == len(BENCHMARKS) - 1

    # Fault gone: the retry run computes only the missing benchmark.
    healed = run_campaign(config, retry=FAST_RETRY, result_cache=cache)
    assert payloads(healed) == payloads(clean)
    assert healed.health.cached == len(BENCHMARKS) - 1
    assert healed.health.recomputed == 1
    assert healed.health.consistent
