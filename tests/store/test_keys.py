"""Tests for result-store key material (``repro.store.keys``)."""

from dataclasses import asdict, replace

import pytest

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.sim.experiment import ExperimentConfig
from repro.store.keys import (
    FINGERPRINT_LENGTH,
    digest,
    profile_fingerprint,
    row_config_fingerprint,
    row_key,
    workload_fingerprint,
)
from repro.workload.spec2006 import benchmark_names, get_profile


class TestWorkloadFingerprint:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_digest_of_profile_knobs(self, name):
        expected = digest(asdict(get_profile(name)))[:FINGERPRINT_LENGTH]
        assert workload_fingerprint(name) == expected
        assert profile_fingerprint(get_profile(name)) == expected

    def test_memoised_on_the_profile_value(self):
        profile = get_profile("bwaves")
        profile_fingerprint(profile)
        hits = profile_fingerprint.cache_info().hits
        assert profile_fingerprint(replace(profile)) == profile_fingerprint(profile)
        assert profile_fingerprint.cache_info().hits == hits + 2

    @pytest.mark.parametrize(
        "change",
        [
            {"burst_mean": 5.6},
            {"silent_fraction": 0.5},
            {"description": "retuned"},
        ],
    )
    def test_retuned_profile_gets_a_new_fingerprint(self, change):
        profile = get_profile("bwaves")
        retuned = replace(profile, **change)
        assert profile_fingerprint(retuned) != profile_fingerprint(profile)
        assert profile_fingerprint(retuned) == (
            digest(asdict(retuned))[:FINGERPRINT_LENGTH]
        )

    def test_retuned_stream_gets_a_new_fingerprint(self):
        profile = get_profile("mcf")
        first, *rest = profile.streams
        retuned = replace(profile, streams=(replace(first, weight=4.0), *rest))
        assert profile_fingerprint(retuned) != profile_fingerprint(profile)

    def test_benchmark_name_is_not_the_memo_key(self, monkeypatch):
        """Retuning a benchmark's profile in-process changes its fingerprint."""
        from repro.workload import spec2006

        before = workload_fingerprint("bwaves")
        retuned = replace(get_profile("bwaves"), burst_mean=6.0)
        monkeypatch.setattr(spec2006, "get_profile", lambda name: retuned)
        assert workload_fingerprint("bwaves") != before
        assert workload_fingerprint("bwaves") == profile_fingerprint(retuned)


class TestRowKey:
    #: Recorded before the fingerprint was memoised; the key format and
    #: its inputs must not move.
    PINNED = {
        "bwaves": "9a0f3215514622e1ae06e19726bd74f713c138a31c753c6d01132321f4bc9efd",
        "mcf": "52f0072e6261fafbcbeec7239d86cc2b4ec141718e205a2ac0d8f71473ebd9b8",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_keys_are_byte_identical(self, name):
        config = ExperimentConfig(
            geometry=BASELINE_GEOMETRY, accesses_per_benchmark=4000, seed=2012
        )
        key, meta = row_key(config, name, code="0123456789abcdef")
        assert key == self.PINNED[name]
        expected = digest(asdict(get_profile(name)))[:FINGERPRINT_LENGTH]
        assert meta["workload"] == expected


def small_config(**overrides):
    defaults = dict(
        geometry=BASELINE_GEOMETRY,
        benchmarks=("bwaves", "mcf"),
        techniques=("rmw", "wg"),
        accesses_per_benchmark=1500,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRowConfigFingerprint:
    """A resumed campaign finds its rows only if the key is stable."""

    def test_stable_across_calls(self):
        assert row_config_fingerprint(small_config()) == row_config_fingerprint(
            small_config()
        )

    def test_order_insensitive(self):
        one = small_config(benchmarks=("bwaves", "mcf"), techniques=("rmw", "wg"))
        two = small_config(benchmarks=("mcf", "bwaves"), techniques=("wg", "rmw"))
        assert row_config_fingerprint(one) == row_config_fingerprint(two)

    def test_benchmark_list_excluded(self):
        subset = small_config(benchmarks=("bwaves",))
        assert row_key(small_config(), "bwaves") == row_key(subset, "bwaves")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 12},
            {"accesses_per_benchmark": 2000},
            {"techniques": ("rmw",)},
            {
                "geometry": CacheGeometry(
                    size_bytes=16 * 1024, associativity=4, block_bytes=64
                )
            },
        ],
    )
    def test_sensitive_to_config(self, overrides):
        assert row_config_fingerprint(small_config()) != row_config_fingerprint(
            small_config(**overrides)
        )


class TestRowKeyMemo:
    """``row_key`` hashes each row once; the memo must not change a key."""

    def test_equal_configs_give_equal_keys(self):
        config = small_config()
        assert row_key(config, "bwaves") == row_key(small_config(), "bwaves")

    def test_a_config_holding_lists(self):
        listed = small_config(techniques=["wg", "rmw"], benchmarks=["mcf", "bwaves"])
        assert row_key(listed, "bwaves") == row_key(small_config(), "bwaves")
        assert row_config_fingerprint(listed) == row_config_fingerprint(
            small_config()
        )

    def test_the_returned_meta_is_fresh(self):
        key, meta = row_key(small_config(), "mcf")
        meta["code"] = "tampered"
        meta["benchmark"] = "bwaves"
        again, fresh = row_key(small_config(), "mcf")
        assert again == key
        assert fresh["benchmark"] == "mcf"
        assert fresh["code"] != "tampered"
        assert again == digest(fresh)

    def test_a_new_code_version_is_a_new_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "aaaaaaaaaaaaaaaa")
        first, meta = row_key(small_config(), "mcf")
        monkeypatch.setenv("REPRO_CODE_VERSION", "bbbbbbbbbbbbbbbb")
        second, other = row_key(small_config(), "mcf")
        assert first != second
        assert (meta["code"], other["code"]) == ("a" * 16, "b" * 16)
        assert (first, second) == (digest(meta), digest(other))
        assert row_key(small_config(), "mcf", code="c" * 16)[0] != second

    def test_numbers_that_hash_equal_keep_their_own_digest(self):
        """``0`` and ``0.0`` dump differently, so they key differently."""
        as_int = small_config(warmup_fraction=0)
        as_float = small_config(warmup_fraction=0.0)
        assert row_config_fingerprint(as_int) != row_config_fingerprint(as_float)
        for config in (as_int, as_float, as_int):
            key, meta = row_key(config, "mcf")
            assert key == digest(meta)
            assert meta["config"] == (
                digest(
                    {
                        "geometry": {
                            "size_bytes": config.geometry.size_bytes,
                            "associativity": config.geometry.associativity,
                            "block_bytes": config.geometry.block_bytes,
                            "address_bits": config.geometry.address_bits,
                        },
                        "techniques": sorted(config.techniques),
                        "accesses_per_benchmark": config.accesses_per_benchmark,
                        "warmup_fraction": config.warmup_fraction,
                        "seed": config.seed,
                    }
                )[:FINGERPRINT_LENGTH]
            )
