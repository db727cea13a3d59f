"""Unit tests for the synthetic trace generator."""

import hashlib

import pytest

from repro.trace.columns import TraceColumns
from repro.trace.record import WORD_BYTES
from repro.trace.stats import collect_statistics
from repro.utils.memo import memo_scope
from repro.workload.generator import SyntheticTraceGenerator, generate_trace
from repro.workload.profile import StreamSpec, WorkloadProfile
from repro.workload.spec2006 import benchmark_names, get_profile


def _profile(**overrides):
    defaults = dict(
        name="gen-test",
        read_frequency=0.26,
        write_frequency=0.14,
        silent_fraction=0.4,
        burst_mean=3.0,
        type_persistence=0.5,
        streams=(
            StreamSpec("sequential", weight=2.0, region_kib=64),
            StreamSpec("random", weight=1.0, region_kib=64),
        ),
    )
    defaults.update(overrides)
    return WorkloadProfile(**defaults)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        assert generate_trace(_profile(), 500, seed=3) == generate_trace(
            _profile(), 500, seed=3
        )

    def test_different_seed_different_trace(self):
        assert generate_trace(_profile(), 500, seed=3) != generate_trace(
            _profile(), 500, seed=4
        )

    def test_prefix_stability(self):
        """A longer trace starts with the shorter trace."""
        short = generate_trace(_profile(), 200, seed=5)
        long = generate_trace(_profile(), 400, seed=5)
        assert long[:200] == short


class TestWellFormedness:
    def test_count(self):
        assert len(generate_trace(_profile(), 321)) == 321

    def test_alignment_and_monotonic_icount(self):
        trace = generate_trace(_profile(), 500)
        previous = -1
        for access in trace:
            assert access.address % WORD_BYTES == 0
            assert access.icount > previous
            previous = access.icount

    def test_positive_count_required(self):
        generator = SyntheticTraceGenerator(_profile())
        with pytest.raises(ValueError):
            list(generator.generate(0))

    def test_streams_have_disjoint_regions(self):
        trace = generate_trace(_profile(), 2000, seed=9)
        # Two streams -> two distinct 1 GiB-aligned bases.
        bases = {access.address >> 30 for access in trace}
        assert len(bases) == 2


class TestStatisticalTargets:
    def test_memory_fraction(self):
        profile = _profile()
        stats = collect_statistics(generate_trace(profile, 20_000, seed=1))
        assert stats.memory_access_frequency == pytest.approx(
            profile.memory_fraction, rel=0.1
        )

    def test_write_share(self):
        profile = _profile()
        stats = collect_statistics(generate_trace(profile, 20_000, seed=1))
        assert stats.write_share_of_accesses == pytest.approx(
            profile.write_share, abs=0.06
        )

    def test_silent_fraction(self):
        profile = _profile(silent_fraction=0.6)
        stats = collect_statistics(generate_trace(profile, 20_000, seed=2))
        assert stats.silent_write_fraction == pytest.approx(0.6, abs=0.06)

    def test_write_bias_shifts_mix(self):
        """A write-biased stream raises the overall write share."""
        hot = _profile(
            streams=(StreamSpec("sequential", weight=1.0, write_bias=2.5),)
        )
        cold = _profile(
            streams=(StreamSpec("sequential", weight=1.0, write_bias=0.2),)
        )
        hot_stats = collect_statistics(generate_trace(hot, 10_000, seed=3))
        cold_stats = collect_statistics(generate_trace(cold, 10_000, seed=3))
        assert (
            hot_stats.write_share_of_accesses
            > cold_stats.write_share_of_accesses + 0.2
        )

    def test_burstiness_raises_same_set_share(self):
        from repro.cache.address import AddressMapper
        from repro.cache.config import BASELINE_GEOMETRY

        mapper = AddressMapper(BASELINE_GEOMETRY)
        bursty = _profile(burst_mean=8.0)
        choppy = _profile(burst_mean=1.0)
        bursty_stats = collect_statistics(
            generate_trace(bursty, 10_000, seed=4), mapper.set_index
        )
        choppy_stats = collect_statistics(
            generate_trace(choppy, 10_000, seed=4), mapper.set_index
        )
        assert (
            bursty_stats.scenarios.same_set_share
            > choppy_stats.scenarios.same_set_share
        )

    def test_value_model_exposed(self):
        generator = SyntheticTraceGenerator(_profile(), seed=6)
        list(generator.generate(1000))
        assert generator.value_model.total_writes > 0


# -- bit identity -------------------------------------------------------------
#
# Every digest below was recorded from the generator as it stood before
# it wrote trace columns (one ``MemoryAccess`` per access, every draw
# through a ``DeterministicRNG`` method).  A moved, added or dropped
# draw on any stream changes them, as does any change to an address
# rule, the value model or the icount walk.


def trace_digest(trace):
    """Short sha256 over every record's (icount, kind, address, value)."""
    hasher = hashlib.sha256()
    for access in trace:
        hasher.update(
            b"%d|%d|%d|%d;"
            % (access.icount, 1 if access.is_write else 0, access.address, access.value)
        )
    return hasher.hexdigest()[:16]


SPEC_LENGTH = 3000

#: benchmark -> (digest at seed 2012, digest at seed 7), SPEC_LENGTH accesses.
SPEC_DIGESTS = {
    "astar": ("f14266b52ab64ff0", "3ebaea4f93975dac"),
    "bwaves": ("a0418f9d5099ab7c", "be391d92252cc7f0"),
    "bzip2": ("99d49c7baea2f141", "602c62bd9490c673"),
    "cactusADM": ("09d5181aca55ac47", "d22bfe0fdd337c04"),
    "calculix": ("ae0786738fd46705", "e646aeb13c4f05c0"),
    "gamess": ("390434ea890b271b", "53205d3ea672c26b"),
    "gcc": ("9deda2f204b95c16", "034cc56e8fec4abf"),
    "GemsFDTD": ("3374793c96608766", "1379fa5a279311e7"),
    "gobmk": ("44032da7006c6e58", "b137c6211b7441f8"),
    "gromacs": ("4e4dc43a3f8defc4", "4c70a5715ad6ad73"),
    "h264ref": ("cccaefdd6c45c7e7", "4521792b618b821a"),
    "hmmer": ("76e2bdb190ac995e", "bde159958ced5ae3"),
    "lbm": ("ed666a4eca7b69fd", "a74cbca31aa598f0"),
    "leslie3d": ("cbae8ea6463c082b", "8c266d676ff9a3e9"),
    "libquantum": ("c61a42db225d61a6", "497f97db6e281568"),
    "mcf": ("f39c570f6f7f5cee", "f40d7a7db7ff2092"),
    "milc": ("79bb2b63c1571838", "eae90c97e6f80de7"),
    "namd": ("1f2ba45d3e949e35", "dd3002cda68fe028"),
    "perlbench": ("93b812734964d6a1", "b95547b65d733e17"),
    "povray": ("ee5df1747e3ca4d6", "19878047aa837819"),
    "sjeng": ("1efe49799e1af6da", "94a4792ba8d9df7b"),
    "soplex": ("2cd314edeafe5d64", "3bdc898f719e7fc7"),
    "sphinx3": ("9c2359641d61652e", "35a0ea7a240a7406"),
    "wrf": ("ae8ecf5f63fc3116", "d3e919e932d6bd7a"),
    "zeusmp": ("0bd6035d8fa288aa", "976694827a860996"),
}


def _edge(name, **overrides):
    knobs = dict(
        name=name,
        read_frequency=0.26,
        write_frequency=0.14,
        silent_fraction=0.4,
        burst_mean=3.0,
        type_persistence=0.5,
        streams=(
            StreamSpec("sequential", weight=2.0, region_kib=64),
            StreamSpec("random", weight=1.0, region_kib=3),
        ),
    )
    knobs.update(overrides)
    return WorkloadProfile(**knobs)


#: Hand-built profiles that take every draw-free branch: a constant
#: burst length, certain and impossible kind repeats, all-silent and
#: never-silent stores, write shares clamped to 1 and zeroed, hotspots
#: that are always and never hot, strided and pointer-chase walks, and
#: a one-stream mixture (the stream choice still draws).  The 3 KiB
#: regions (384 words) and 5- and 6-word hot sets make the uniform
#: draw's rejection loop redraw.
EDGE_PROFILES = {
    "burst_one": _edge("burst_one", burst_mean=1.0),
    "persist_zero": _edge("persist_zero", type_persistence=0.0),
    "persist_one": _edge("persist_one", type_persistence=1.0),
    "silent_zero": _edge("silent_zero", silent_fraction=0.0),
    "silent_one": _edge("silent_one", silent_fraction=1.0),
    "write_share_clamped": _edge(
        "write_share_clamped",
        streams=(
            StreamSpec("sequential", weight=1.0, region_kib=16, write_bias=3.0),
            StreamSpec("random", weight=1.0, region_kib=16, write_bias=0.0),
        ),
    ),
    "hotspot_edges": _edge(
        "hotspot_edges",
        streams=(
            StreamSpec("hotspot", weight=1.0, region_kib=3, hot_words=5,
                       hot_probability=1.0),
            StreamSpec("hotspot", weight=1.0, region_kib=8, hot_words=3,
                       hot_probability=0.0),
            StreamSpec("hotspot", weight=1.0, region_kib=8, hot_words=6,
                       hot_probability=0.7),
        ),
    ),
    "strided_pointer": _edge(
        "strided_pointer",
        streams=(
            StreamSpec("strided", weight=2.0, region_kib=32, stride_words=8),
            StreamSpec("pointer_chase", weight=3.0, region_kib=64),
            StreamSpec("strided", weight=1.0, region_kib=3, stride_words=5),
        ),
    ),
    "single_stream": _edge(
        "single_stream",
        streams=(StreamSpec("random", weight=1.0, region_kib=5),),
    ),
}

EDGE_LENGTH = 2000

#: profile -> (digest, total_writes, silent_writes), EDGE_LENGTH
#: accesses at seed 2012.
EDGE_RESULTS = {
    "burst_one": ("7ed36eb5aaf9f79f", 704, 267),
    "persist_zero": ("d28a17240e38e6de", 707, 271),
    "persist_one": ("9afac3ed38e459cc", 716, 317),
    "silent_zero": ("8433d8ec9e507ca7", 641, 0),
    "silent_one": ("c48381c86cb0c6a7", 672, 672),
    "write_share_clamped": ("f357cf176cac5440", 967, 402),
    "hotspot_edges": ("e59e46f2dc7ed54c", 695, 254),
    "strided_pointer": ("209f8e604282dd37", 684, 298),
    "single_stream": ("e14e1d3f845eeefb", 701, 304),
}

#: profile -> (digest, total_writes, silent_writes) after two
#: successive generate() calls of 700 and 1300 accesses, seed 2012.
SPLIT_RESULTS = {
    "bwaves": ("00f87408cfa28e3c", 1026, 803),
    "mcf": ("fe055197f4267f78", 446, 127),
    "gcc": ("cfee922a50fd20b8", 732, 373),
    "silent_one": ("5e48c2bb82be6ac0", 702, 702),
    "hotspot_edges": ("9a730a7c64816db0", 711, 261),
}


class TestBitIdentity:
    def test_table_covers_every_spec_profile(self):
        assert sorted(SPEC_DIGESTS) == sorted(benchmark_names())

    @pytest.mark.parametrize("name", sorted(SPEC_DIGESTS))
    def test_spec_profiles(self, name):
        profile = get_profile(name)
        digests = tuple(
            trace_digest(generate_trace(profile, SPEC_LENGTH, seed=seed))
            for seed in (2012, 7)
        )
        assert digests == SPEC_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(EDGE_RESULTS))
    def test_no_draw_edges(self, name):
        generator = SyntheticTraceGenerator(EDGE_PROFILES[name], seed=2012)
        trace = generator.generate(EDGE_LENGTH)
        model = generator.value_model
        assert (trace_digest(trace), model.total_writes, model.silent_writes) == (
            EDGE_RESULTS[name]
        )

    @pytest.mark.parametrize("name", sorted(SPLIT_RESULTS))
    def test_successive_calls_continue_one_trace(self, name):
        """icount, pattern positions, value memory, the fresh-value
        counter and every stream carry over from one call to the next."""
        profile = EDGE_PROFILES.get(name) or get_profile(name)
        generator = SyntheticTraceGenerator(profile, seed=2012)
        first = generator.generate(700)
        second = generator.generate(1300)
        assert second[0].icount > first[-1].icount
        model = generator.value_model
        assert (
            trace_digest(list(first) + list(second)),
            model.total_writes,
            model.silent_writes,
        ) == SPLIT_RESULTS[name]


COLUMNS = ("icounts", "kinds", "addresses", "values")


class TestSharedTraces:
    """Inside a memo scope, one shared read-only trace per key."""

    def test_same_key_same_object(self):
        profile = get_profile("mcf")
        with memo_scope():
            first = generate_trace(profile, 400, seed=3)
            assert generate_trace(get_profile("mcf"), 400, seed=3) is first
            assert generate_trace(profile, 400, 3) is first

    def test_equal_profile_shares(self):
        with memo_scope():
            first = generate_trace(_profile(), 300, seed=1)
            assert generate_trace(_profile(), 300, seed=1) is first
            assert generate_trace(_profile(silent_fraction=0.5), 300, seed=1) is not first

    def test_other_seed_or_length_is_another_trace(self):
        profile = get_profile("mcf")
        with memo_scope():
            first = generate_trace(profile, 400, seed=3)
            for other in (
                generate_trace(profile, 400, seed=4),
                generate_trace(profile, 401, seed=3),
                generate_trace(get_profile("gcc"), 400, seed=3),
            ):
                assert other is not first
                assert other != first

    def test_shared_trace_equals_a_fresh_one(self):
        profile = get_profile("bwaves")
        with memo_scope():
            shared = generate_trace(profile, 500, seed=2012)
        assert shared == generate_trace(profile, 500, seed=2012)

    def test_shared_columns_are_read_only(self):
        with memo_scope():
            trace = generate_trace(get_profile("gcc"), 200, seed=9)
        for column in COLUMNS:
            with pytest.raises(ValueError):
                getattr(trace, column)[0] = 1
            with pytest.raises(ValueError):
                getattr(trace[10:20], column)[0] = 1

    def test_outside_a_scope_every_call_is_fresh_and_writable(self):
        profile = get_profile("gcc")
        with memo_scope():
            shared = generate_trace(profile, 200, seed=9)
        first = generate_trace(profile, 200, seed=9)
        second = generate_trace(profile, 200, seed=9)
        assert first is not shared and second is not first
        assert isinstance(first, TraceColumns)
        for column in COLUMNS:
            getattr(first, column)[0] = 1
        assert second == shared

    def test_a_nested_scope_starts_empty_and_ends_alone(self):
        profile = get_profile("gcc")
        with memo_scope():
            outer = generate_trace(profile, 200, seed=9)
            with memo_scope():
                inner = generate_trace(profile, 200, seed=9)
                assert inner is not outer
                assert generate_trace(profile, 200, seed=9) is inner
            assert generate_trace(profile, 200, seed=9) is outer

    def test_invalid_length_still_raises(self):
        with memo_scope():
            with pytest.raises(ValueError):
                generate_trace(get_profile("gcc"), 0)
