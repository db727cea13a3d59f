"""Unit and property tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.sim.simulator import Simulator
from repro.trace.record import AccessType, MemoryAccess

from tests.conftest import make_random_trace


def R(address, icount=0):
    return MemoryAccess(icount=icount, kind=AccessType.READ, address=address)


def W(address, value, icount=0):
    return MemoryAccess(
        icount=icount, kind=AccessType.WRITE, address=address, value=value
    )


@pytest.fixture
def cache(tiny_geometry):
    return SetAssociativeCache(tiny_geometry, FunctionalMemory())


class TestResidency:
    def test_cold_miss_then_hit(self, cache):
        first = cache.ensure_resident(R(0))
        assert not first.hit
        assert first.filled
        second = cache.ensure_resident(R(0))
        assert second.hit
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1

    def test_same_block_different_word_hits(self, cache):
        cache.ensure_resident(R(0))
        result = cache.ensure_resident(R(8))
        assert result.hit
        assert result.word_offset == 1

    def test_fill_brings_memory_data(self, cache):
        cache.memory.write_word(0x10, 1234)
        result = cache.ensure_resident(R(0x10))
        assert cache.read_word(result.set_index, result.way, result.word_offset) == 1234

    def test_conflict_eviction(self, cache):
        geometry = cache.geometry
        # Three blocks aliasing to set 0 in a 2-way cache.
        stride = geometry.num_sets * geometry.block_bytes
        for i in range(3):
            cache.ensure_resident(R(i * stride))
        assert cache.stats.evictions == 1
        # The first block was LRU and must be gone.
        assert cache.lookup(0) is None
        assert cache.lookup(2 * stride) is not None

    def test_dirty_eviction_writes_back(self, cache):
        geometry = cache.geometry
        stride = geometry.num_sets * geometry.block_bytes
        result = cache.ensure_resident(W(0, 55))
        cache.write_word(result.set_index, result.way, result.word_offset, 55)
        for i in range(1, 3):
            cache.ensure_resident(R(i * stride))
        assert cache.stats.dirty_evictions == 1
        assert cache.memory.read_word(0) == 55

    def test_clean_eviction_no_writeback(self, cache):
        geometry = cache.geometry
        stride = geometry.num_sets * geometry.block_bytes
        for i in range(3):
            cache.ensure_resident(R(i * stride))
        assert cache.stats.dirty_evictions == 0
        assert cache.memory.block_writes == 0


class TestDataPlane:
    def test_write_then_read(self, cache):
        result = cache.ensure_resident(W(0x20, 9))
        cache.write_word(result.set_index, result.way, result.word_offset, 9)
        assert cache.read_word(result.set_index, result.way, result.word_offset) == 9

    def test_read_set_data_shape(self, cache):
        cache.ensure_resident(R(0))
        data = cache.read_set_data(0)
        assert len(data) == cache.geometry.associativity
        assert all(len(way) == cache.geometry.words_per_block for way in data)

    def test_read_set_data_is_copy(self, cache):
        result = cache.ensure_resident(R(0))
        data = cache.read_set_data(result.set_index)
        data[result.way][0] = 999
        assert cache.read_word(result.set_index, result.way, 0) == 0

    def test_set_tags(self, cache):
        result = cache.ensure_resident(R(0))
        tags = cache.set_tags(result.set_index)
        assert tags[result.way] == cache.mapper.tag(0)

    def test_flush_all_dirty(self, cache):
        result = cache.ensure_resident(W(0, 7))
        cache.write_word(result.set_index, result.way, result.word_offset, 7)
        flushed = cache.flush_all_dirty()
        assert flushed == 1
        assert cache.memory.read_word(0) == 7
        assert cache.flush_all_dirty() == 0  # idempotent


class TestReplacementIntegration:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_policies_work_end_to_end(self, tiny_geometry, policy):
        cache = SetAssociativeCache(tiny_geometry, replacement=policy)
        stride = tiny_geometry.num_sets * tiny_geometry.block_bytes
        for i in range(10):
            cache.ensure_resident(R(i * stride))
        assert cache.stats.misses == 10
        assert cache.stats.evictions == 8
        assert cache.replacement_name == policy


class TestOracleProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=127),
                st.integers(min_value=1, max_value=1000),
            ),
            max_size=120,
        )
    )
    def test_cache_reads_match_dict_model(self, operations):
        """Reads through the cache equal a plain dict memory model."""
        geometry = CacheGeometry(512, 2, 32)
        cache = SetAssociativeCache(geometry)
        model = {}
        for is_write, word, value in operations:
            address = word * 8
            if is_write:
                result = cache.ensure_resident(W(address, value))
                cache.write_word(
                    result.set_index, result.way, result.word_offset, value
                )
                model[word] = value
            else:
                result = cache.ensure_resident(R(address))
                observed = cache.read_word(
                    result.set_index, result.way, result.word_offset
                )
                assert observed == model.get(word, 0)
        # After draining, memory matches the model exactly.
        cache.flush_all_dirty()
        for word, value in model.items():
            assert cache.memory.read_word(word * 8) == value


class TestTagSlots:
    """``tag_slots()`` is one ``(num_sets, ways)`` int64 snapshot."""

    @pytest.mark.parametrize(
        "geometry",
        [
            CacheGeometry(size_bytes=512, associativity=2, block_bytes=32),
            CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=32),
            CacheGeometry(size_bytes=8 * 1024, associativity=8, block_bytes=32),
            CacheGeometry(size_bytes=128 * 1024, associativity=4, block_bytes=32),
        ],
        ids=lambda g: g.describe(),
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_slot_lists_at_the_boundary_and_the_end(self, geometry, seed):
        trace = make_random_trace(
            3000, seed=seed, word_span=geometry.size_bytes // 2, write_share=0.5
        )
        simulator = Simulator("conventional", geometry)
        cache = simulator.cache
        empty = cache.tag_slots()
        assert empty.shape == (geometry.num_sets, geometry.associativity)
        assert (empty == -1).all()
        for part in (trace[:1000], trace[1000:]):
            simulator.feed(part)
            slots = cache.tag_slots()
            expected = np.array([list(t) for t in cache._tags], dtype=np.int64)
            assert slots.dtype == np.int64
            assert slots.shape == expected.shape
            assert np.array_equal(slots, expected)
            assert (slots >= 0).any()
