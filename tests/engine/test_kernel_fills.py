"""Kernel fills and the flat Set-Buffer.

The columnar kernels refill a block that memory holds no word of with
one shared zero row (and read any other block word by word), and the WG
kernel keeps the buffered set as one flat list with flat modified
indices, converted from and back to the :class:`SetBuffer`'s per-way
form around every call.  These tests hold both to per-access execution:
the run's results, and the cache and buffer state after every kernel
call.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.memory import FunctionalMemory
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.engine import columnar
from repro.engine.columnar import iter_chunks, process_chunk
from repro.obs.sampler import IntervalSampler
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator
from repro.trace.record import AccessType, MemoryAccess, WORD_BYTES

from tests.conftest import make_random_trace

#: The ``tiny_geometry`` fixture's layout: 8 sets of 2 ways, 4 words a
#: block, so blocks ``SET_STRIDE`` bytes apart share a set.
BLOCK_BYTES = 32
SET_STRIDE = 8 * BLOCK_BYTES
BLOCK = 0x1000  # a block of set 0


def build_trace(*steps):
    """Records from ``("R", address)`` / ``("W", address, value)`` steps."""
    trace = []
    for icount, (letter, address, *value) in enumerate(steps, start=1):
        trace.append(
            MemoryAccess(
                icount=icount * 3,
                kind=AccessType.from_letter(letter),
                address=address,
                value=value[0] if value else 0,
            )
        )
    return trace


def seeded_memory(stored):
    memory = FunctionalMemory()
    for address, value in stored:
        memory.write_word(address, value)
    return memory


def run_both(trace, technique, geometry, stored=(), batch_size=None):
    """Run ``trace`` per access and on the kernels, memory seeded with
    ``stored`` ``(address, value)`` words; assert the runs agree and
    return the scalar run's memory snapshot."""
    runs = []
    for on_kernels in (False, True):
        cache = SetAssociativeCache(geometry, seeded_memory(stored))
        controller = make_controller(technique, cache)
        if on_kernels:
            assert columnar._kernel_for(controller) is not None
            for chunk in iter_chunks(trace, geometry, batch_size):
                process_chunk(controller, chunk)
        else:
            for access in trace:
                controller.process(access)
        data = [list(words) for words in cache._data]
        controller.finalize()
        cache.flush_all_dirty()
        runs.append((controller, cache, data))
    (s_controller, s_cache, s_data), (c_controller, c_cache, c_data) = runs
    assert c_data == s_data
    assert c_controller.events == s_controller.events
    assert c_controller.counts == s_controller.counts
    assert c_cache.stats == s_cache.stats
    assert c_cache.memory.snapshot() == s_cache.memory.snapshot()
    return s_cache.memory.snapshot()


class TestFillSources:
    """A fill reads what memory holds, whichever words it holds."""

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("word", (1, 2, 3))
    def test_lone_non_first_word(self, technique, word, tiny_geometry):
        lone = BLOCK + word * WORD_BYTES
        trace = build_trace(
            ("R", BLOCK),  # fill: must bring the lone word in
            ("W", BLOCK, 5),  # dirty the block
            ("R", BLOCK + SET_STRIDE),  # two more tags evict it, writing
            ("R", BLOCK + 2 * SET_STRIDE),  # the lone word back
            ("R", lone),  # refill after the write-back
            ("W", BLOCK, 6),
        )
        memory = run_both(trace, technique, tiny_geometry, stored=[(lone, 77)])
        assert memory[lone // WORD_BYTES] == 77
        assert memory[BLOCK // WORD_BYTES] == 6

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_write_of_a_lone_words_value(self, technique, tiny_geometry):
        """Under WG the write is silent only if the fill read the word."""
        lone = BLOCK + 3 * WORD_BYTES
        trace = build_trace(("R", BLOCK), ("W", lone, 77), ("R", lone))
        run_both(trace, technique, tiny_geometry, stored=[(lone, 77)])

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("batch_size", (1, None))
    def test_dirty_evicted_block_refilled(
        self, technique, batch_size, tiny_geometry
    ):
        words = [BLOCK + i * WORD_BYTES for i in range(4)]
        trace = build_trace(
            *(("W", address, 10 + i) for i, address in enumerate(words)),
            ("R", BLOCK + SET_STRIDE),
            ("W", BLOCK + 2 * SET_STRIDE, 1),  # evicts BLOCK, dirty
            ("R", words[2]),  # refilled from the written-back words
            ("W", words[1], 11),  # silent under WG
            ("W", words[3], 99),
            ("R", BLOCK + SET_STRIDE),
            ("R", BLOCK + 3 * SET_STRIDE),  # evicts BLOCK again
            ("R", words[0]),
        )
        memory = run_both(
            trace, technique, tiny_geometry, batch_size=batch_size
        )
        assert [memory[a // WORD_BYTES] for a in words] == [10, 11, 12, 99]

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_block_stored_as_zeros(self, technique, tiny_geometry):
        stored = [(BLOCK + i * WORD_BYTES, 0) for i in range(4)]
        trace = build_trace(
            ("R", BLOCK + WORD_BYTES),
            ("W", BLOCK + 2 * WORD_BYTES, 0),  # silent under WG
            ("W", BLOCK + 3 * WORD_BYTES, 4),
            ("R", BLOCK + SET_STRIDE),
            ("R", BLOCK + 2 * SET_STRIDE),
            ("R", BLOCK),
        )
        memory = run_both(trace, technique, tiny_geometry, stored=stored)
        assert [memory[address // WORD_BYTES] for address, _ in stored] == [
            0, 0, 0, 4,
        ]

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_random_trace_over_scattered_lone_words(
        self, technique, tiny_geometry
    ):
        trace = make_random_trace(2_000, seed=41, word_span=300)
        stored = [
            (word * WORD_BYTES, 1_000 + word)
            for word in range(1, 300, 7)
            if word % 4
        ]
        run_both(trace, technique, tiny_geometry, stored=stored)


def kernel_state(controller):
    """Cache slots and (for WG) the buffer entry, as plain values."""
    cache = controller.cache
    state = {
        "tick": cache._tick,
        "tags": [list(slots) for slots in cache._tags],
        "stamps": [list(slots) for slots in cache._stamps],
        "dirty": [list(slots) for slots in cache._dirty],
        "data": [list(slots) for slots in cache._data],
    }
    for entry in getattr(controller, "buffer_entries", ()):
        set_buffer, tag_buffer = entry.set_buffer, entry.tag_buffer
        state["set_buffer"] = (
            set_buffer.valid,
            set_buffer.set_index,
            [list(row) for row in set_buffer._data],
            set(set_buffer._modified),
        )
        state["dirty_since"] = entry.dirty_since
        state["tag_buffer"] = (
            tag_buffer.valid,
            tag_buffer.dirty,
            tag_buffer.set_index,
            tag_buffer.tags,
        )
    return state


@pytest.fixture
def kernel_states(monkeypatch):
    """Record :func:`kernel_state` after every kernel call."""
    states = []
    for name in ("_process_chunk_plain", "_process_chunk_wg"):

        def recorded(controller, chunk, codes, *trail, _kernel=getattr(
            columnar, name
        )):
            _kernel(controller, chunk, codes, *trail)
            states.append(kernel_state(controller))

        monkeypatch.setattr(columnar, name, recorded)
    return states


def per_access_states(trace, technique, geometry, stored, ticks):
    """:func:`kernel_state` of a per-access run at each tick in ``ticks``."""
    cache = SetAssociativeCache(geometry, seeded_memory(stored))
    controller = make_controller(technique, cache)
    wanted = set(ticks)
    states = {}
    for access in trace:
        controller.process(access)
        if cache._tick in wanted:
            states[cache._tick] = kernel_state(controller)
    return states


STATE_TRACE_STORED = [(word * WORD_BYTES, 500 + word) for word in (1, 6, 39)]


class TestStateAfterEveryKernelCall:
    """Between kernel calls the cache and buffer objects hold exactly
    what per-access execution leaves there (the scalar path,
    ``take_modified`` and the check campaign's injected bugs read
    them)."""

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("batch_size", (1, 7, None))
    def test_batch_sizes(
        self, technique, batch_size, tiny_geometry, kernel_states
    ):
        trace = make_random_trace(
            1_200, seed=42, word_span=96, write_share=0.7
        )
        simulator = Simulator(
            technique,
            tiny_geometry,
            memory=seeded_memory(STATE_TRACE_STORED),
            batch_size=batch_size,
        )
        simulator.feed(trace)
        expected_calls = -(-len(trace) // (batch_size or 4096))
        assert len(kernel_states) == expected_calls
        self.assert_states_match(trace, technique, tiny_geometry, kernel_states)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_interval_sampler(self, technique, tiny_geometry, kernel_states):
        trace = make_random_trace(
            3_500, seed=43, word_span=96, write_share=0.7
        )
        simulator = Simulator(
            technique,
            tiny_geometry,
            memory=seeded_memory(STATE_TRACE_STORED),
            telemetry=Telemetry(sampler=IntervalSampler(1_000)),
        )
        simulator.feed(trace)
        # The sampler ends a kernel call at every window boundary.
        assert [state["tick"] - 1 for state in kernel_states] == [
            1_000, 2_000, 3_000, 3_500,
        ]
        self.assert_states_match(trace, technique, tiny_geometry, kernel_states)

    @staticmethod
    def assert_states_match(trace, technique, geometry, states):
        expected = per_access_states(
            trace,
            technique,
            geometry,
            STATE_TRACE_STORED,
            [state["tick"] for state in states],
        )
        for state in states:
            assert state == expected[state["tick"]], state["tick"]
