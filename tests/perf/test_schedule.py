"""The timing model's vectorised schedule, pinned three ways.

* Digests of every :class:`PerfResult` field for the 25 SPEC profiles
  under the paper's four techniques, recorded with the per-access
  scheduler the vectorised one replaced.
* Field-by-field agreement with the per-access reference
  (:func:`repro.check.timing.reference_timing`) for every registered
  controller and its knob variants, on record lists and on
  :class:`TraceColumns`, at chunk sizes that split write runs and
  buffered-read runs.
* The port-operation codes the columnar kernels write, request by
  request, against :meth:`AccessOutcome.port_code` of the scalar run.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.check.timing import reference_timing
from repro.core import registry
from repro.core.outcomes import (
    PORT_BYPASS,
    PORT_READ,
    PORT_WRITE,
    PORT_WRITEBACK,
    AccessOutcome,
    ServedFrom,
)
from repro.core.registry import (
    ALL_CONTROLLER_NAMES,
    CONTROLLER_NAMES,
    make_controller,
)
from repro.core.rmw import RMWController
from repro.engine.columnar import iter_chunks, process_chunk
from repro.errors import ReproError, SimulationError, StateError
from repro.perf.timing import PerfResult, TimingSimulator
from repro.sim.simulator import run_simulation
from repro.sram.timing import PhaseTiming
from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import benchmark_names, get_profile

from tests.conftest import make_random_trace

PERF_LENGTH = 1_500

#: sha256[:16] of ``{technique: asdict(PerfResult)}`` over the paper's
#: four techniques at the baseline geometry, for seeds (2012, 7).
PERF_DIGESTS = {
    "GemsFDTD": ("56b047caf3c90248", "17fae264ed727dd2"),
    "astar": ("708d9af32360fc77", "6184641c640b1275"),
    "bwaves": ("dbe2c4c86558237b", "6192f3a787f59a86"),
    "bzip2": ("617e87a98107e912", "22444c4f8e3a2d77"),
    "cactusADM": ("de355b2f0c81cbf2", "e2c1b79c04023987"),
    "calculix": ("38cf609eaaaabc08", "f54353df0f036320"),
    "gamess": ("7a878d1187c1046a", "8f538ef632b16051"),
    "gcc": ("cb9535faba75ef9f", "6ff4cfe81bfdbc52"),
    "gobmk": ("6d5f4a70b4c026f3", "cf4b74fb8ba7d1bc"),
    "gromacs": ("65dc158ccc45dadd", "5e4fb59e64d7e850"),
    "h264ref": ("22090eb80c56da07", "a202057c2dafaca5"),
    "hmmer": ("7924e3b1be3b981c", "f833e417742300bc"),
    "lbm": ("23b2ca7da0ef84c1", "dd82126c41a330fa"),
    "leslie3d": ("216af035161eab13", "6ed6f290d1f3447b"),
    "libquantum": ("46c3fecd6ed46bd2", "4425ab797559a960"),
    "mcf": ("e6d692be06242212", "a90faac48639086c"),
    "milc": ("0fa88c12b86bfc09", "5463731492f6ccb2"),
    "namd": ("4b5923cec5850072", "11793fe96886edae"),
    "perlbench": ("cba30f8300de8368", "014b1f40c814a644"),
    "povray": ("10dbdc7076d9f267", "2f4d5f21af050ba2"),
    "sjeng": ("714c9c61ffbc08c0", "57571bc83ffa9903"),
    "soplex": ("6a1c1eab64e9c58b", "55bdd4b89f8c643a"),
    "sphinx3": ("f7a1e9829794b9fc", "1503d228203001ea"),
    "wrf": ("0d855c7617447857", "39be702e589118b1"),
    "zeusmp": ("8544b1b1bca73993", "8bbcf0e14cb4ee40"),
}

GEOMETRY = CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)

#: Every registered controller with its defaults, plus the knob
#: variants: multi-entry WG pools and ``entries=1`` write buffers run
#: per access, the rest on the kernels.
VARIANTS = [(technique, {}) for technique in ALL_CONTROLLER_NAMES] + [
    (technique, kwargs)
    for technique in ("wg", "wg_rb")
    for kwargs in (
        {"entries": 2},
        {"entries": 3},
        {"detect_silent_writes": False},
        {"count_miss_traffic": True},
    )
] + [
    ("write_buffer", {"entries": 1}),
    ("rmw", {"count_miss_traffic": True}),
    ("rmw_local", {"subarrays": 2}),
]


def perf_digest(trace) -> str:
    document = {
        technique: dataclasses.asdict(
            TimingSimulator(technique, BASELINE_GEOMETRY).run(trace)
        )
        for technique in CONTROLLER_NAMES
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def as_columns(trace):
    return TraceColumns.from_lists(
        [a.icount for a in trace],
        [int(a.is_write) for a in trace],
        [a.address for a in trace],
        [a.value for a in trace],
    )


def R(icount, address):
    return MemoryAccess(icount=icount, kind=AccessType.READ, address=address)


def W(icount, address, value):
    return MemoryAccess(
        icount=icount, kind=AccessType.WRITE, address=address, value=value
    )


@pytest.fixture(scope="module")
def traces():
    """A random trace whose compact footprint keeps the tiny cache
    filling and evicting (every kind of Set-Buffer write-back), and a
    SPEC trace with realistic same-set runs."""
    return {
        "random": make_random_trace(700, seed=11, word_span=160, write_share=0.45),
        "spec": list(generate_trace(get_profile("gamess"), 700, seed=2012)),
    }


def scalar_reference(trace, technique, kwargs):
    controller = make_controller(
        technique, SetAssociativeCache(GEOMETRY), **kwargs
    )
    outcomes = controller.run(trace)
    return controller, outcomes


class TestPaperTechniqueDigests:
    def test_table_covers_every_spec_profile(self):
        assert sorted(PERF_DIGESTS) == sorted(benchmark_names())

    @pytest.mark.parametrize("name", sorted(PERF_DIGESTS))
    def test_spec_profiles(self, name):
        profile = get_profile(name)
        digests = tuple(
            perf_digest(generate_trace(profile, PERF_LENGTH, seed=seed))
            for seed in (2012, 7)
        )
        assert digests == PERF_DIGESTS[name]


class TestAgainstReference:
    @pytest.mark.parametrize("batch_size", (1, 7, None))
    @pytest.mark.parametrize(
        "technique, kwargs", VARIANTS, ids=[f"{t}-{k}" for t, k in VARIANTS]
    )
    def test_every_field_matches(self, traces, technique, kwargs, batch_size):
        for trace in traces.values():
            controller, outcomes = scalar_reference(trace, technique, kwargs)
            expected = reference_timing(trace, outcomes, controller)
            for given in (trace, as_columns(trace)):
                result = TimingSimulator(
                    technique, GEOMETRY, batch_size=batch_size, **kwargs
                ).run(given)
                assert result == expected

    @pytest.mark.parametrize("technique", ALL_CONTROLLER_NAMES)
    def test_keeps_the_runs_simulation_result(self, traces, technique):
        trace = traces["random"]
        simulator = TimingSimulator(technique, GEOMETRY)
        with pytest.raises(StateError):
            _ = simulator.result
        simulator.run(trace)
        expected = run_simulation(trace, technique, GEOMETRY, engine="scalar")
        result = simulator.result
        assert result.requests == expected.requests == len(trace)
        assert result.events.to_dict() == expected.events.to_dict()
        assert result.counts == expected.counts
        assert result.cache_stats == expected.cache_stats

    def test_custom_phase_timing(self, traces):
        timing = PhaseTiming(
            array_read_cycles=3, array_write_cycles=5, set_buffer_cycles=2
        )
        trace = traces["random"]
        for technique in ALL_CONTROLLER_NAMES:
            controller, outcomes = scalar_reference(trace, technique, {})
            expected = reference_timing(trace, outcomes, controller, timing)
            assert TimingSimulator(technique, GEOMETRY, timing).run(trace) == (
                expected
            )


class TestKernelCodes:
    """The kernels' codes, request by request.  The traces fire every
    code site of the WG kernel: read bypass, premature write-back,
    Tag-Buffer-miss fill, and eviction write-back."""

    @pytest.mark.parametrize(
        "technique, kwargs",
        [
            ("conventional", {}),
            ("rmw", {}),
            ("rmw", {"count_miss_traffic": True}),
            ("wg", {}),
            ("wg", {"detect_silent_writes": False}),
            ("wg_rb", {}),
            ("wg_rb", {"count_miss_traffic": True}),
        ],
    )
    @pytest.mark.parametrize("batch_size", (5, 64))
    def test_codes_match_outcomes(self, traces, technique, kwargs, batch_size):
        for trace in traces.values():
            controller, outcomes = scalar_reference(trace, technique, kwargs)
            expected = [
                outcome.port_code(access.is_read)
                for access, outcome in zip(trace, outcomes)
            ]
            kernel_controller = make_controller(
                technique, SetAssociativeCache(GEOMETRY), **kwargs
            )
            codes = np.full(len(trace), 0xFF, dtype=np.uint8)
            start = 0
            for chunk in iter_chunks(as_columns(trace), GEOMETRY, batch_size):
                stop = start + len(chunk)
                process_chunk(kernel_controller, chunk, codes[start:stop])
                start = stop
            assert codes.tolist() == expected

    def test_traces_fire_every_wg_site(self, traces):
        for technique, site in (
            ("wg_rb", "bypassed_reads"),
            ("wg", "premature_writebacks"),
            ("wg", "set_buffer_fills"),
            ("wg", "eviction_writebacks"),
        ):
            for trace in traces.values():
                controller, _ = scalar_reference(trace, technique, {})
                assert getattr(controller.counts, site) > 0, (technique, site)


class TestPortCode:
    def outcome(self, **fields):
        return AccessOutcome(
            value=0, cache_hit=True, served_from=ServedFrom.ARRAY, **fields
        )

    def test_reads(self):
        assert self.outcome(array_reads=1).port_code(True) == PORT_READ
        assert self.outcome(bypassed=True).port_code(True) == PORT_BYPASS
        forced = self.outcome(array_reads=1, array_writes=1, forced_writeback=True)
        assert forced.port_code(True) == PORT_WRITEBACK | PORT_READ

    def test_writes(self):
        assert self.outcome(array_writes=1).port_code(False) == PORT_WRITE
        rmw = self.outcome(array_reads=1, array_writes=1)
        assert rmw.port_code(False) == PORT_READ | PORT_WRITE
        fill = self.outcome(array_reads=1)
        assert fill.port_code(False) == PORT_READ
        evict = self.outcome(array_reads=1, array_writes=1, forced_writeback=True)
        assert evict.port_code(False) == PORT_WRITEBACK | PORT_READ
        assert self.outcome(grouped=True).port_code(False) == 0


class TestEdges:
    @pytest.mark.parametrize("technique", ALL_CONTROLLER_NAMES)
    def test_empty_trace(self, technique):
        for trace in ([], TraceColumns.from_lists([], [], [], [])):
            simulator = TimingSimulator(technique, GEOMETRY)
            result = simulator.run(trace)
            assert result == PerfResult(simulator.controller.name, *(0,) * 9)
            assert simulator.result.requests == 0
            controller, outcomes = scalar_reference([], technique, {})
            assert result == reference_timing([], outcomes, controller)

    def test_both_dependency_orders_rejected(self, monkeypatch):
        class MixedOrderController(RMWController):
            """RMW whose odd-icount writes also claim a forced write-back."""

            name = "mixed_order"

            def _handle_write(self, access, result):
                outcome = super()._handle_write(access, result)
                if access.icount % 2:
                    return dataclasses.replace(outcome, forced_writeback=True)
                return outcome

        monkeypatch.setitem(
            registry._FACTORIES, "mixed_order", MixedOrderController
        )
        one_order = [W(0, 0x00, 1), W(2, 0x08, 2), R(4, 0x20)]
        TimingSimulator("mixed_order", GEOMETRY).run(one_order)
        both_orders = [W(0, 0x00, 1), W(1, 0x08, 2), R(4, 0x20)]
        with pytest.raises(SimulationError, match="one dependency direction"):
            TimingSimulator("mixed_order", GEOMETRY).run(both_orders)

    def test_int64_range(self):
        """Two requests need 2 * (read + write cycles) of int64 headroom
        above the latest arrival; one cycle more is refused, classified."""
        timing = PhaseTiming()
        last_fit = 2**63 - 1 - 2 * (
            timing.array_read_cycles + timing.array_write_cycles
        )
        fits = [R(last_fit, 0x00), W(last_fit, 0x08, 1)]
        controller, outcomes = scalar_reference(fits, "rmw", {})
        assert TimingSimulator("rmw", GEOMETRY).run(fits) == reference_timing(
            fits, outcomes, controller
        )
        for icount in (last_fit + 1, 2**63, 2**64 - 1):
            beyond = [R(last_fit, 0x00), W(icount, 0x08, 1)]
            for given in (beyond, as_columns(beyond)):
                with pytest.raises(ReproError, match="int64"):
                    TimingSimulator("rmw", GEOMETRY).run(given)
