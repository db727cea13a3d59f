"""Integration tests for the observability plane.

Two invariants protect the measurement foundation:

1. **Non-perturbation** — telemetry (off *or* on) must never change
   what the simulator computes.  The off-path is pinned against
   hard-coded seed expectations (the trace is deterministic, so any
   instrumentation leak into simulation state changes these numbers);
   the on-path is checked bit-identical to the off-path.
2. **Cheap when dark** — the uninstrumented request path adds one
   boolean test over the seed hot loop.  The overhead test replays the
   seed's ``process()`` body side by side with the instrumented one on
   a 50k-access run and bounds the ratio.
"""

import time

import pytest

from repro.cache.config import BASELINE_GEOMETRY
from repro.obs.sampler import IntervalSampler
from repro.obs.sinks import NullSink
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.comparison import compare_techniques
from repro.sim.simulator import Simulator
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

#: bwaves @ seed 2012, 50k accesses — computed at the seed revision.
#: These pins fail if instrumentation ever perturbs simulation state.
SEED_ARRAY_ACCESSES = {
    "conventional": 50_000,
    "rmw": 74_270,
    "wg": 40_684,
    "wg_rb": 39_004,
}

TECHNIQUES = tuple(SEED_ARRAY_ACCESSES)


@pytest.fixture(scope="module")
def trace_50k():
    return generate_trace(get_profile("bwaves"), 50_000, seed=2012)


class TestNonPerturbation:
    def test_default_path_matches_seed_exactly(self, trace_50k):
        comparison = compare_techniques(
            trace_50k, BASELINE_GEOMETRY, techniques=TECHNIQUES
        )
        measured = {
            t: comparison.result(t).array_accesses for t in TECHNIQUES
        }
        assert measured == SEED_ARRAY_ACCESSES

    def test_null_sink_bit_identical_to_default(self, trace_50k):
        plain = compare_techniques(
            trace_50k, BASELINE_GEOMETRY, techniques=TECHNIQUES
        )
        nulled = compare_techniques(
            trace_50k,
            BASELINE_GEOMETRY,
            techniques=TECHNIQUES,
            telemetry=Telemetry(sink=NullSink()),
        )
        for technique in TECHNIQUES:
            assert (
                plain.result(technique).events
                == nulled.result(technique).events
            )
            assert (
                plain.result(technique).counts
                == nulled.result(technique).counts
            )

    def test_full_telemetry_bit_identical_to_default(self, trace_50k):
        # Even with metrics + sampling live, the simulation itself must
        # not move: instrumentation observes, never participates.
        short = trace_50k[:10_000]
        plain = compare_techniques(
            short, BASELINE_GEOMETRY, techniques=TECHNIQUES
        )
        telem = Telemetry(sampler=IntervalSampler(1_000))
        observed = compare_techniques(
            short, BASELINE_GEOMETRY, techniques=TECHNIQUES, telemetry=telem
        )
        for technique in TECHNIQUES:
            assert (
                plain.result(technique).events
                == observed.result(technique).events
            )
        # ... and the metrics agree with the simulation's own counters.
        registry = telem.registry
        rmw = plain.result("rmw")
        assert registry.value("ctrl.rmw.rmw_issued") == (
            rmw.counts.rmw_operations
        )
        wg = plain.result("wg")
        assert registry.value("ctrl.wg.sb_hit") == wg.counts.grouped_writes
        assert registry.value("ctrl.wg_rb.read_bypass") == (
            plain.result("wg_rb").counts.bypassed_reads
        )

    def test_null_telemetry_registry_untouched(self, trace_50k):
        simulator = Simulator("wg", BASELINE_GEOMETRY)
        simulator.feed(trace_50k[:5_000])
        simulator.finish()
        assert simulator.telemetry is NULL_TELEMETRY
        assert len(NULL_TELEMETRY.registry) == 0


def _seed_process(controller, access):
    """The seed revision's ``CacheController.process`` body, verbatim
    minus the observability branch — the overhead comparison baseline."""
    if controller._finalized:
        raise RuntimeError("controller already finalized")
    if access.is_read:
        controller.counts.read_requests += 1
    else:
        controller.counts.write_requests += 1
    controller._current_icount = access.icount
    controller._before_residency(access)
    result = controller.cache.ensure_resident(access)
    if result.filled:
        controller._account_miss_traffic(result)
    if access.is_read:
        return controller._handle_read(access, result)
    return controller._handle_write(access, result)


def _time_feed(trace, use_seed_body):
    """CPU seconds this process spends feeding ``trace``: unlike wall
    time, other processes on the host do not inflate it."""
    simulator = Simulator("wg", BASELINE_GEOMETRY)
    controller = simulator.controller
    started = time.process_time()
    if use_seed_body:
        for access in trace:
            _seed_process(controller, access)
    else:
        for access in trace:
            controller.process(access)
    return time.process_time() - started


class TestOverhead:
    def test_dark_path_overhead_under_budget(self, trace_50k):
        """Uninstrumented ``process()`` vs the seed body on 50k accesses.

        Budget is ~5%; the assertion allows CI timing noise on top.
        Best-of-five per variant, interleaved, to cancel drift: on a
        host whose speed changes in phases, three runs per variant can
        leave the two bests in different phases.  Each run is timed in
        process CPU time, so a busy host stretches neither side.
        """
        seed_best = instrumented_best = float("inf")
        for _ in range(5):
            seed_best = min(seed_best, _time_feed(trace_50k, True))
            instrumented_best = min(
                instrumented_best, _time_feed(trace_50k, False)
            )
        ratio = instrumented_best / seed_best
        assert ratio < 1.12, (
            f"dark-path overhead {100 * (ratio - 1):.1f}% exceeds budget "
            f"(seed {seed_best:.3f}s vs instrumented {instrumented_best:.3f}s)"
        )
