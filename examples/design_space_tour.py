"""The adopter's menu: every implemented technique on one workload.

Runs all eight controllers — the paper's four (conventional, RMW, WG,
WG+RB), the three related-work comparators (Chang's word-granular
writes, Park's banked local RMW, Kim's pulse-assisted writes) and the
equal-storage coalescing write buffer — over the same trace, and
prints the quantities an adopter would weigh: array accesses, dynamic
energy, mean read latency, and each design's structural cost.  One
timing run per controller gives both its read latency and the event
log its accesses and energy come from.

Run:  python examples/design_space_tour.py [benchmark]
"""

import sys

from repro.cache.config import BASELINE_GEOMETRY
from repro.core.registry import ALL_CONTROLLER_NAMES
from repro.perf.timing import TimingSimulator
from repro.power.area import AreaModel
from repro.power.energy import EnergyModel
from repro.power.params import TECH_45NM
from repro.sram.geometry import ArrayGeometry
from repro.trace.stream import materialize
from repro.utils.tables import format_table
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

STRUCTURAL_COST = {
    "conventional": "6T cells: high Vmin, no low-voltage DVFS",
    "rmw": "baseline 8T cost structure",
    "rmw_local": "hierarchical RBLs, per-bank isolation logic",
    "word_write": "no interleaving: needs multi-bit ECC (+9.4% bits)",
    "pulse_assist": "adaptive WWL pulse/voltage: ~2x write energy+pulse",
    "wg": "128B Set-Buffer + <150b Tag-Buffer + comparators",
    "wg_rb": "WG + output bypass mux",
    "write_buffer": "4x32B coalescing entries + forwarding CAM",
}


def main() -> None:
    benchmark_name = sys.argv[1] if len(sys.argv) > 1 else "bwaves"
    profile = get_profile(benchmark_name)
    trace = materialize(generate_trace(profile, 25_000))
    geometry = BASELINE_GEOMETRY
    energy_model = EnergyModel(TECH_45NM, ArrayGeometry.for_cache(geometry))
    area_model = AreaModel(node_nm=45)

    runs = {}
    for technique in ALL_CONTROLLER_NAMES:
        simulator = TimingSimulator(technique, geometry)
        perf = simulator.run(trace)
        runs[technique] = (simulator.result, perf)
    rmw_accesses = runs["rmw"][0].array_accesses
    rows = []
    for technique, (result, perf) in runs.items():
        energy_nj = energy_model.energy_of(result.events).total_nj
        reduction = 100 * (1 - result.array_accesses / rmw_accesses)
        rows.append(
            (
                technique,
                result.array_accesses,
                reduction,
                energy_nj,
                perf.mean_read_latency,
            )
        )
    rows.sort(key=lambda row: row[1])
    print(
        format_table(
            (
                "technique",
                "array accesses",
                "vs RMW %",
                "dyn energy nJ",
                "read latency",
            ),
            rows,
            title=(
                f"{benchmark_name} ({profile.description}) on "
                f"{geometry.describe()}"
            ),
        )
    )
    print("\nStructural costs:")
    for technique in ALL_CONTROLLER_NAMES:
        print(f"  {technique:<13} {STRUCTURAL_COST[technique]}")
    secded = 100 * area_model.ecc_overhead(geometry, "secded")
    multibit = 100 * area_model.ecc_overhead(geometry, "multi_bit")
    print(
        f"\nECC storage: interleaved SEC-DED {secded:.1f}% vs "
        f"non-interleaved multi-bit {multibit:.1f}% of data bits."
    )


if __name__ == "__main__":
    main()
