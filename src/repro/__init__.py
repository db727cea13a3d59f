"""repro — reproduction of "Performance and Power Solutions for Caches
Using 8T SRAM Cells" (Farahani & Baniasadi, MICRO 2012).

Public API quick tour::

    from repro import (
        BASELINE_GEOMETRY, get_profile, generate_trace,
        compare_techniques, run_campaign, ExperimentConfig,
    )

    trace = generate_trace(get_profile("bwaves"), 50_000)
    comparison = compare_techniques(trace, BASELINE_GEOMETRY)
    print(comparison.access_reduction("wg"))      # ~0.47 for bwaves
    print(comparison.access_reduction("wg_rb"))   # a bit higher

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.cache import BASELINE_GEOMETRY, CacheGeometry, SetAssociativeCache
from repro.core import (
    CONTROLLER_NAMES,
    ConventionalController,
    RMWController,
    WGRBController,
    WriteGroupingController,
    make_controller,
)
from repro.sim import (
    ComparisonResult,
    ExecutionPolicy,
    ExperimentConfig,
    FailedRow,
    RetryPolicy,
    Simulator,
    compare_techniques,
    execution_policy,
    run_campaign,
    run_geometry_sweep,
    run_simulation,
)
from repro.obs import (
    ChromeTraceSink,
    IntervalSampler,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    Telemetry,
    Timer,
    span,
)
from repro.trace import (
    AccessType,
    MemoryAccess,
    collect_statistics,
    materialize,
)
from repro.workload import (
    SPEC2006_PROFILES,
    benchmark_names,
    generate_trace,
    get_profile,
    run_kernel,
)

__version__ = "1.0.0"

__all__ = [
    "BASELINE_GEOMETRY",
    "CacheGeometry",
    "SetAssociativeCache",
    "CONTROLLER_NAMES",
    "ConventionalController",
    "RMWController",
    "WriteGroupingController",
    "WGRBController",
    "make_controller",
    "Simulator",
    "run_simulation",
    "ComparisonResult",
    "compare_techniques",
    "ExperimentConfig",
    "run_campaign",
    "run_geometry_sweep",
    "RetryPolicy",
    "FailedRow",
    "ExecutionPolicy",
    "execution_policy",
    "Telemetry",
    "MetricsRegistry",
    "IntervalSampler",
    "NullSink",
    "JsonlSink",
    "ChromeTraceSink",
    "Timer",
    "span",
    "AccessType",
    "MemoryAccess",
    "collect_statistics",
    "materialize",
    "SPEC2006_PROFILES",
    "benchmark_names",
    "get_profile",
    "generate_trace",
    "run_kernel",
    "__version__",
]
