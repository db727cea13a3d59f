"""Simulation driver: traces -> controllers -> results.

``simulator``
    Run one trace through one controller.
``comparison``
    Replay one materialised trace through several techniques on fresh
    caches, and compute the paper's access-frequency reduction metrics.
``experiment``
    :class:`ExperimentConfig` — everything one run depends on.
``campaign``
    Full benchmark-suite sweeps (the shape of Figures 9-11).
``resilience``
    Retry policies, supervised worker processes, ambient execution
    policies — how long campaigns survive faults.
``parallel``
    The supervised worker pool behind ``run_campaign(processes=N)``.

Interrupted campaigns resume from the result store (:mod:`repro.store`):
re-run with the same ``result_cache`` and only missing rows execute.
"""

from repro.sim.simulator import SimulationResult, Simulator, run_simulation
from repro.sim.comparison import ComparisonResult, compare_techniques
from repro.sim.experiment import ExperimentConfig
from repro.sim.campaign import (
    BenchmarkRow,
    CampaignResult,
    run_campaign,
    run_geometry_sweep,
)
from repro.sim.resilience import (
    ExecutionPolicy,
    FailedRow,
    RetryPolicy,
    active_policy,
    execution_policy,
)
from repro.sim.stability import StabilityResult, seed_stability

__all__ = [
    "StabilityResult",
    "seed_stability",
    "Simulator",
    "SimulationResult",
    "run_simulation",
    "ComparisonResult",
    "compare_techniques",
    "ExperimentConfig",
    "BenchmarkRow",
    "CampaignResult",
    "run_campaign",
    "run_geometry_sweep",
    "RetryPolicy",
    "FailedRow",
    "ExecutionPolicy",
    "execution_policy",
    "active_policy",
]
