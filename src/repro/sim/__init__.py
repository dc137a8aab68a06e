"""Simulation layer: analytic mirror, full system, replication, validation."""

from repro.sim.config import SimulationConfig
from repro.sim.metrics import MetricsCollector, SimulationMetrics, finalize_aggregate
from repro.sim.mirror import MirrorConfig, run_mirror
from repro.sim.node import FetchTable, ProxyNode
from repro.sim.parallel import ReplicationExecutor, resolve_jobs
from repro.sim.runner import (
    ReplicatedResult,
    compare_policies,
    run_mirror_replications,
    run_simulation_replications,
)
from repro.sim.simulation import (
    ProxyShardStats,
    Simulation,
    SimulationOutput,
    run_simulation,
)
from repro.sim.sweep import SweepExecutor, SweepPoint, SweepRunResult
from repro.sim.validate import TheoryComparison, mirror_vs_theory

__all__ = [
    "FetchTable",
    "MetricsCollector",
    "MirrorConfig",
    "ProxyNode",
    "ProxyShardStats",
    "ReplicatedResult",
    "ReplicationExecutor",
    "Simulation",
    "SimulationConfig",
    "SimulationMetrics",
    "SimulationOutput",
    "SweepExecutor",
    "SweepPoint",
    "SweepRunResult",
    "TheoryComparison",
    "compare_policies",
    "finalize_aggregate",
    "mirror_vs_theory",
    "resolve_jobs",
    "run_mirror",
    "run_mirror_replications",
    "run_simulation",
    "run_simulation_replications",
]
