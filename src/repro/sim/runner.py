"""Replicated runs, confidence intervals and paired policy comparison.

Single runs of a stochastic simulation prove nothing; every experiment
reports means over independent replications with Student-t confidence
intervals.  Policy comparisons use *common random numbers* (same seeds →
same workload realisations) so the difference estimator is paired and
sharp.

All three entry points are thin calls of
:meth:`~repro.sim.sweep.SweepExecutor.run`, the one replication loop:
replication ``i`` runs with seed ``seed0 + 1000·i``, and ``jobs`` sizes
the engine's pool (``None`` → serial).  Parallel results are bit-identical
to serial ones for the same base seed (seeds are fixed before dispatch and
results return in submission order).
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.config import SimulationConfig
from repro.sim.mirror import MirrorConfig
from repro.sim.sweep import ReplicatedResult, SweepExecutor, SweepPoint

__all__ = [
    "ReplicatedResult",
    "run_mirror_replications",
    "run_simulation_replications",
    "compare_policies",
]


def _replicate(
    config: MirrorConfig | SimulationConfig,
    replications: int,
    base_seed: int | None,
    jobs: int | None,
) -> ReplicatedResult:
    point = SweepPoint("run", config, replications=replications, base_seed=base_seed)
    return SweepExecutor(jobs).run([point])["run"]


def run_mirror_replications(
    config: MirrorConfig,
    *,
    replications: int = 5,
    base_seed: int | None = None,
    jobs: int | None = None,
) -> ReplicatedResult:
    """n independent mirror runs differing only in seed.

    ``jobs`` workers run replications concurrently (None → serial);
    results are bit-identical to a serial run.
    """
    return _replicate(config, replications, base_seed, jobs)


def run_simulation_replications(
    config: SimulationConfig,
    *,
    replications: int = 5,
    base_seed: int | None = None,
    jobs: int | None = None,
) -> ReplicatedResult:
    """n independent full-system runs differing only in seed.

    ``jobs`` workers run replications concurrently (None → serial);
    results are bit-identical to a serial run.
    """
    return _replicate(config, replications, base_seed, jobs)


def compare_policies(
    base_config: SimulationConfig,
    policies: dict[str, dict],
    *,
    replications: int = 5,
    jobs: int | None = None,
) -> dict[str, ReplicatedResult]:
    """Run each policy variant on common random numbers.

    ``policies`` maps a display name to ``{"policy": ..., "policy_params":
    ..., ...}`` overrides applied to ``base_config``.  Identical seeds per
    replication index give paired samples.

    Each policy is one point of a single grid, so ``jobs`` workers
    parallelise across policies as well as replications — and because
    every cell's seed is fixed up front, the common-random-numbers pairing
    is preserved exactly.
    """
    points = [
        SweepPoint(
            name,
            replace(base_config, **overrides),
            replications=replications,
            base_seed=base_config.seed,
        )
        for name, overrides in policies.items()
    ]
    return SweepExecutor(jobs).run(points).results
