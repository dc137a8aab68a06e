"""`policy-ablation` — end-to-end comparison of prefetch policies.

The paper's motivation (§1): ad-hoc heuristics ("prefetch if p exceeds a
fixed threshold") need analytical grounding because bandwidth and memory
are shared.  This experiment runs the *full system* (real caches, real
predictor, shared PS link) under a predictable workload and compares mean
access time across policies on common random numbers:

* ``none`` — the t̄′ baseline;
* ``threshold-dynamic`` — the paper's rule with the §4 estimator;
* ``fixed-threshold`` p0 ∈ {0.05, 0.5, 0.95} — the criticised heuristic at
  a too-low / plausible / too-high setting;
* ``top-k`` (k=2) — probability-blind aggressiveness;
* ``all`` — indiscriminate prefetching (the §1 degradation warning).

Expected ordering: threshold ≲ well-tuned fixed < none < badly-tuned
fixed/all under load (the indiscriminate policies saturate the link).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.config import SimulationConfig
from repro.sim.sweep import SweepExecutor, SweepPoint
from repro.workload.sessions import WorkloadSpec

__all__ = ["PolicyAblationExperiment"]


@register
class PolicyAblationExperiment(Experiment):
    experiment_id = "policy-ablation"
    paper_artifact = "Section 1 motivation; boxed rules of section 3"
    description = "Full-system access time under competing prefetch policies"

    def base_config(self, *, fast: bool) -> SimulationConfig:
        return SimulationConfig(
            workload=WorkloadSpec(
                num_clients=4,
                request_rate=30.0,
                catalog_size=400,
                zipf_exponent=0.8,
                follow_probability=0.7,  # predictable successor structure
            ),
            bandwidth=55.0,
            cache_policy="lru",
            cache_capacity=40,
            predictor="true-distribution",  # isolate policy effects
            policy="none",
            duration=150.0 if fast else 500.0,
            warmup=25.0 if fast else 60.0,
            seed=42,
        )

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Prefetch policy ablation (full system, common random numbers)",
        )
        base = self.base_config(fast=fast)
        reps = 2 if fast else 4
        policies = {
            "none": {"policy": "none"},
            "threshold-dynamic": {"policy": "threshold-dynamic"},
            "fixed p0=0.05": {"policy": "fixed-threshold", "policy_params": {"p0": 0.05}},
            "fixed p0=0.5": {"policy": "fixed-threshold", "policy_params": {"p0": 0.5}},
            "fixed p0=0.95": {"policy": "fixed-threshold", "policy_params": {"p0": 0.95}},
            "top-2": {"policy": "top-k", "policy_params": {"k": 2}},
            "all": {"policy": "all"},
        }
        # The whole (policy × replication) grid runs through the run's
        # sweep engine: one shared pool, cached per policy point, and the
        # same seed schedule as compare_policies (so common random numbers
        # and bit-identity with the per-point path are preserved).
        outcomes = engine.run(
            [
                SweepPoint(key=name, config=replace(base, **overrides),
                           replications=reps)
                for name, overrides in policies.items()
            ]
        )
        rows = []
        for name in policies:
            rr = outcomes[name]
            rows.append(
                [
                    name,
                    rr.mean("mean_access_time"),
                    rr.mean("hit_ratio"),
                    rr.mean("utilization"),
                    rr.mean("prefetches_per_request"),
                    rr.mean("prefetch_traffic_share"),
                ]
            )
        result.tables.append(
            (
                "policy comparison (means over replications)",
                ["policy", "t_bar", "hit ratio", "rho", "n(F)", "prefetch traffic"],
                rows,
            )
        )
        t_by_name = {row[0]: row[1] for row in rows}
        result.notes.append(
            "improvement of threshold-dynamic over no-prefetch: "
            f"G = {t_by_name['none'] - t_by_name['threshold-dynamic']:.6f}"
        )
        result.notes.append(
            "indiscriminate prefetching ('all') vs baseline: "
            f"{t_by_name['all'] - t_by_name['none']:+.6f} "
            "(positive = degradation, the paper's §1 warning)"
        )
        return result
