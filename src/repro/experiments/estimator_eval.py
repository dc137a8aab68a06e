"""`hprime-estimator` — accuracy of the §4 ĥ′ algorithm while prefetching.

Protocol: run the *full system* twice on common random numbers:

1. a *shadow* run with prefetching disabled — its measured hit ratio is the
   ground-truth h′ the estimator is supposed to recover;
2. the *live* run with threshold prefetching on — its §4 tagged-hit
   estimate ĥ′ (and the model-B corrected variant) is what the algorithm
   reports while prefetching is active.

Two axes are swept (the paper presents the algorithm without evaluation,
so this experiment supplies one):

* **eviction policy** — ``value-aware`` realises model A's premise
  (evictions target zero-value entries), ``lru`` is the realistic cache;
  the gap between their errors measures how much the §4 estimate depends
  on the interaction-model assumption.
* **predictor quality** — the ``true-distribution`` oracle isolates the
  estimator; the learned ``markov`` model adds predictor overconfidence
  (MLE probability 1.0 after one observation), whose prefetch storms are
  themselves a finding.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation
from repro.sim.sweep import SweepExecutor
from repro.workload.sessions import WorkloadSpec

__all__ = ["EstimatorEvalExperiment"]


@register
class EstimatorEvalExperiment(Experiment):
    experiment_id = "hprime-estimator"
    paper_artifact = "Section 4 (practical estimation of h')"
    description = "Tagged-entry h-hat' vs ground-truth h' from a shadow run"

    def _config(
        self, follow_q: float, cache_policy: str, predictor: str, *, fast: bool
    ) -> SimulationConfig:
        return SimulationConfig(
            workload=WorkloadSpec(
                num_clients=4,
                request_rate=30.0,
                catalog_size=300,
                zipf_exponent=0.9,
                follow_probability=follow_q,
            ),
            bandwidth=60.0,
            cache_policy=cache_policy,
            cache_capacity=40,
            predictor=predictor,
            policy="threshold-dynamic",
            duration=200.0 if fast else 600.0,
            warmup=25.0 if fast else 60.0,
            seed=101,
        )

    def _evaluate(self, cfg: SimulationConfig) -> list[object]:
        live = run_simulation(cfg)
        shadow = run_simulation(replace(cfg, policy="none"))
        truth = shadow.metrics.hit_ratio
        estimate = live.metrics.h_prime_estimate
        n_f = live.metrics.prefetches_per_request
        n_c = float(cfg.cache_capacity)
        corrected = estimate * n_c / (n_c - n_f) if n_f < n_c else float("nan")
        return [
            cfg.workload.follow_probability,
            cfg.cache_policy,
            cfg.predictor,
            truth,
            estimate,
            abs(estimate - truth),
            corrected,
            abs(corrected - truth),
            live.metrics.hit_ratio,
            n_f,
        ]

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="h' estimator accuracy while prefetching runs",
        )
        headers = [
            "follow q", "cache", "predictor", "h' truth", "h-hat' (A)",
            "|err A|", "h-hat' (B-corr)", "|err B|", "h live", "n(F)",
        ]
        # Axis 1: estimator in isolation (oracle probabilities), model-A
        # eviction conditions vs realistic LRU.
        iso_rows = []
        for cache_policy in ("value-aware", "lru"):
            for q in (0.4, 0.8):
                iso_rows.append(
                    self._evaluate(
                        self._config(q, cache_policy, "true-distribution", fast=fast)
                    )
                )
        result.tables.append(("oracle probabilities (estimator isolated)", headers, iso_rows))

        # Axis 2: learned predictor (adds overconfidence-driven prefetching).
        learned_rows = [
            self._evaluate(self._config(q, "lru", "markov", fast=fast))
            for q in (0.4, 0.8)
        ]
        result.tables.append(("learned markov predictor (end-to-end)", headers, learned_rows))

        worst_iso = max(row[5] for row in iso_rows)
        worst_all = max(row[5] for row in iso_rows + learned_rows)
        result.notes.append(
            f"worst |h-hat' - h'| with oracle probabilities: {worst_iso:.4f}; "
            f"including the learned predictor: {worst_all:.4f}"
        )
        result.notes.append(
            "the estimator tracks the counterfactual hit ratio while "
            "prefetching inflates the raw one (compare 'h live'); residual "
            "error grows when evictions hit valuable entries (LRU vs the "
            "model-A value-aware cache) and when the predictor "
            "overconfidently floods the cache (markov rows)"
        )
        return result
