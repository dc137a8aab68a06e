"""§3 boxed claims and condition-redundancy checks, done numerically.

Verifies on dense grids (the hypothesis suite re-verifies on random ones):

1. sign(G) = sign(p − p_th) inside the feasible, stable region — models A
   and B (eqs. 13/21);
2. condition 3 of (12)/(20) is redundant: for every feasible
   ``n̄(F) ≤ max(np)`` with ``p > p_th``, the post-prefetch system is
   automatically stable (the paper's eq. 14/22 argument);
3. G is monotone in n̄(F) at fixed p (increasing when p > p_th);
4. the threshold-selected set is optimal among heterogeneous candidate
   sets (exhaustive cross-check on small instances) — and where it is
   *not* exactly optimal, the gap is reported (our extension; the paper
   proves optimality only for homogeneous p).
"""

from __future__ import annotations

import numpy as np

from repro.core.model_a import ModelA
from repro.core.model_b import ModelB
from repro.core.optimizer import exhaustive_set, threshold_set
from repro.core.parameters import SystemParameters
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.sweep import SweepExecutor

__all__ = ["ThresholdClaimsExperiment"]


@register
class ThresholdClaimsExperiment(Experiment):
    experiment_id = "threshold-claims"
    paper_artifact = "Sections 3.1-3.2 (boxed results, conditions 12/20)"
    description = "Numerical audit of the threshold rule and redundancy claims"

    def _grid_audit(self, model, label: str) -> list[object]:
        p_th = model.threshold()
        p_grid = np.linspace(0.01, 0.99, 50)
        violations_sign = 0
        violations_stability = 0
        violations_monotone = 0
        points = 0
        for p in p_grid:
            cap = float(model.max_np(p))
            n_f_grid = np.linspace(1e-6, min(cap, 5.0), 21)
            g = np.asarray(
                model.improvement_closed_form(n_f_grid, p, on_unstable="nan")
            )
            rho = np.asarray(model.utilization(n_f_grid, p))
            points += g.size
            if p > p_th + 1e-9:
                violations_sign += int(np.sum(~(g[np.isfinite(g)] > -1e-15)))
                # claim 2: feasible + profitable => stable
                violations_stability += int(np.sum(rho >= 1.0))
                diffs = np.diff(g[np.isfinite(g)])
                violations_monotone += int(np.sum(diffs < -1e-12))
            elif p < p_th - 1e-9:
                violations_sign += int(np.sum(~(g[np.isfinite(g)] < 1e-15)))
                diffs = np.diff(g[np.isfinite(g)])
                violations_monotone += int(np.sum(diffs > 1e-12))
            else:
                violations_sign += int(np.sum(np.abs(g[np.isfinite(g)]) > 1e-12))
        return [label, p_th, points, violations_sign, violations_stability, violations_monotone]

    def _optimality_audit(self, *, trials: int, seed: int) -> tuple[list, str]:
        rng = np.random.default_rng(seed)
        agree = 0
        max_gap = 0.0
        for _ in range(trials):
            params = SystemParameters(
                bandwidth=float(rng.uniform(30, 100)),
                request_rate=30.0,
                mean_item_size=1.0,
                hit_ratio=float(rng.uniform(0.0, 0.5)),
            )
            n = int(rng.integers(2, 8))
            # scale candidates so total mass stays feasible (< f')
            raw = rng.uniform(0.05, 0.95, size=n)
            raw *= min(1.0, 0.95 * params.fault_ratio / raw.sum())
            probs = list(raw)
            best = exhaustive_set(params, probs)
            rule = threshold_set(params, probs)
            gap = best.improvement - max(rule.improvement, 0.0)
            if set(best.selected) == set(rule.selected) or gap <= 1e-12:
                agree += 1
            max_gap = max(max_gap, gap)
        note = (
            f"threshold rule matched the exhaustive optimum in {agree}/{trials} "
            f"random heterogeneous instances; worst G shortfall {max_gap:.3e} "
            f"(paper proves optimality for homogeneous p; heterogeneity can "
            f"open a tiny gap)"
        )
        return [agree, trials, max_gap], note

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Threshold rule & condition redundancy audit",
        )
        params_a = SystemParameters.paper_defaults(hit_ratio=0.3)
        params_b = SystemParameters.paper_defaults(hit_ratio=0.3, cache_size=20.0)
        rows = [
            self._grid_audit(ModelA(params_a), "A (h'=0.3)"),
            self._grid_audit(ModelB(params_b), "B (h'=0.3, n(C)=20)"),
            self._grid_audit(ModelA(SystemParameters.paper_defaults()), "A (h'=0)"),
        ]
        result.tables.append(
            (
                "grid audit (violations must be 0)",
                ["model", "p_th", "points", "sign-viol", "stab-viol", "mono-viol"],
                rows,
            )
        )
        trials = 30 if fast else 150
        opt_row, note = self._optimality_audit(trials=trials, seed=7)
        result.tables.append(
            (
                "heterogeneous-optimality audit",
                ["agree", "trials", "max G shortfall"],
                [opt_row],
            )
        )
        result.notes.append(note)
        return result
