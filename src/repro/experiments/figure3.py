"""Figure 3 — excess retrieval cost C against n̄(F) (model A).

Same parameters as Figure 2; ``C = (ρ − ρ′)/(λ(1−ρ)(1−ρ′))`` (eq. 27) with
ρ from model A's eq. (8); plot range [0, 0.1].

Expected shape:

* C ≥ 0 everywhere (prefetching never reduces retrieval work);
* C increases in n̄(F), convex (the load-impedance curvature);
* for fixed n̄(F), C decreases in p: high-probability prefetches convert
  future demand fetches into hits, partially refunding their own load
  (ρ = ρ′ + n̄(F)(1−p)λs̄/b grows slower for large p);
* curves blow up toward the stability boundary and are NaN past it.
"""

from __future__ import annotations

import numpy as np

from repro.core.model_a import ModelA
from repro.core.parameters import SystemParameters
from repro.core.sweeps import excess_cost_vs_prefetch_count
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.figure2 import NF_GRID, PAPER_PROBABILITIES
from repro.sim.sweep import SweepExecutor

__all__ = ["Figure3Experiment"]

PAPER_HIT_RATIOS = (0.0, 0.3)


def _panel(h_prime: float):
    """One figure panel."""
    model = ModelA(SystemParameters.paper_defaults(hit_ratio=h_prime))
    return excess_cost_vs_prefetch_count(
        model,
        n_f_grid=NF_GRID,
        probabilities=PAPER_PROBABILITIES,
    )


@register
class Figure3Experiment(Experiment):
    """Regenerates both panels of Figure 3."""

    experiment_id = "fig3"
    paper_artifact = "Figure 3"
    description = "Excess cost C vs n(F) for p in 0.1..0.9; s=1, lambda=30, b=50"

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Excess retrieval cost C (eq. 27) against prefetch count n(F)",
        )
        panels = [_panel(h_prime) for h_prime in PAPER_HIT_RATIOS]
        for h_prime, sweep in zip(PAPER_HIT_RATIOS, panels):
            model = ModelA(SystemParameters.paper_defaults(hit_ratio=h_prime))
            result.sweeps.append(sweep)
            # Quantify the p-ordering at a sample point inside every curve's
            # stable region.
            n_f_probe = 0.4
            costs = []
            for p in PAPER_PROBABILITIES:
                c = float(
                    np.asarray(model.excess_cost(n_f_probe, p, on_unstable="nan"))
                )
                costs.append((p, c))
            ordered = all(
                costs[i][1] >= costs[i + 1][1] - 1e-15 for i in range(len(costs) - 1)
            )
            result.notes.append(
                f"h'={h_prime}: C at n(F)={n_f_probe} decreases with p: {ordered} "
                f"(C(p=0.1)={costs[0][1]:.4f}, C(p=0.9)={costs[-1][1]:.4f})"
            )
        return result
