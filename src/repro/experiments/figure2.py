"""Figure 2 — access improvement G against n̄(F) (model A).

Paper panels: s̄ = 1, λ = 30, b = 50, h′ ∈ {0.0, 0.3}, n̄(F) ∈ [0, 2], one
curve per p ∈ {0.1, ..., 0.9}; ``G`` per eq. (11); plot range [−0.1, 0.1].

Expected shape:

* each curve is sign-constant: positive iff p > p_th = 0.6·f′, zero at
  p = p_th;
* positive curves increase monotonically, negative decrease monotonically
  (the paper's "monotonous change" argument below eq. 14);
* past the stability boundary (condition 12.3) eq. (11) loses meaning —
  those points are NaN in our data, blank regions in the paper's plots.
"""

from __future__ import annotations

import numpy as np

from repro.core.model_a import ModelA
from repro.core.parameters import SystemParameters
from repro.core.sweeps import improvement_vs_prefetch_count
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.sweep import SweepExecutor

__all__ = ["Figure2Experiment", "PAPER_PROBABILITIES", "NF_GRID"]

PAPER_PROBABILITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
PAPER_HIT_RATIOS = (0.0, 0.3)
NF_GRID = np.linspace(0.0, 2.0, 101)


def _panel(h_prime: float):
    """One figure panel."""
    model = ModelA(SystemParameters.paper_defaults(hit_ratio=h_prime))
    return improvement_vs_prefetch_count(
        model,
        n_f_grid=NF_GRID,
        probabilities=PAPER_PROBABILITIES,
    )


@register
class Figure2Experiment(Experiment):
    """Regenerates both panels of Figure 2."""

    experiment_id = "fig2"
    paper_artifact = "Figure 2"
    description = "G vs n(F) for p in 0.1..0.9; s=1, lambda=30, b=50, h' in {0, 0.3}"

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Access improvement G (eq. 11) against prefetch count n(F)",
        )
        panels = [_panel(h_prime) for h_prime in PAPER_HIT_RATIOS]
        for h_prime, sweep in zip(PAPER_HIT_RATIOS, panels):
            model = ModelA(SystemParameters.paper_defaults(hit_ratio=h_prime))
            result.sweeps.append(sweep)
            p_th = model.threshold()
            signs = []
            for p in PAPER_PROBABILITIES:
                series = sweep.get(f"p = {p:g}").finite()
                interior = series.y[1:]  # skip the n(F)=0 zero point
                if interior.size == 0:
                    verdict = "empty"
                elif np.all(interior > 1e-15):
                    verdict = "positive"
                elif np.all(interior < -1e-15):
                    verdict = "negative"
                elif np.all(np.abs(interior) <= 1e-12):
                    verdict = "zero"
                else:
                    verdict = "mixed"  # would contradict the paper
                signs.append(f"p={p:g}:{verdict}")
            result.notes.append(
                f"h'={h_prime}: p_th={p_th:.3f}; sign pattern {'; '.join(signs)}"
            )
        return result
