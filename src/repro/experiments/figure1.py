"""Figure 1 — threshold p_th against item size s (model A).

Paper panels: λ = 30, h′ ∈ {0.0, 0.3}, s ∈ [0, 10], one curve per
bandwidth b ∈ {50, 100, ..., 450}; ``p_th = f′λs/b`` (eq. 13).

Expected shape (checked by tests and recorded in EXPERIMENTS.md):

* every curve is linear in s with slope ``f′λ/b``, through the origin;
* curves order inversely with b (less bandwidth → higher threshold);
* the h′ = 0.3 panel is the h′ = 0 panel scaled by f′ = 0.7;
* values above 1 mean "nothing is worth prefetching" (the paper clips its
  axis at 1; we keep the raw values in the data).
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import SystemParameters
from repro.core.sweeps import threshold_vs_size
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.sweep import SweepExecutor

__all__ = ["Figure1Experiment", "PAPER_BANDWIDTHS", "PAPER_HIT_RATIOS"]

PAPER_BANDWIDTHS = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0)
PAPER_HIT_RATIOS = (0.0, 0.3)
PAPER_LAMBDA = 30.0
SIZE_GRID = np.linspace(0.0, 10.0, 101)


def _panel(h_prime: float):
    """One figure panel."""
    params = SystemParameters(
        bandwidth=PAPER_BANDWIDTHS[0],  # per-curve b comes from the sweep
        request_rate=PAPER_LAMBDA,
        mean_item_size=1.0,
        hit_ratio=h_prime,
    )
    return threshold_vs_size(
        params,
        sizes=SIZE_GRID,
        bandwidths=PAPER_BANDWIDTHS,
        model="A",
    )


@register
class Figure1Experiment(Experiment):
    """Regenerates both panels of Figure 1."""

    experiment_id = "fig1"
    paper_artifact = "Figure 1"
    description = "p_th vs item size s for nine bandwidths, h' in {0.0, 0.3}"

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Threshold p_th = f'*lambda*s/b against s (model A, eq. 13)",
        )
        panels = [_panel(h_prime) for h_prime in PAPER_HIT_RATIOS]
        for h_prime, sweep in zip(PAPER_HIT_RATIOS, panels):
            result.sweeps.append(sweep)
            # Shape checks the paper's plot makes visually:
            b50 = sweep.get("b = 50")
            slope = (b50.y[-1] - b50.y[0]) / (b50.x[-1] - b50.x[0])
            expected_slope = (1 - h_prime) * PAPER_LAMBDA / 50.0
            result.notes.append(
                f"h'={h_prime}: slope of b=50 curve = {slope:.4f} "
                f"(theory f'*lambda/b = {expected_slope:.4f})"
            )
        return result
