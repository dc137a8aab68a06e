"""`load-impedance` — §5's observation that prefetch cost rises with load.

"Prefetching an item when the system load is high costs more than
prefetching the same item during low system load."

Two views:

1. closed form: the marginal retrieval cost ``dR/dρ = 1/(λ(1−ρ)²)`` and
   the excess cost of a *fixed* prefetch workload (n̄(F)=0.25, p=0.5) as
   the baseline load ρ′ sweeps upward;
2. mirror simulation at low/medium/high ρ′ confirming the measured C
   ordering.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.series import Series, SweepResult
from repro.core.excess_cost import excess_cost, load_impedance_ratio, marginal_cost
from repro.core.model_a import ModelA
from repro.core.parameters import SystemParameters
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.mirror import MirrorConfig
from repro.sim.sweep import SweepExecutor, SweepPoint

__all__ = ["LoadImpedanceExperiment"]


@register
class LoadImpedanceExperiment(Experiment):
    experiment_id = "load-impedance"
    paper_artifact = "Section 5 (excess retrieval cost discussion)"
    description = "Cost of the same prefetch under increasing baseline load"

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Load impedance: same prefetch, rising load",
        )
        lam, s = 30.0, 1.0
        n_f, p = 0.25, 0.5
        # Sweep baseline utilisation by varying bandwidth at fixed demand.
        rho_grid = np.linspace(0.1, 0.9, 33)
        c_vals = np.empty_like(rho_grid)
        m_vals = np.empty_like(rho_grid)
        for i, rho_p in enumerate(rho_grid):
            b = lam * s / rho_p  # h'=0 so f'=1: rho' = lam*s/b
            params = SystemParameters(bandwidth=b, request_rate=lam, mean_item_size=s)
            model = ModelA(params)
            c_vals[i] = float(np.asarray(model.excess_cost(n_f, p, on_unstable="nan")))
            m_vals[i] = float(np.asarray(marginal_cost(rho_p, lam, on_unstable="nan")))
        result.sweeps.append(
            SweepResult(
                title=f"Excess cost of a fixed prefetch load (n(F)={n_f}, p={p}) vs rho'",
                x_label="rho'",
                y_label="cost",
                series=(
                    Series("C (eq. 27)", rho_grid, c_vals),
                    Series("dR/drho (x0.01)", rho_grid, m_vals * 0.01),
                ),
                params={"lambda": lam, "s": s, "n_f": n_f, "p": p},
            )
        )
        finite = np.isfinite(c_vals)
        increasing = bool(np.all(np.diff(c_vals[finite]) > 0))
        result.notes.append(
            f"C strictly increases with baseline load: {increasing}; "
            f"impedance ratio (rho'=0.8 vs 0.2) = "
            f"{load_impedance_ratio(0.2, 0.8):.2f}x"
        )

        # --- simulated confirmation ------------------------------------
        # All six mirror runs (3 load levels × prefetch on/off) form one
        # grid through the run's sweep engine — one shared pool, cached
        # per point, same per-point seed schedule as before.
        duration = 400.0 if fast else 1500.0
        warmup = 40.0 if fast else 150.0
        reps = 3
        rho_levels = (0.2, 0.5, 0.8)
        points = []
        for rho_p in rho_levels:
            b = lam * s / rho_p
            params = SystemParameters(bandwidth=b, request_rate=lam, mean_item_size=s)
            base = MirrorConfig(
                params=params, n_f=n_f, p=p, duration=duration, warmup=warmup, seed=5
            )
            points.append(
                SweepPoint(key=f"rho={rho_p:g}/prefetch", config=base,
                           replications=reps, meta={"rho": rho_p})
            )
            points.append(
                SweepPoint(key=f"rho={rho_p:g}/baseline",
                           config=replace(base, n_f=0.0, p=0.0),
                           replications=reps, meta={"rho": rho_p})
            )
        grid = engine.run(points)
        rows = []
        for rho_p in rho_levels:
            measured_C = grid.mean(
                f"rho={rho_p:g}/prefetch", "retrieval_time_per_request"
            ) - grid.mean(f"rho={rho_p:g}/baseline", "retrieval_time_per_request")
            b = lam * s / rho_p
            params = SystemParameters(bandwidth=b, request_rate=lam, mean_item_size=s)
            model = ModelA(params)
            theory_C = float(np.asarray(model.excess_cost(n_f, p, on_unstable="nan")))
            rows.append([rho_p, theory_C, measured_C])
        result.tables.append(
            (
                "measured C = R - R' vs eq. (27)",
                ["rho'", "C theory", "C simulated"],
                rows,
            )
        )
        sim_increasing = rows[0][2] < rows[1][2] < rows[2][2]
        result.notes.append(
            f"simulated C ordering low<mid<high load: {sim_increasing}"
        )
        return result
