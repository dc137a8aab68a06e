"""`sim-vs-analytic` — the DES reproduces the closed forms.

Runs the analytic mirror at a spread of operating points (including the
no-prefetch baseline) and reports measured vs predicted t̄, ρ, R with
relative errors.  Also quantifies the *batch-arrival caveat*: the paper's
analysis assumes the effective job stream is Poisson; when prefetches are
issued at the instant of their triggering request (as a real system would),
sojourn times exceed eq. (2) by a measurable margin.

The report also carries the *Che model-error table*: the
:class:`~repro.analysis.cachemodel.AnalyticPredictor` is cross-validated
against full-system DES runs at a spread of prefetch-free (capacity, zipf)
cache points, so the predictor's error is measured here, not assumed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.cachemodel import AnalyticPredictor
from repro.core.parameters import SystemParameters
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.config import SimulationConfig
from repro.sim.mirror import MirrorConfig
from repro.sim.sweep import SweepExecutor, SweepPoint
from repro.sim.validate import mirror_vs_theory
from repro.workload.sessions import WorkloadSpec

__all__ = ["SimVsAnalyticExperiment"]


@register
class SimVsAnalyticExperiment(Experiment):
    experiment_id = "sim-vs-analytic"
    paper_artifact = "Equations (4)-(5), (8)-(10), (25)-(27)"
    description = "DES validation of the closed forms + batch-arrival caveat"

    def _operating_points(self) -> list[MirrorConfig]:
        pts = []
        for h_prime, n_f, p in [
            (0.0, 0.0, 0.0),   # baseline, rho' = 0.6
            (0.3, 0.0, 0.0),   # baseline, rho' = 0.42
            (0.3, 0.5, 0.8),   # profitable prefetching
            (0.3, 0.3, 0.5),   # marginal prefetching
            (0.0, 0.4, 0.9),   # aggressive but profitable
        ]:
            params = SystemParameters.paper_defaults(hit_ratio=h_prime)
            pts.append(MirrorConfig(params=params, n_f=n_f, p=p, seed=11))
        return pts

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        duration = 600.0 if fast else 3000.0
        warmup = 60.0 if fast else 300.0
        reps = 3 if fast else 5
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Mirror simulation vs closed forms",
        )
        # One grid for every mirror run in this experiment: the 5 operating
        # points (replicated), their independent comparison samples, and
        # the 3 timing variants of the batch-arrival caveat below — all
        # through the run's sweep engine's single shared pool, with the
        # per-point seed schedules unchanged (bit-identical results).
        operating = [
            replace(cfg, duration=duration, warmup=warmup)
            for cfg in self._operating_points()
        ]
        params = SystemParameters.paper_defaults(hit_ratio=0.3)
        caveat_base = MirrorConfig(
            params=params, n_f=0.5, p=0.8,
            duration=duration, warmup=warmup, seed=3,
        )
        timings = ("independent", "jittered", "batched")
        points = []
        for i, cfg in enumerate(operating):
            points.append(SweepPoint(key=f"pt{i}", config=cfg, replications=reps))
            points.append(
                SweepPoint(key=f"pt{i}/sample", config=cfg, replications=1,
                           base_seed=cfg.seed + 999)
            )
        for timing in timings:
            points.append(
                SweepPoint(key=f"caveat/{timing}",
                           config=replace(caveat_base, prefetch_timing=timing),
                           replications=reps)
            )
        grid = engine.run(points)

        rows = []
        worst = 0.0
        for i, cfg in enumerate(operating):
            rr = grid[f"pt{i}"]
            # Build a synthetic metrics view from replication means for the
            # comparison record.
            sample = grid.raw[f"pt{i}/sample"][0]
            comparison = mirror_vs_theory(cfg, sample)
            measured_t = rr.mean("mean_access_time")
            measured_rho = rr.mean("utilization")
            measured_R = rr.mean("retrieval_time_per_request")
            pred_t = comparison.predicted_access_time
            pred_rho = comparison.predicted_utilization
            pred_R = comparison.predicted_retrieval_per_request
            err = max(
                abs(measured_t - pred_t) / max(pred_t, 1e-12),
                abs(measured_rho - pred_rho) / max(pred_rho, 1e-12),
                abs(measured_R - pred_R) / max(pred_R, 1e-12),
            ) if pred_t > 0 else 0.0
            worst = max(worst, err)
            rows.append(
                [
                    f"h'={cfg.params.hit_ratio:g}",
                    cfg.n_f,
                    cfg.p,
                    pred_t,
                    measured_t,
                    pred_rho,
                    measured_rho,
                    pred_R,
                    measured_R,
                    err,
                ]
            )
        result.tables.append(
            (
                "mirror (independent prefetch stream) vs theory",
                ["point", "n(F)", "p", "t theory", "t sim", "rho theory",
                 "rho sim", "R theory", "R sim", "max rel err"],
                rows,
            )
        )
        result.notes.append(f"worst relative error across points: {worst:.3%}")

        # --- batch-arrival caveat --------------------------------------
        # The theory reference previously re-ran run_mirror(cfg) at seed 3;
        # that is exactly replication 0 of the 'independent' caveat point
        # (seed schedule 3, 1003, ...), so reuse the grid's raw output.
        caveat_rows = []
        theory_t = mirror_vs_theory(
            replace(caveat_base, prefetch_timing=timings[0]),
            grid.raw[f"caveat/{timings[0]}"][0],
        ).predicted_access_time
        for timing in timings:
            t = grid.mean(f"caveat/{timing}", "mean_access_time")
            caveat_rows.append([timing, t, t / theory_t - 1.0])
        result.tables.append(
            (
                "batch-arrival caveat: t_bar vs prefetch timing "
                f"(theory {theory_t:.6f})",
                ["prefetch timing", "t sim", "inflation vs eq.(2)"],
                caveat_rows,
            )
        )
        result.notes.append(
            "the paper's M/G/1 treatment assumes independent Poisson job "
            "arrivals; physically-batched prefetches inflate access times by "
            "the factor shown (our measured caveat)"
        )

        # --- Che model-error table ---------------------------------------
        # The closed-form predictor (Che + M/G/1-PS), checked against
        # full-system DES runs at IRM prefetch-free cache points.  The
        # Che model is a steady-state law, so the warm-up outlasts the
        # fill of the largest cache (150 slots, at 7.5 requests per
        # second per client).
        che_duration = 120.0 if fast else 240.0
        che_warmup = 60.0
        che_reps = 2 if fast else 4
        cache_points = []
        for capacity, exponent in [
            (10, 0.8), (50, 0.8), (10, 1.2), (50, 1.2), (150, 1.0),
        ]:
            config = SimulationConfig(
                workload=WorkloadSpec(
                    num_clients=4, catalog_size=500, zipf_exponent=exponent
                ),
                bandwidth=80.0, cache_capacity=capacity,
                policy="none", duration=che_duration, warmup=che_warmup,
                seed=23,
            )
            cache_points.append(
                SweepPoint(key=f"che/C{capacity}/a{exponent:g}", config=config,
                           replications=che_reps,
                           meta={"capacity": capacity, "zipf": exponent})
            )
        che_grid = engine.run(cache_points)
        predictor = AnalyticPredictor()
        che_rows = []
        worst_che = 0.0
        for pt in cache_points:
            pred = predictor.predict(pt.config)
            sim_h = che_grid.mean(pt.key, "hit_ratio")
            sim_t = che_grid.mean(pt.key, "mean_access_time")
            err_h = abs(pred.hit_ratio - sim_h) / max(sim_h, 1e-12)
            err_t = abs(pred.mean_access_time - sim_t) / max(sim_t, 1e-12)
            worst_che = max(worst_che, err_h, err_t)
            che_rows.append(
                [pt.key, pt.meta["capacity"], pt.meta["zipf"],
                 pred.hit_ratio, sim_h, err_h,
                 pred.mean_access_time, sim_t, err_t]
            )
        result.tables.append(
            (
                "Che predictor vs DES (model error at prefetch-free points)",
                ["point", "C", "zipf", "h che", "h sim", "h rel err",
                 "t che", "t sim", "t rel err"],
                che_rows,
            )
        )
        result.notes.append(
            f"Che-approximation worst relative error across cache points: "
            f"{worst_che:.3%} (IRM, prefetch-free: the only points the "
            "predictor models)"
        )
        return result
