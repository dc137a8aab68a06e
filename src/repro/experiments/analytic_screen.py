"""`analytic-screen` — hybrid sweeps: simulate the frontier, predict the rest.

The ROADMAP's "millions of users" parameter studies need grids far larger
than the DES can afford point by point.  This experiment demonstrates the
analytic fast-path on a 200-point (bandwidth × cache-capacity × zipf) grid:
every point is evaluated through the Che-approximation predictor
(:mod:`repro.analysis.cachemodel`, ~1 ms/point), only the screen-selected
frontier is simulated, and the rest of the grid is filled analytically.
The report quantifies what that buys (points simulated vs predicted, wall
clock vs the estimated full-simulation cost) and what it risks: a
deterministic sample of analytic-only points is re-run through the DES and
the model error tabulated, so the fill's accuracy is measured, not assumed.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.config import SimulationConfig
from repro.sim.sweep import AnalyticScreen, SweepExecutor, SweepPoint
from repro.workload.sessions import WorkloadSpec

__all__ = ["AnalyticScreenExperiment"]


@register
class AnalyticScreenExperiment(Experiment):
    experiment_id = "analytic-screen"
    paper_artifact = "Scaling study beyond the paper (ROADMAP: analytic fast-path)"
    description = "Che-screened 200-point grid vs spot-check simulations"

    #: per-series simulation budget for the screen; the CLI's ``--screen``
    #: overrides it (fraction < 1 or an absolute per-series count)
    screen_keep: float | int | None = None
    #: analytic-only points re-simulated for the model-error table
    spot_checks: int = 6

    # 10 bandwidths x 5 capacities x 4 exponents = 200 operating points.
    bandwidths = tuple(float(b) for b in np.linspace(30.0, 120.0, 10))
    capacities = (5, 10, 25, 50, 100)
    exponents = (0.6, 0.8, 1.0, 1.2)

    def _points(self, *, fast: bool) -> list[SweepPoint]:
        # Warmup must outlast the largest cache's fill time (~C / miss
        # rate ≈ 10 sim-seconds for C=100 here), or the spot-check table
        # measures cold-start bias instead of model error.
        duration = 40.0 if fast else 120.0
        warmup = 12.0 if fast else 30.0
        reps = 1 if fast else 2
        points = []
        for exponent in self.exponents:
            for cap in self.capacities:
                for bw in self.bandwidths:
                    config = SimulationConfig(
                        workload=WorkloadSpec(
                            num_clients=4, catalog_size=200,
                            zipf_exponent=exponent,
                        ),
                        bandwidth=bw, cache_capacity=cap,
                        policy="none", duration=duration, warmup=warmup,
                        seed=17,
                    )
                    points.append(
                        SweepPoint(
                            key=f"a{exponent:g}/C{cap}/b{bw:g}",
                            config=config,
                            replications=reps,
                            meta={"x": bw, "series": f"C{cap} a{exponent:g}"},
                        )
                    )
        return points

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Analytically-screened hybrid sweep",
        )
        points = self._points(fast=fast)
        keep = self.screen_keep if self.screen_keep is not None else 0.25
        screen = AnalyticScreen(keep=keep, x="x", by="series")
        screened = engine.run(points, screen=screen)

        simulated = screened.simulated_keys()
        analytic = screened.analytic_keys()
        costs = [
            screened.predictions[k].cost_seconds
            for k in screened.predictions
        ]
        result.tables.append(
            (
                "screening summary",
                ["grid points", "simulated", "analytic fill",
                 "predictor ms/point (mean)", "predictor ms/point (max)",
                 "screened wall-clock s"],
                [[
                    len(points), len(simulated), len(analytic),
                    1e3 * float(np.mean(costs)), 1e3 * float(np.max(costs)),
                    screened.wall_clock_seconds,
                ]],
            )
        )

        # --- spot-check the analytic fill ------------------------------
        # A deterministic, evenly-spaced sample of analytic-only points is
        # re-run through the DES; the error table below is the measured
        # price of trusting the fill.  (The same points keep their grid
        # seeds, so a later unscreened run would reproduce them exactly.)
        sample_keys: list[str] = []
        if analytic:
            stride = max(1, len(analytic) // self.spot_checks)
            sample_keys = list(analytic[::stride][: self.spot_checks])
        spot = engine.run(
            [screened.point(k) for k in sample_keys]
        ) if sample_keys else None
        rows = []
        worst = 0.0
        for k in sample_keys:
            pred = screened.predictions[k]
            sim_h = spot.mean(k, "hit_ratio")
            sim_t = spot.mean(k, "mean_access_time")
            err_h = abs(pred.hit_ratio - sim_h) / max(sim_h, 1e-12)
            err_t = abs(pred.mean_access_time - sim_t) / max(sim_t, 1e-12)
            worst = max(worst, err_h, err_t)
            rows.append(
                [k, pred.hit_ratio, sim_h, err_h,
                 pred.mean_access_time, sim_t, err_t]
            )
        result.tables.append(
            (
                "analytic fill vs spot-check simulations",
                ["point", "h che", "h sim", "h rel err",
                 "t che", "t sim", "t rel err"],
                rows,
            )
        )
        if rows:
            result.notes.append(
                f"worst spot-check relative error: {worst:.3%} "
                f"({len(sample_keys)} of {len(analytic)} analytic points "
                "re-simulated)"
            )

        # --- what a full simulation would have cost --------------------
        # Per-point DES cost measured from this run's own simulations (the
        # spot-check batch ran unscreened), scaled to the whole grid; the
        # benchmark suite measures the same ratio end-to-end.
        if spot is not None and sample_keys:
            per_point = spot.wall_clock_seconds / len(sample_keys)
            est_full = per_point * len(points)
            speedup = est_full / max(screened.wall_clock_seconds, 1e-9)
            result.tables.append(
                (
                    "estimated full-simulation cost",
                    ["DES s/point", "est. full grid s",
                     "screened s", "est. speedup"],
                    [[per_point, est_full,
                      screened.wall_clock_seconds, speedup]],
                )
            )
        result.notes.append(
            f"screen keep={keep:g}: the frontier (best-k per series, series "
            "endpoints, saturated points and predicted crossovers) simulates; "
            "everything else is the Che prediction"
        )

        # --- one figure panel off the hybrid grid ----------------------
        # Access time over bandwidth for the zipf=1.0 slice: simulated and
        # analytic points plot through the same interface.
        slice_points = [
            pt for pt in screened.points if pt.key.startswith("a1/")
        ]
        groups: dict[str, list[tuple[float, float]]] = {}
        for pt in slice_points:
            value = screened.mean(pt.key, "mean_access_time")
            if np.isfinite(value):
                groups.setdefault(str(pt.meta["series"]), []).append(
                    (float(pt.meta["x"]), value)
                )
        from repro.analysis.series import Series, SweepResult

        series = []
        for label, pairs in sorted(groups.items()):
            pairs.sort(key=lambda pair: pair[0])
            series.append(
                Series(label, np.asarray([p[0] for p in pairs]),
                       np.asarray([p[1] for p in pairs]))
            )
        result.sweeps.append(
            SweepResult(
                title="hybrid grid: mean access time over bandwidth (zipf 1.0)",
                x_label="bandwidth",
                y_label="mean access time",
                series=tuple(series),
                params={"grid": len(points), "simulated": len(simulated)},
            )
        )
        return result
