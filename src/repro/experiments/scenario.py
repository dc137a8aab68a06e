"""`scenario` — run a declarative scenario file against its stationary twin.

The scenario engine (:mod:`repro.scenario`) turns a YAML/JSON document
into a sweep grid; this experiment runs that grid **twice per point**:

* the *phased* system exactly as authored (time-varying arrival rate,
  popularity shifts — :class:`~repro.workload.phases.PhaseSpec`);
* a *stationary twin* with ``phases=None`` whose request rate is scaled
  by the schedule's duration-weighted average multiplier, so both
  variants offer the **same average load** and differ only in its time
  structure.

The report ranks the grid points by mean access time under each variant
and calls out when the phased workload *changes the ranking* — the
demonstration that policy choices tuned on stationary averages can be
wrong under realistic load shapes.  With ``show_kpis`` (CLI ``--kpi``)
each phased point also gets the full KPI scorecard (p50/p95/p99 access
tails, byte-hit ratio, per-shard utilisation, peer share) aggregated
exactly across replications via :func:`~repro.sim.kpis.aggregate_kpis`.

CLI: ``python -m repro run-scenario scenarios/flash_crowd.yaml --kpi``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.scenario import compile_config, expand_points, load_scenario
from repro.sim.kpis import aggregate_kpis
from repro.sim.sweep import SweepExecutor, SweepPoint

__all__ = ["ScenarioExperiment", "DEFAULT_SCENARIO"]

#: catalog scenario used when the CLI gives no file
DEFAULT_SCENARIO = (
    Path(__file__).resolve().parents[3] / "scenarios" / "flash_crowd.yaml"
)

#: point-key suffix marking a stationary twin
STATIONARY_SUFFIX = "/stationary"


@register
class ScenarioExperiment(Experiment):
    experiment_id = "scenario"
    paper_artifact = "Declarative scenario engine (time-varying workloads)"
    description = "Run a scenario file: phased grid vs stationary twins + KPIs"

    #: scenario file to run (set by the CLI ``run-scenario FILE``)
    scenario_path: str | Path | None = None
    #: attach the KPI scorecard per phased point (CLI ``--kpi``)
    show_kpis: bool = False

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        spec = load_scenario(self.scenario_path or DEFAULT_SCENARIO)
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=f"Scenario '{spec.name}': phased load vs stationary twin",
        )
        if spec.description:
            result.notes.append(f"scenario: {spec.description.strip()}")
        base = compile_config(spec)
        reps = spec.sweep.replications
        if fast:
            # Halve the horizon, keep warmup a fixed fraction of it, and
            # cap replications — the ranking signal survives, CI stays fast.
            duration = base.duration / 2.0
            base = replace(
                base, duration=duration, warmup=min(base.warmup, duration / 5.0)
            )
            reps = min(reps, 2)
        points = expand_points(spec, base_config=base, replications=reps)

        twins = [self._stationary_twin(pt) for pt in points]
        twins = [t for t in twins if t is not None]
        outcomes = engine.run(points + twins)

        rows = []
        for pt in points + twins:
            rows.append(
                [
                    pt.key,
                    outcomes.mean(pt.key, "mean_access_time"),
                    outcomes.mean(pt.key, "hit_ratio"),
                    outcomes.mean(pt.key, "utilization"),
                ]
            )
        result.tables.append(
            (
                f"scenario grid ({spec.name}): phased points and stationary twins",
                ["point", "t_bar", "hit ratio", "rho"],
                rows,
            )
        )

        if twins:
            self._ranking_comparison(result, points, outcomes)
        else:
            result.notes.append(
                "scenario has no phases: every point is already stationary "
                "(no twin comparison)"
            )

        if self.show_kpis:
            self._kpi_scorecard(result, points + twins, outcomes)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _stationary_twin(pt: SweepPoint) -> SweepPoint | None:
        """The same operating point with phases flattened to their average.

        ``None`` for points that are already stationary.  The twin's rate
        is the phased rate × the schedule's duration-weighted average
        multiplier, so phased and twin offer identical average load.
        """
        workload = pt.config.workload
        if workload.phases is None:
            return None
        average = workload.make_schedule().average_multiplier()
        stationary = replace(
            workload,
            phases=None,
            request_rate=workload.request_rate * average,
        )
        return SweepPoint(
            key=pt.key + STATIONARY_SUFFIX,
            config=replace(pt.config, workload=stationary),
            replications=pt.replications,
            base_seed=pt.base_seed,
            meta={**pt.meta, "variant": "stationary"},
        )

    def _ranking_comparison(self, result, points, outcomes) -> None:
        """Rank grid points by t̄ under each variant; flag ranking flips."""

        def ranked(suffix: str) -> list[str]:
            return sorted(
                (pt.key for pt in points),
                key=lambda k: outcomes.mean(k + suffix, "mean_access_time"),
            )

        phased_rank = ranked("")
        stationary_rank = ranked(STATIONARY_SUFFIX)
        rank_rows = [
            [
                i + 1,
                phased_rank[i],
                outcomes.mean(phased_rank[i], "mean_access_time"),
                stationary_rank[i],
                outcomes.mean(
                    stationary_rank[i] + STATIONARY_SUFFIX, "mean_access_time"
                ),
            ]
            for i in range(len(phased_rank))
        ]
        result.tables.append(
            (
                "policy ranking by t_bar: phased vs stationary (same avg load)",
                ["rank", "phased point", "t_bar", "stationary point", "t_bar"],
                rank_rows,
            )
        )
        if phased_rank != stationary_rank:
            result.notes.append(
                "ranking change: the phased workload orders the grid "
                f"{' > '.join(phased_rank)} (best first) but the stationary "
                f"twin at the same average load orders it "
                f"{' > '.join(stationary_rank)} — tuning on stationary "
                "averages picks a different winner than realistic load shapes"
            )
        else:
            result.notes.append(
                "ranking unchanged: phased and stationary variants agree on "
                f"the ordering {' > '.join(phased_rank)} (best first)"
            )

    @staticmethod
    def _kpi_scorecard(result, points, outcomes) -> None:
        """One KPI row per point, replication-pooled exactly."""
        headers = None
        rows = []
        for pt in points:
            raws = outcomes.raw.get(pt.key, [])
            kpis = [out.kpis for out in raws if getattr(out, "kpis", None)]
            if not kpis:
                continue
            pooled = aggregate_kpis(kpis)
            card = pooled.scorecard_rows()
            if headers is None:
                headers = ["point"] + [label for label, _ in card]
            rows.append([pt.key] + [value for _, value in card])
        if headers is not None:
            result.tables.append(("KPI scorecard (pooled replications)", headers, rows))
