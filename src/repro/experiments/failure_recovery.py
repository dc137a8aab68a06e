"""`failure-recovery` — KPIs across a mid-run proxy failure and return.

PR 10's fault-injection subsystem (:mod:`repro.sim.faults`) can kill a
proxy mid-run — its in-flight fetches fail over to the origin, its
per-client caches are wiped, and the consistent-hash ring re-shards its
items onto the survivors — then bring it back later.  This experiment
turns that into a paper-style artefact: one fault-free baseline plus the
same failure schedule replayed under both migration modes,

* **cold** — the rejoining node restarts with empty caches and re-warms
  from its own misses;
* **cooperative** — surviving peers push the rejoining node's shard over
  their peer links at the recovery instant (ROADMAP item (c): warm
  migration of moved shards).

All three runs share one seed, so every difference is attributable to
the schedule.  The per-event KPI timeline
(:meth:`~repro.sim.kpis.RunKPIs.fault_segments`) splits the run into
exact segments — pre-fault, degraded, recovered — and the report shows
t̄ and hit ratio per segment: degradation at ``proxy-fail``, recovery
after ``proxy-recover``, and how much of the degraded window cooperative
warm migration buys back relative to a cold restart.

CLI: ``python -m repro failure-recovery --faults
'proxy-fail@60:1,proxy-recover@120:1,migration=cooperative'`` replays a
custom schedule (run against the same fault-free baseline) instead of
the built-in cold/cooperative pair.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.network.topology import CooperationConfig, TopologyConfig
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultEvent, FaultSchedule, FaultSegment
from repro.sim.sweep import SweepExecutor
from repro.workload.sessions import WorkloadSpec

__all__ = ["FailureRecoveryExperiment"]


@register
class FailureRecoveryExperiment(Experiment):
    experiment_id = "failure-recovery"
    paper_artifact = (
        "Fault-tolerance extension (proxy failure + elastic re-sharding)"
    )
    description = "t_bar/hit-ratio timeline across proxy failure: cold vs warm recovery"

    #: custom schedule (set by the CLI ``--faults``); replaces the built-in
    #: cold/cooperative pair but keeps the fault-free baseline for contrast
    fault_schedule: FaultSchedule | None = None

    def base_config(self, *, fast: bool) -> SimulationConfig:
        """Fault-free base: a four-proxy cooperative item-hash tier."""
        duration = 120.0 if fast else 240.0
        return SimulationConfig(
            workload=WorkloadSpec(
                num_clients=48,
                request_rate=96.0,
                catalog_size=400,
                zipf_exponent=0.9,
                follow_probability=0.7,
            ),
            topology=TopologyConfig(
                num_proxies=4,
                routing="item-hash",
                cooperation=CooperationConfig(mode="owner-probe"),
            ),
            bandwidth=40.0,
            cache_capacity=32,
            predictor="markov",
            policy="threshold-dynamic",
            duration=duration,
            warmup=duration / 6.0,
            seed=31,
        )

    def default_events(self, *, fast: bool) -> tuple[FaultEvent, ...]:
        """Fail node 1 a third of the way in; bring it back shortly after.

        The outage is deliberately short (duration/24): the failed node's
        clients keep requesting through the survivors and refill their
        wiped caches within tens of seconds, so a long outage leaves
        nothing for warm migration to restore — the cold/cooperative
        contrast is sharpest when the node rejoins still cold.
        """
        duration = self.base_config(fast=fast).duration
        fail_at = duration / 3.0
        return (
            FaultEvent(time=fail_at, kind="proxy-fail", node=1),
            FaultEvent(
                time=fail_at + duration / 24.0, kind="proxy-recover", node=1
            ),
        )

    def _variants(self, *, fast: bool) -> list[tuple[str, FaultSchedule | None]]:
        if self.fault_schedule is not None:
            return [("baseline", None), ("custom", self.fault_schedule)]
        events = self.default_events(fast=fast)
        return [
            ("baseline", None),
            ("cold", FaultSchedule(events=events, migration="cold")),
            ("cooperative", FaultSchedule(events=events, migration="cooperative")),
        ]

    @staticmethod
    def _counters(sim) -> tuple[int, int, float, float]:
        requests = hits = 0
        access_total = 0.0
        origin_bytes = 0.0
        for node in sim.nodes:
            r, h, a = node.collector.timeline_counters()
            requests += r
            hits += h
            access_total += a
            origin_bytes += node.link.demand_bytes + node.link.prefetch_bytes
        return requests, hits, access_total, origin_bytes

    @staticmethod
    def _segments_from_samples(samples) -> tuple[FaultSegment, ...]:
        """Baseline twin of :meth:`RunKPIs.fault_segments`: cut the
        fault-free run's cumulative counters at the same instants."""
        segments = []
        prev_t, prev_r, prev_h, prev_a, prev_o = 0.0, 0, 0, 0.0, 0.0
        for t, r, h, a, o in samples:
            d_req = r - prev_r
            segments.append(
                FaultSegment(
                    start=prev_t,
                    end=t,
                    kind="window",
                    node=-1,
                    requests=d_req,
                    hits=h - prev_h,
                    mean_access_time=(
                        (a - prev_a) / d_req if d_req else float("nan")
                    ),
                    origin_bytes=o - prev_o,
                )
            )
            prev_t, prev_r, prev_h, prev_a, prev_o = t, r, h, a, o
        return tuple(segments)

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        from repro.sim.simulation import Simulation

        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Proxy failure & recovery: segment KPIs, cold vs cooperative",
        )
        base = self.base_config(fast=fast)
        variants = self._variants(fast=fast)
        fault_times = next(
            (
                tuple(e.time for e in schedule.events)
                for _, schedule in variants
                if schedule is not None
            ),
            (),
        )
        rows: list[list[object]] = []
        segments_by_variant: dict[str, tuple] = {}
        migration_by_variant: dict[str, tuple[int, float]] = {}
        overall: list[list[object]] = []
        for name, schedule in variants:
            config = base if schedule is None else replace(base, faults=schedule)
            sim = Simulation(config)
            samples: list[tuple[float, int, int, float]] = []
            if schedule is None and fault_times:
                # Sample the fault-free run at the SAME instants, so every
                # faulted segment has a like-for-like baseline window.
                def snap(event, _samples=samples, _sim=sim):
                    _samples.append(
                        (_sim.env.now,) + self._counters(_sim)
                    )

                for t in fault_times:
                    sim.env.call_at(t, snap)
            output = sim.run()
            kpis = output.kpis
            if schedule is None and fault_times:
                samples.append(
                    (base.duration,) + self._counters(sim)
                )
                segments = self._segments_from_samples(samples)
            else:
                segments = kpis.fault_segments()
            segments_by_variant[name] = segments
            for seg in segments:
                rows.append(
                    [
                        name,
                        f"{seg.start:g}-{seg.end:g}",
                        seg.kind if seg.node < 0 else f"{seg.kind}({seg.node})",
                        seg.requests,
                        seg.hit_ratio,
                        seg.mean_access_time,
                        seg.origin_bytes,
                    ]
                )
            if kpis.fault_timeline:
                last = kpis.fault_timeline[-1]
                migration_by_variant[name] = (
                    last.migrated_items, last.migrated_bytes
                )
            overall.append(
                [
                    name,
                    output.metrics.requests,
                    output.metrics.hit_ratio,
                    output.metrics.mean_access_time,
                    migration_by_variant.get(name, (0, 0.0))[0],
                    migration_by_variant.get(name, (0, 0.0))[1],
                ]
            )
        result.tables.append(
            (
                "per-segment KPIs (whole-run counters split at each fault)",
                [
                    "variant", "window", "segment", "requests",
                    "hit ratio", "t_bar", "origin bytes",
                ],
                rows,
            )
        )
        result.tables.append(
            (
                "whole-run KPIs (post-warmup) + migration cost",
                [
                    "variant", "requests", "hit ratio", "t_bar",
                    "migrated items", "migrated bytes",
                ],
                overall,
            )
        )
        self._annotate(result, segments_by_variant, migration_by_variant)
        return result

    def _annotate(self, result, segments_by_variant, migration_by_variant) -> None:
        """Degradation / recovery / migration-cost observations.

        Comparisons are window-against-window: segment ``i`` of a faulted
        run vs segment ``i`` of the fault-free baseline (sampled at the
        same instants), which cancels the shared cold-start transient and
        any time-of-run drift.
        """
        baseline = segments_by_variant.get("baseline", ())
        for name, segments in segments_by_variant.items():
            if name == "baseline" or len(segments) < 3:
                continue
            if len(baseline) != len(segments):
                continue
            degraded_pairs = [
                (s, b)
                for s, b in zip(segments[1:-1], baseline[1:-1])
                if s.requests and math.isfinite(s.mean_access_time)
                and math.isfinite(b.mean_access_time)
            ]
            if degraded_pairs:
                worst, twin = max(
                    degraded_pairs,
                    key=lambda pair: pair[0].mean_access_time,
                )
                result.notes.append(
                    f"{name}: degraded-window t_bar {worst.mean_access_time:.6f} "
                    f"vs fault-free same-window {twin.mean_access_time:.6f} "
                    f"({worst.mean_access_time / twin.mean_access_time:.2f}x)"
                )
            recovered, twin = segments[-1], baseline[-1]
            if math.isfinite(recovered.mean_access_time) and math.isfinite(
                twin.mean_access_time
            ):
                drift = (
                    recovered.mean_access_time / twin.mean_access_time - 1.0
                )
                result.notes.append(
                    f"{name}: post-recovery t_bar "
                    f"{recovered.mean_access_time:.6f} vs fault-free "
                    f"same-window {twin.mean_access_time:.6f} ({drift:+.1%})"
                )
        cold = segments_by_variant.get("cold")
        warm = segments_by_variant.get("cooperative")
        if cold and warm and len(cold) >= 3 and len(warm) >= 3:
            items, volume = migration_by_variant.get("cooperative", (0, 0.0))
            saved = cold[-1].origin_bytes - warm[-1].origin_bytes
            result.notes.append(
                f"restart cost: cold recovery segment pulled "
                f"{cold[-1].origin_bytes:.0f} origin bytes vs cooperative "
                f"{warm[-1].origin_bytes:.0f} ({saved:+.0f} saved) — peers "
                f"pushed {items} items / {volume:.0f} bytes over their peer "
                f"links at the recovery instant, so the rejoined shard "
                f"re-warms without refetching from origin"
            )
            result.notes.append(
                f"cooperative recovery segment t_bar "
                f"{warm[-1].mean_access_time:.6f} (hit ratio "
                f"{warm[-1].hit_ratio:.4f}) vs cold "
                f"{cold[-1].mean_access_time:.6f} ({cold[-1].hit_ratio:.4f})"
            )
        result.notes.append(
            "segments split each run's cumulative measured counters at the "
            "fault instants; the baseline rows are the fault-free run "
            "sampled at the same instants, so every comparison is "
            "window-against-window"
        )
