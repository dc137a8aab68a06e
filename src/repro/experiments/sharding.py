"""`sharding` — scale the proxy tier out and watch access time fall.

The paper's system is one proxy whose uplink saturates; the ROADMAP's
north star asks what happens when the tier grows sideways.  This
experiment sweeps ``num_proxies`` × prefetch policy through the sweep
engine: the same client population is re-homed across 1, 2, 4, … proxies
(:class:`~repro.network.topology.TopologyConfig`, client-affinity
routing), every proxy bringing its own uplink of the configured
bandwidth, so aggregate capacity grows with the count.

The grid itself is declared through the scenario schema
(:mod:`repro.scenario`): the experiment authors an in-memory scenario
document — base workload/system sections plus a
``sweep.grid`` of ``topology.num_proxies`` × ``system.policy`` — and
:func:`~repro.scenario.compile.expand_points` turns it into the sweep
points, exactly the machinery a YAML scenario file uses.

Two readings fall out:

* **load relief compounds with prefetching** — at one overloaded proxy
  the threshold policy barely dares prefetch (the §3 rule throttles as ρ
  grows); splitting the tier lowers every node's ρ, which both shortens
  demand retrievals *and* re-opens the prefetching headroom, so the gap
  between ``none`` and ``threshold-dynamic`` widens as proxies are added;
* **routing shapes the shards** — the final table re-runs the largest
  tier with ``item-hash`` (consistent-hash catalogue sharding) and shows
  per-proxy traffic: client-affinity shards by client population,
  item-hash by catalogue popularity mass.

CLI: ``python -m repro sharding --proxies 1,2,8`` overrides the swept
proxy counts.
"""

from __future__ import annotations

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.scenario import expand_points, parse_scenario
from repro.sim.sweep import SweepExecutor

__all__ = ["ShardingExperiment"]

POLICIES = ("none", "threshold-dynamic")


@register
class ShardingExperiment(Experiment):
    experiment_id = "sharding"
    paper_artifact = "Scale-out extension (multi-proxy tier, ROADMAP north star)"
    description = "Access time vs proxy count under catalogue/client sharding"

    #: proxy counts to sweep (overridden by the CLI ``--proxies`` flag)
    proxy_counts: tuple[int, ...] | None = None

    def scenario_document(self, *, fast: bool) -> dict:
        """The grid as a scenario document (what a YAML file would hold)."""
        return {
            "name": "sharding-grid",
            "description": "proxy-count x policy grid, client-affinity routing",
            "workload": {
                "num_clients": 8,
                "request_rate": 40.0,
                "catalog_size": 400,
                "zipf_exponent": 0.9,
                "follow_probability": 0.7,
            },
            "system": {
                "bandwidth": 30.0,  # one proxy runs hot; the sweep relieves it
                "cache_policy": "lru",
                "cache_capacity": 40,
                "predictor": "true-distribution",
                "policy": "none",
                "duration": 120.0 if fast else 400.0,
                "warmup": 24.0 if fast else 60.0,
                "seed": 21,
            },
            "sweep": {
                "replications": 2 if fast else 3,
                "grid": {
                    "topology.num_proxies": list(self._counts(fast=fast)),
                    "system.policy": list(POLICIES),
                },
            },
        }

    def _counts(self, *, fast: bool) -> tuple[int, ...]:
        if self.proxy_counts is not None:
            return tuple(self.proxy_counts)
        return (1, 2) if fast else (1, 2, 4)

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Multi-proxy sharding: access time vs proxy count",
        )
        spec = parse_scenario(
            self.scenario_document(fast=fast), source="<sharding experiment>"
        )
        points = expand_points(spec)
        base = points[0].config
        counts = self._counts(fast=fast)
        outcomes = engine.run(points)
        result.sweeps.append(
            outcomes.to_sweep(
                "mean_access_time",
                x="num_proxies",
                by="policy",
                title="mean access time t̄ vs proxy count (client-affinity)",
                x_label="num_proxies",
                y_label="t̄",
                params={
                    "bandwidth/proxy": base.bandwidth,
                    "clients": base.workload.num_clients,
                    "lambda": base.workload.request_rate,
                },
            )
        )
        rows = [
            [
                pt.meta["num_proxies"],
                pt.meta["policy"],
                outcomes.mean(pt.key, "mean_access_time"),
                outcomes.mean(pt.key, "hit_ratio"),
                outcomes.mean(pt.key, "utilization"),
                outcomes.mean(pt.key, "prefetches_per_request"),
            ]
            for pt in points
        ]
        result.tables.append(
            (
                "proxy count × policy (client-affinity routing)",
                ["proxies", "policy", "t_bar", "hit ratio", "rho", "n(F)"],
                rows,
            )
        )

        # Routing comparison at the largest tier: how do the shards load?
        # Same machinery — a second scenario grid over topology.routing.
        largest = max(counts)
        if largest > 1:
            routing_spec = parse_scenario(
                {
                    **self.scenario_document(fast=fast),
                    "name": "sharding-routing",
                    "description": "routing comparison at the largest tier",
                    "topology": {"num_proxies": largest},
                    "sweep": {
                        "replications": 1,
                        "grid": {
                            "system.policy": ["threshold-dynamic"],
                            "topology.routing": ["client-affinity", "item-hash"],
                        },
                    },
                },
                source="<sharding experiment>",
            )
            routing_points = expand_points(routing_spec)
            # one batched run: both points share the engine's worker pool
            sharded = engine.run(routing_points)
            routing_rows = []
            for pt in routing_points:
                output = sharded.raw[pt.key][0]
                shares = _traffic_shares(output)
                routing_rows.append(
                    [
                        pt.meta["routing"],
                        sharded.mean(pt.key, "mean_access_time"),
                        sharded.mean(pt.key, "utilization"),
                        max(shares) / (1.0 / largest),  # 1.0 = perfectly even
                        " ".join(f"{s:.2f}" for s in shares),
                    ]
                )
            result.tables.append(
                (
                    f"routing comparison at {largest} proxies (threshold-dynamic)",
                    ["routing", "t_bar", "rho", "peak/even", "per-proxy traffic share"],
                    routing_rows,
                )
            )
            result.notes.append(
                "per-proxy traffic share: fraction of tier bytes each node's "
                "uplink carried; peak/even = hottest shard relative to a "
                "perfectly balanced tier (1.0 = even)"
            )
        none_t = {r[0]: r[2] for r in rows if r[1] == "none"}
        dyn_t = {r[0]: r[2] for r in rows if r[1] == "threshold-dynamic"}
        for proxies in counts:
            result.notes.append(
                f"P={proxies}: prefetching gain G = "
                f"{none_t[proxies] - dyn_t[proxies]:.6f}"
            )
        return result


def _traffic_shares(output) -> list[float]:
    """Per-proxy fraction of the tier's total transferred bytes."""
    totals = [
        shard.link_demand_bytes + shard.link_prefetch_bytes
        for shard in output.per_proxy
    ]
    tier = sum(totals)
    return [t / tier if tier > 0 else 0.0 for t in totals]
