"""`cooperative-caching` — let proxies serve each other's cache hits.

PR 4 sharded the proxy tier, but under item-hash routing a miss only
borrowed the owning proxy's *link*: the fleet behaved like N isolated
caches.  This experiment turns on inter-proxy cooperation
(:class:`~repro.network.topology.CooperationConfig`) and sweeps the three
axes where it matters:

* **cooperation mode** — ``none`` (the isolated PR-4 tier), ``owner-probe``
  (a miss asks the item's consistent-hash ring owner) and ``broadcast``
  (a miss asks every peer, owner first);
* **num_proxies** — more shards mean a larger fraction of the catalogue is
  owned elsewhere, so there is more to gain (and more probes to pay for);
* **cache size** — cooperation interacts with memory pressure: small
  caches evict before a peer can benefit, large caches make the *local*
  hit ratio so high that probes rarely fire.

The grid is declared through the scenario schema (:mod:`repro.scenario`):
an in-memory scenario document with a ``sweep.grid`` over
``topology.cooperation.mode`` × ``topology.num_proxies`` ×
``system.cache_capacity`` — the nested-cooperation axis exercising the
dotted-path override machinery YAML scenario files use.

Routing is ``item-hash`` throughout: the ring concentrates each item's
demand-fetched copies at its owner, which is exactly the proxy cooperation
probes — so owner-probe captures most of broadcast's yield at a fraction
of the probe traffic.

Readings to expect: remote hits convert origin round-trips over a hot
uplink into peer-link transfers, so t̄ falls and the *origin* utilisation ρ
falls with it; broadcast finds strictly more remote hits than owner-probe
(it also checks non-owner peers that admitted items after their own remote
hits) but pays a probe on every peer.

CLI: ``python -m repro cooperative-caching --cooperation owner-probe`` (or
a comma list) restricts the swept modes; ``--proxies 2,4,8`` overrides the
swept tier sizes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.scenario import expand_points, parse_scenario
from repro.sim.sweep import SweepExecutor

__all__ = ["CooperativeCachingExperiment"]


@register
class CooperativeCachingExperiment(Experiment):
    experiment_id = "cooperative-caching"
    paper_artifact = "Scale-out extension (inter-proxy cooperative caching)"
    description = "Remote-hit yield and t_bar vs cooperation mode x proxies x cache"

    #: cooperation modes to sweep (overridden by the CLI ``--cooperation``)
    cooperation_modes: tuple[str, ...] | None = None
    #: proxy counts to sweep (overridden by the CLI ``--proxies``)
    proxy_counts: tuple[int, ...] | None = None

    def scenario_document(self, *, fast: bool) -> dict:
        """The grid as a scenario document (what a YAML file would hold)."""
        return {
            "name": "cooperative-caching-grid",
            "description": "cooperation mode x proxies x cache, item-hash tier",
            "workload": {
                "num_clients": 8,
                "request_rate": 40.0,
                "catalog_size": 400,
                "zipf_exponent": 0.9,
                "follow_probability": 0.7,
            },
            "system": {
                "bandwidth": 30.0,  # per-proxy uplink: the tier runs warm
                "cache_policy": "lru",
                "cache_capacity": 40,
                "predictor": "true-distribution",
                "policy": "threshold-dynamic",
                "duration": 120.0 if fast else 400.0,
                "warmup": 24.0 if fast else 60.0,
                "seed": 29,
            },
            "topology": {"routing": "item-hash"},
            "sweep": {
                "replications": 2 if fast else 3,
                "grid": {
                    "topology.cooperation.mode": list(self._modes()),
                    "topology.num_proxies": list(self._counts(fast=fast)),
                    "system.cache_capacity": list(self._cache_sizes(fast=fast)),
                },
            },
        }

    def _modes(self) -> tuple[str, ...]:
        if self.cooperation_modes is not None:
            return tuple(self.cooperation_modes)
        return ("none", "owner-probe", "broadcast")

    def _counts(self, *, fast: bool) -> tuple[int, ...]:
        if self.proxy_counts is not None:
            return tuple(self.proxy_counts)
        return (2,) if fast else (2, 4)

    def _cache_sizes(self, *, fast: bool) -> tuple[int, ...]:
        return (16, 40) if fast else (16, 40, 80)

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Cooperative caching: remote hits vs mode x proxies x cache",
        )
        spec = parse_scenario(
            self.scenario_document(fast=fast),
            source="<cooperative-caching experiment>",
        )
        points = expand_points(spec)
        base = points[0].config
        modes = self._modes()
        counts = self._counts(fast=fast)
        cache_sizes = self._cache_sizes(fast=fast)
        outcomes = engine.run(points)

        mid_cache = cache_sizes[len(cache_sizes) // 2]
        # The figure panel fixes the tier at its largest swept size (the
        # full grid stays in the table): one x per cache size.
        largest = replace(
            outcomes,
            points=tuple(
                pt for pt in points if pt.meta["num_proxies"] == max(counts)
            ),
        )
        result.sweeps.append(
            largest.to_sweep(
                "mean_access_time",
                x="cache_capacity" if len(cache_sizes) > 1 else "num_proxies",
                by="mode",
                title=(
                    f"mean access time t̄ vs cache size "
                    f"(item-hash, {max(counts)} proxies)"
                ),
                x_label="cache capacity (items/client)",
                y_label="t̄",
                params={
                    "bandwidth/proxy": base.bandwidth,
                    "clients": base.workload.num_clients,
                    "lambda": base.workload.request_rate,
                    "proxies": max(counts),
                },
            )
        )
        rows = [
            [
                pt.meta["mode"],
                pt.meta["num_proxies"],
                pt.meta["cache_capacity"],
                outcomes.mean(pt.key, "mean_access_time"),
                outcomes.mean(pt.key, "hit_ratio"),
                outcomes.mean(pt.key, "remote_hit_rate"),
                outcomes.mean(pt.key, "remote_probe_hit_ratio"),
                outcomes.mean(pt.key, "utilization"),
                outcomes.mean(pt.key, "peer_traffic_share"),
            ]
            for pt in points
        ]
        result.tables.append(
            (
                "cooperation mode x proxies x cache (item-hash routing)",
                [
                    "mode", "proxies", "cache", "t_bar", "hit ratio",
                    "remote hit rate", "probe yield", "rho", "peer share",
                ],
                rows,
            )
        )
        by_meta = {
            (pt.meta["mode"], pt.meta["num_proxies"], pt.meta["cache_capacity"]):
                pt.key
            for pt in points
        }
        for proxies in counts:
            for mode in modes:
                if mode == "none":
                    continue
                key = by_meta.get((mode, proxies, mid_cache))
                none_key = by_meta.get(("none", proxies, mid_cache))
                if key in outcomes.results and none_key in outcomes.results:
                    gain = outcomes.mean(none_key, "mean_access_time") - (
                        outcomes.mean(key, "mean_access_time")
                    )
                    result.notes.append(
                        f"P={proxies}, C={mid_cache}, {mode}: remote-hit "
                        f"rate {outcomes.mean(key, 'remote_hit_rate'):.4f}, "
                        f"t_bar gain vs none = {gain:.6f}"
                    )
        result.notes.append(
            "remote hit rate: fraction of all requests served from a peer "
            "proxy's cache; probe yield: fraction of probes that found the "
            "item; peer share: fraction of transferred bytes on peer links"
        )
        return result
