"""Client-class aggregation backend: partitioning, equivalence, determinism.

The aggregated backend's contract has three tiers, and each is pinned:

* **bit-identity** for singleton classes (the per-client RNG streams and
  draw order are reused, so a fully-heterogeneous population runs under
  the aggregated backend with zero drift);
* **statistical equivalence** for multi-member classes at ``q = 0``: the
  merged stream is i.i.d. Zipf by Poisson superposition and the LRU hit
  law under IRM depends only on the popularity distribution, so hit
  ratio / access time / utilisation agree within replication noise for
  the no-prefetch policy (tolerances documented at the pins);
* **exact accounting**: per-class stats rows partition the run's totals
  with no double counting, whatever the policy.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError, ParameterError
from repro.network.topology import TopologyConfig
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation_replications
from repro.sim.simulation import Simulation, run_simulation
from repro.sim.sweep import scenario_hash
from repro.workload.aggregate import (
    AggregateClassSource,
    partition_client_classes,
)
from repro.workload.phases import PhaseSpec
from repro.workload.sessions import WorkloadSpec
from repro.workload.zipf import ZipfCatalog, shared_catalog


def assert_metrics_identical(a, b):
    """Field-by-field bit-identity, treating NaN as equal to NaN (empty
    tallies — e.g. prefetch retrieval with policy 'none' — are NaN)."""
    from dataclasses import asdict

    da, db = asdict(a), asdict(b)
    assert da.keys() == db.keys()
    for name, va in da.items():
        vb = db[name]
        if isinstance(va, float) and np.isnan(va):
            assert np.isnan(vb), name
        else:
            assert va == vb, name


def agg_config(**overrides):
    defaults = dict(
        workload=WorkloadSpec(num_clients=40, request_rate=30.0),
        duration=120.0,
        warmup=20.0,
        seed=5,
        client_backend="aggregated",
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_homogeneous_single_proxy_is_one_class(self):
        spec = WorkloadSpec(num_clients=1000, request_rate=30.0)
        classes = partition_client_classes(spec, TopologyConfig())
        assert len(classes) == 1
        (cls,) = classes
        assert cls.size == 1000
        assert cls.representative == 0
        assert not cls.singleton
        assert cls.request_rate == pytest.approx(30.0)
        assert cls.stream_label == "class0"

    def test_multi_proxy_splits_by_home_node(self):
        spec = WorkloadSpec(num_clients=10, request_rate=30.0)
        topo = TopologyConfig(num_proxies=3)
        classes = partition_client_classes(spec, topo)
        assert [c.node_id for c in classes] == [0, 1, 2]
        for cls in classes:
            assert all(int(m) % 3 == cls.node_id for m in cls.members)
        assert sum(c.size for c in classes) == 10
        # Class aggregate rates sum to the population aggregate.
        assert sum(c.request_rate for c in classes) == pytest.approx(30.0)

    def test_overrides_split_off_singletons(self):
        spec = WorkloadSpec(
            num_clients=8,
            request_rate=16.0,
            client_overrides={3: {"request_rate": 9.0}},
        )
        classes = partition_client_classes(spec, TopologyConfig())
        assert len(classes) == 2
        bulk, special = classes
        assert bulk.size == 7 and 3 not in bulk.members.tolist()
        assert special.singleton and special.representative == 3
        assert special.stream_label == "client3"
        assert special.request_rate == pytest.approx(9.0)

    def test_override_restating_defaults_merges_back(self):
        # catalog_size 500 IS the default: the override changes nothing,
        # so the client stays in the default class.
        spec = WorkloadSpec(
            num_clients=6, client_overrides={2: {"catalog_size": 500}}
        )
        classes = partition_client_classes(spec, TopologyConfig())
        assert len(classes) == 1
        assert classes[0].size == 6

    def test_identically_overridden_clients_share_a_class(self):
        spec = WorkloadSpec(
            num_clients=10,
            request_rate=20.0,
            client_overrides={
                1: {"follow_probability": 0.5},
                7: {"follow_probability": 0.5},
            },
        )
        classes = partition_client_classes(spec, TopologyConfig())
        assert len(classes) == 2
        merged = next(c for c in classes if c.follow_probability == 0.5)
        assert merged.members.tolist() == [1, 7]
        assert merged.representative == 1
        # Aggregate rate = shared per-member rate x size.
        assert merged.request_rate == pytest.approx(2 * 2.0)

    def test_classes_sorted_by_representative(self):
        spec = WorkloadSpec(
            num_clients=20,
            client_overrides={
                0: {"request_rate": 3.0},
                11: {"request_rate": 4.0},
            },
        )
        classes = partition_client_classes(spec, TopologyConfig())
        reps = [c.representative for c in classes]
        assert reps == sorted(reps)
        assert [c.class_id for c in classes] == list(range(len(classes)))


# ----------------------------------------------------------------------
# The merged reference stream
# ----------------------------------------------------------------------
class TestAggregateClassSource:
    def test_irm_stream_matches_catalog_batch_draws(self):
        # q = 0: the merged stream IS i.i.d. Zipf, bit-identical to
        # sample_batch on the same RNG state.
        cat = ZipfCatalog(200, 1.0)
        src = AggregateClassSource(
            cat, num_members=50, rng=np.random.default_rng(3)
        )
        expect = cat.sample_batch(np.random.default_rng(3), 500)
        assert src.generate(500).tolist() == expect.tolist()

    def test_stream_yields_python_ints(self):
        src = AggregateClassSource(
            ZipfCatalog(50, 1.0),
            num_members=4,
            follow_probability=0.6,
            rng=np.random.default_rng(0),
        )
        stream = src.stream(block=16)
        items = [next(stream) for _ in range(40)]
        assert all(type(item) is int for item in items)
        assert all(0 <= item < 50 for item in items)

    def test_follow_probability_shapes_the_stream(self):
        # With q close to 1 and a single member, long successor runs
        # dominate; measure the fraction of successor steps.
        src = AggregateClassSource(
            ZipfCatalog(100, 1.0),
            num_members=1,
            follow_probability=0.9,
            rng=np.random.default_rng(1),
        )
        items = src.generate(4000).tolist()
        follows = sum(
            1 for a, b in zip(items, items[1:]) if b == (a + 1) % 100
        )
        assert follows / len(items) == pytest.approx(0.9, abs=0.03)

    def test_per_member_chains_dilute_follow_signal(self):
        # k members: the *observed successor* of the merged stream only
        # repeats when the same member draws twice in a row AND follows
        # (probability ~ q/k), the aggregation dilution the predictor
        # surface documents.
        src = AggregateClassSource(
            ZipfCatalog(100, 1.0),
            num_members=20,
            follow_probability=0.8,
            rng=np.random.default_rng(2),
        )
        items = src.generate(6000).tolist()
        follows = sum(
            1 for a, b in zip(items, items[1:]) if b == (a + 1) % 100
        )
        assert follows / len(items) < 0.2

    def test_true_distribution_puts_diluted_mass_on_successor(self):
        src = AggregateClassSource(
            ZipfCatalog(100, 1.0), num_members=4, follow_probability=0.8
        )
        p_succ = src.true_next_probability(10, 11)
        p_base = src.true_next_probability(10, 12)
        assert p_succ > p_base
        assert p_succ == pytest.approx(
            0.2 + 0.8 * src.catalog.probability(11)
        )
        dist = src.true_distribution(10, top=5)
        assert len(dist) == 5
        assert dist == sorted(dist, key=lambda pair: -pair[1])

    def test_validation(self):
        cat = ZipfCatalog(10, 1.0)
        with pytest.raises(ParameterError):
            AggregateClassSource(cat, num_members=0)
        with pytest.raises(ParameterError):
            AggregateClassSource(cat, num_members=2, follow_probability=1.5)
        with pytest.raises(ParameterError):
            AggregateClassSource(cat, num_members=2, successor_shift=10)

    def test_shared_catalog_memoises(self):
        assert shared_catalog(500, 1.0) is shared_catalog(500, 1.0)
        assert shared_catalog(500, 1.0) is not shared_catalog(500, 0.9)


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="client_backend"):
            SimulationConfig(client_backend="per-cluster")

    def test_aggregated_refuses_trace_replay(self):
        with pytest.raises(ConfigurationError, match="trace"):
            SimulationConfig(
                client_backend="aggregated", trace_path="whatever.csv"
            )

    def test_backend_changes_scenario_hash(self):
        per = SimulationConfig()
        agg = replace(per, client_backend="aggregated")
        assert scenario_hash(per, replications=3, base_seed=0) != scenario_hash(
            agg, replications=3, base_seed=0
        )


# ----------------------------------------------------------------------
# Equivalence: singleton classes are bit-identical to per-client
# ----------------------------------------------------------------------
class TestSingletonBitIdentity:
    @pytest.mark.parametrize("policy", ["none", "threshold-dynamic", "top-k"])
    def test_all_singleton_population_matches_per_client(self, policy):
        # Every client overridden with a distinct rate -> every class is
        # a singleton -> the aggregated build reuses the per-client RNG
        # stream names AND draw order: outputs must match bit for bit.
        overrides = {c: {"request_rate": 5.0 + 0.5 * c} for c in range(6)}
        spec = WorkloadSpec(
            num_clients=6, request_rate=30.0, client_overrides=overrides
        )
        params = {"k": 2} if policy == "top-k" else {}
        base = SimulationConfig(
            workload=spec,
            policy=policy,
            policy_params=params,
            duration=90.0,
            warmup=10.0,
            seed=13,
        )
        agg = run_simulation(replace(base, client_backend="aggregated"))
        per = run_simulation(base)
        assert_metrics_identical(agg.metrics, per.metrics)
        assert agg.link_demand_fetches == per.link_demand_fetches
        assert agg.link_prefetch_bytes == per.link_prefetch_bytes
        assert [c.hits for c in agg.cache_stats] == [
            c.hits for c in per.cache_stats
        ]
        assert [c.requests for c in agg.controller_stats] == [
            c.requests for c in per.controller_stats
        ]

    def test_phased_singletons_match_per_client(self):
        # Two phases: a rate change and an item variant (a shifted
        # catalogue).  A singleton class drops exactly the one gap that
        # crosses a phase boundary, as a client does, so the phased
        # aggregated run is bit-identical to the per-client one too.
        overrides = {c: {"request_rate": 5.0 + 0.5 * c} for c in range(6)}
        spec = WorkloadSpec(
            num_clients=6,
            request_rate=30.0,
            client_overrides=overrides,
            phases=(
                PhaseSpec(duration=20.0),
                PhaseSpec(duration=15.0, rate_multiplier=2.5, popularity_shift=40),
            ),
        )
        base = SimulationConfig(
            workload=spec,
            policy="threshold-dynamic",
            duration=90.0,
            warmup=10.0,
            seed=13,
        )
        agg = run_simulation(replace(base, client_backend="aggregated"))
        per = run_simulation(base)
        assert_metrics_identical(agg.metrics, per.metrics)
        assert agg.link_demand_fetches == per.link_demand_fetches
        assert agg.link_prefetch_bytes == per.link_prefetch_bytes
        assert [c.requests for c in agg.controller_stats] == [
            c.requests for c in per.controller_stats
        ]
        assert agg.kpis.access_p95 == per.kpis.access_p95

    def test_singleton_identity_across_topology_shards(self):
        overrides = {c: {"request_rate": 4.0 + c} for c in range(5)}
        spec = WorkloadSpec(
            num_clients=5, request_rate=25.0, client_overrides=overrides
        )
        base = SimulationConfig(
            workload=spec,
            topology=TopologyConfig(num_proxies=2),
            duration=90.0,
            warmup=10.0,
            seed=21,
        )
        agg = run_simulation(replace(base, client_backend="aggregated"))
        per = run_simulation(base)
        assert_metrics_identical(agg.metrics, per.metrics)
        for sa, sp in zip(agg.per_proxy, per.per_proxy):
            assert_metrics_identical(sa.metrics, sp.metrics)

    def test_per_client_backend_bit_stable(self):
        # The default backend must be untouched by this PR: two runs of
        # the same config still agree exactly (the cross-PR pin lives in
        # the seeded regression tests; this guards the refactor seam).
        cfg = agg_config(client_backend="per-client")
        assert run_simulation(cfg).metrics == run_simulation(cfg).metrics


# ----------------------------------------------------------------------
# Equivalence: multi-member classes at q = 0 (statistical)
# ----------------------------------------------------------------------
class TestAggregateEquivalence:
    def test_irm_no_prefetch_matches_per_client(self):
        # Poisson superposition is exact and the IRM/LRU hit law is
        # rate-independent, so with prefetching off the aggregated run
        # must reproduce the per-client steady state within replication
        # noise.  Tolerances: hit ratio +-0.02 absolute, utilisation
        # +-0.02 absolute, access time +-10% relative (both estimators
        # averaged over 3 replications x 320s of simulated time).
        cfg = SimulationConfig(
            workload=WorkloadSpec(num_clients=4, request_rate=30.0),
            policy="none",
            duration=400.0,
            warmup=80.0,
            seed=11,
        )
        agg = run_simulation_replications(
            replace(cfg, client_backend="aggregated"), replications=3
        )
        per = run_simulation_replications(cfg, replications=3)
        assert agg.mean("hit_ratio") == pytest.approx(
            per.mean("hit_ratio"), abs=0.02
        )
        assert agg.mean("utilization") == pytest.approx(
            per.mean("utilization"), abs=0.02
        )
        assert agg.mean("mean_access_time") == pytest.approx(
            per.mean("mean_access_time"), rel=0.10
        )

    def test_irm_hit_ratio_close_under_prefetching(self):
        # With a prefetch policy the controller granularity differs (one
        # planner per class vs per client), so only the cache-law metric
        # is pinned, at a documented looser tolerance (+-0.05 absolute).
        cfg = SimulationConfig(
            workload=WorkloadSpec(num_clients=4, request_rate=30.0),
            policy="threshold-dynamic",
            duration=400.0,
            warmup=80.0,
            seed=11,
        )
        agg = run_simulation_replications(
            replace(cfg, client_backend="aggregated"), replications=3
        )
        per = run_simulation_replications(cfg, replications=3)
        assert agg.mean("hit_ratio") == pytest.approx(
            per.mean("hit_ratio"), abs=0.05
        )


# ----------------------------------------------------------------------
# Determinism and accounting
# ----------------------------------------------------------------------
class TestAggregatedRuns:
    def test_rerun_bit_identical(self):
        cfg = agg_config()
        assert run_simulation(cfg).metrics == run_simulation(cfg).metrics

    def test_parallel_jobs_bit_identical_to_serial(self):
        cfg = agg_config(duration=60.0, warmup=10.0)
        serial = run_simulation_replications(cfg, replications=2, jobs=1)
        parallel = run_simulation_replications(cfg, replications=2, jobs=2)
        for name in serial.metric_names:
            np.testing.assert_array_equal(
                serial.samples[name], parallel.samples[name]
            )

    def test_class_rows_partition_totals_exactly(self):
        cfg = agg_config(
            workload=WorkloadSpec(
                num_clients=30,
                request_rate=30.0,
                client_overrides={4: {"request_rate": 7.0}},
            ),
            policy="threshold-dynamic",
        )
        out = run_simulation(cfg)
        rows = out.client_classes
        assert len(rows) == 2
        assert sum(r.num_members for r in rows) == 30
        assert sum(r.requests for r in rows) == sum(
            c.requests for c in out.controller_stats
        )
        for row, cache, controller in zip(
            rows, out.cache_stats, out.controller_stats
        ):
            assert row.cache_hits == cache.hits
            assert row.cache_misses == cache.misses
            assert row.prefetches_issued == controller.prefetches_issued
            assert (
                row.prefetches_completed == controller.prefetches_completed
            )
            assert 0.0 <= row.hit_ratio <= 1.0

    def test_per_client_backend_has_no_class_rows(self):
        out = run_simulation(agg_config(client_backend="per-client"))
        assert out.client_classes == ()

    def test_simulation_exposes_classes(self):
        sim = Simulation(agg_config())
        assert len(sim.client_classes) == 1
        assert len(sim.clients) == 1  # one controller per class
        assert sim.client_classes[0].size == 40
