"""Per-entity RNG streams derived in one batch at build time.

Builds with more entities than ``BATCH_CROSSOVER`` derive every
per-client (or per-class) stream with ``RandomStreams.derive``.  Each
derived generator must start in the state ``RandomStreams(seed).get``
gives it, the build must derive exactly the names its loop and drivers
read, and the runs must reproduce, bit for bit, the metrics the
one-name-at-a-time derivation produced (literal values below).  The
registry hands each stream over to its consumer, so the tests watch
what is derived (``stream_watch``), not what the registry holds.
"""

import hashlib

import pytest

from stream_watch import watch_streams

from repro.des.rng import BATCH_CROSSOVER, RandomStreams
from repro.sim import SimulationConfig
from repro.sim.simulation import Simulation
from repro.workload.phases import PhaseSpec
from repro.workload.sessions import WorkloadSpec, generate_trace

CLIENTS = 150


def _config(*, seed, cache_policy="lru", phases=None, overrides=None,
            backend="per-client"):
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=CLIENTS,
            request_rate=60.0,
            catalog_size=80,
            zipf_exponent=0.9,
            follow_probability=0.6,
            phases=phases,
            client_overrides=overrides or {},
        ),
        bandwidth=120.0,
        cache_capacity=10,
        cache_policy=cache_policy,
        predictor="markov",
        policy="threshold-dynamic",
        duration=30.0,
        warmup=5.0,
        seed=seed,
        client_backend=backend,
    )


#: a neutral phase, then a doubled rate on a shifted catalogue (one extra
#: item variant per client)
PHASES = (
    PhaseSpec(duration=10.0),
    PhaseSpec(duration=10.0, rate_multiplier=2.0, popularity_shift=20),
)


def _stationary():
    # ``random`` eviction adds a third stream per client.
    return _config(seed=7, cache_policy="random")


def _phased():
    return _config(seed=11, phases=PHASES)


def _singletons():
    # A distinct rate per client makes every class a singleton.
    rates = {c: {"request_rate": 0.2 + 0.004 * c} for c in range(CLIENTS)}
    return _config(seed=13, overrides=rates, backend="aggregated")


def _entity_names(config):
    names = []
    for c in range(CLIENTS):
        names.append(f"client{c}/items")
        if config.workload.phases is not None:
            names.append(f"client{c}/items@phase-variant1")
        names.append(f"client{c}/arrivals")
        if config.cache_policy == "random":
            names.append(f"client{c}/evictions")
    return names


BUILDS = {
    # requests, hit_ratio, mean_access_time, utilization,
    # prefetch fetches, demand fetches, evictions -- computed with the
    # one-name-at-a-time derivation; mean_access_time re-pinned (last
    # digits, <= 7.1e-15 relative) for the virtual-time PS link
    "stationary": (_stationary, (
        1470, 0.1414965986394558, 0.04696456222890879, 0.6171835635661395,
        604, 1592, 805,
    )),
    "phased": (_phased, (
        2002, 0.14335664335664336, 0.8466463895383037, 0.8859902421248772,
        1020, 2126, 1322,
    )),
    "singleton-classes": (_singletons, (
        1715, 0.19650145772594751, 0.25017473800239864, 0.8084348777794779,
        1098, 1818, 1338,
    )),
}


@pytest.mark.parametrize("build", BUILDS)
class TestBatchedBuild:
    def test_every_stream_starts_where_get_puts_it(self, build):
        config = BUILDS[build][0]()
        names = _entity_names(config)
        assert len(names) >= BATCH_CROSSOVER
        with watch_streams() as watch:
            Simulation(config)
        assert sorted(watch.names()) == sorted(["origin/sizes", *names])
        # Every entity stream came from the one batch (``get`` would have
        # backed it with a SeedSequence), arrival streams included.
        batched = {d.name for d in watch.derived if d.batched}
        assert batched == set(names)
        for derived in watch.derived:
            fresh = RandomStreams(config.seed).get(derived.name)
            assert derived.state == fresh.bit_generator.state, derived.name

    def test_metrics_pinned(self, build):
        make, pinned = BUILDS[build]
        with watch_streams() as watch:
            sim = Simulation(make())
            built = watch.names()
            out = sim.run()
        m = out.metrics
        assert (
            m.requests,
            m.hit_ratio,
            m.mean_access_time,
            m.utilization,
            out.link_prefetch_fetches,
            out.link_demand_fetches,
            sum(c.evictions for c in out.cache_stats),
        ) == pinned
        assert len(out.cache_stats) == CLIENTS
        # The run derived no stream the build had not, and the registry
        # keeps none of the per-entity ones.
        assert watch.names() == built
        assert set(built) == {"origin/sizes", *_entity_names(make())}
        assert set(sim.streams._streams) == {"origin/sizes"}


@pytest.mark.parametrize(
    "phases,count,digest",
    [
        (None, 1535,
         "2d12916e921c2773b4c5ef5fdcf3ca79bf86b9970f16039a6dbf03b166c05a5b"),
        (PHASES, 2129,
         "1857675f3c50ac41d466f3c7fd8fa53c8ca72e732eea27e8a9f1803da623acce"),
    ],
)
def test_generated_trace_pinned(phases, count, digest):
    spec = _config(seed=0, phases=phases).workload
    records = generate_trace(spec, duration=25.0, seed=3)
    rows = repr([(r.time, r.client, r.item, r.size) for r in records])
    assert len(records) == count
    assert hashlib.sha256(rows.encode()).hexdigest() == digest
