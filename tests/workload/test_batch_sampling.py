"""Bit-identity of the vectorized workload fast paths.

The batched samplers (`ZipfCatalog.sample_batch`, vectorized
`MarkovChainSource.generate`) must consume the underlying uniform stream
*exactly* like the per-draw paths — same items out, same generator state
after — so batch and scalar generation are interchangeable mid-stream.
"""

from itertools import islice

import numpy as np
import pytest
from stream_watch import watch_streams

from repro.sim import SimulationConfig, run_simulation
from repro.sim.simulation import Simulation
from repro.workload.markov_source import MarkovChainSource
from repro.workload.sessions import WorkloadSpec
from repro.workload.zipf import ZipfCatalog


def _state(rng):
    return rng.bit_generator.state


class TestZipfBatch:
    @pytest.mark.parametrize(
        "size,exponent,seed,draws", [(200, 1.1, 42, 257), (2000, 0.9, 7, 200_000)]
    )
    def test_batch_equals_scalar_draws(self, size, exponent, seed, draws):
        cat = ZipfCatalog(size, exponent=exponent)
        r_scalar = np.random.default_rng(seed)
        r_batch = np.random.default_rng(seed)
        scalar = [cat.sample(r_scalar) for _ in range(draws)]
        batch = cat.sample_batch(r_batch, draws)
        assert scalar == list(batch)
        assert _state(r_scalar) == _state(r_batch)

    def test_sample_with_size_delegates_to_batch(self):
        cat = ZipfCatalog(50)
        a = cat.sample(np.random.default_rng(1), size=100)
        b = cat.sample_batch(np.random.default_rng(1), 100)
        assert np.array_equal(a, b)

    def test_interleaved_batch_and_scalar(self):
        cat = ZipfCatalog(80, exponent=0.7)
        r_ref = np.random.default_rng(9)
        r_mix = np.random.default_rng(9)
        ref = [cat.sample(r_ref) for _ in range(60)]
        mix = (
            list(cat.sample_batch(r_mix, 25))
            + [cat.sample(r_mix) for _ in range(10)]
            + list(cat.sample_batch(r_mix, 25))
        )
        assert ref == mix

    def test_zipf_indices_matches_sample(self):
        cat = ZipfCatalog(64, exponent=1.0)
        uniforms = np.random.default_rng(3).random(100)
        idx = cat.zipf_indices(uniforms)
        r = np.random.default_rng(3)
        assert list(idx) == [cat.sample(r) for _ in range(100)]


class TestMarkovGenerateBatch:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 1000])
    def test_generate_bit_identical_to_next_item(self, q, count):
        cat = ZipfCatalog(50, exponent=0.9)
        scalar = MarkovChainSource(cat, follow_probability=q,
                                   rng=np.random.default_rng(5))
        batched = MarkovChainSource(cat, follow_probability=q,
                                    rng=np.random.default_rng(5))
        assert [scalar.next_item() for _ in range(count)] == batched.generate(count)
        # Generator state and chain state advanced identically: the next
        # draws continue in lock-step on both paths.
        assert _state(scalar._rng) == _state(batched._rng)
        assert [scalar.next_item() for _ in range(5)] == batched.generate(5)

    def test_long_stream_bit_identical_to_next_item(self):
        cat = ZipfCatalog(2000, exponent=0.9)
        scalar = MarkovChainSource(cat, follow_probability=0.7,
                                   rng=np.random.default_rng(123))
        batched = MarkovChainSource(cat, follow_probability=0.7,
                                    rng=np.random.default_rng(123))
        expected = [scalar.next_item() for _ in range(200_000)]
        assert batched.generate(200_000) == expected
        assert _state(scalar._rng) == _state(batched._rng)

    def test_interleaved_generate_and_next_item(self):
        cat = ZipfCatalog(40, exponent=1.0)
        ref = MarkovChainSource(cat, follow_probability=0.6,
                                rng=np.random.default_rng(11))
        mix = MarkovChainSource(cat, follow_probability=0.6,
                                rng=np.random.default_rng(11))
        expected = [ref.next_item() for _ in range(120)]
        got = (
            mix.generate(50)
            + [mix.next_item() for _ in range(20)]
            + mix.generate(50)
        )
        assert expected == got

    def test_generate_spans_block_boundaries(self):
        # High miss rate (q small) forces many two-uniform steps, so the
        # committed catalogue draw regularly lands in the next block.
        cat = ZipfCatalog(30, exponent=0.5)
        a = MarkovChainSource(cat, follow_probability=0.05,
                              rng=np.random.default_rng(21))
        b = MarkovChainSource(cat, follow_probability=0.05,
                              rng=np.random.default_rng(21))
        assert [a.next_item() for _ in range(500)] == b.generate(500)
        assert _state(a._rng) == _state(b._rng)

    def test_generate_nonpositive_count(self):
        src = MarkovChainSource(ZipfCatalog(10), rng=np.random.default_rng(0))
        state_before = _state(src._rng)
        assert src.generate(0) == []
        assert src.generate(-3) == []
        assert _state(src._rng) == state_before


class TestGrowingBlockStream:
    """``stream()`` generates 1, 2, 4, … items per block, capped at ``block``."""

    @staticmethod
    def _sources(q):
        cat = ZipfCatalog(60, exponent=0.9)
        return [
            MarkovChainSource(cat, follow_probability=q, rng=np.random.default_rng(13))
            for _ in range(3)
        ]

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_items_match_generate_and_next_item(self, q):
        streamed, bulk, scalar = self._sources(q)
        count = 100  # crosses the cap: blocks 1, 2, 4, 8, 8, …
        got = list(islice(streamed.stream(block=8), count))
        assert got == bulk.generate(count)
        assert got == [scalar.next_item() for _ in range(count)]

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_rng_state_at_block_boundaries(self, q):
        streamed, bulk, scalar = self._sources(q)
        items = streamed.stream(block=8)
        consumed = 0
        # Each block is generated when its first item is taken, so after
        # the last item of a block the stream has drawn exactly that much.
        for size in (1, 2, 4, 8, 8, 8):
            consumed += size
            list(islice(items, size))
            bulk.generate(size)
            assert _state(streamed._rng) == _state(bulk._rng)
        for _ in range(consumed):
            scalar.next_item()
        assert _state(streamed._rng) == _state(scalar._rng)


def _random_cache_config(backend, cache_policy="random"):
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=3,
            request_rate=20.0,
            catalog_size=100,
            zipf_exponent=0.9,
            follow_probability=0.7,
        ),
        bandwidth=50.0,
        cache_capacity=8,
        cache_policy=cache_policy,
        predictor="markov",
        policy="threshold-dynamic",
        duration=40.0,
        warmup=5.0,
        seed=7,
        client_backend=backend,
    )


class TestEvictionStreams:
    """Only the ``random`` cache policy derives ``…/evictions`` streams."""

    @staticmethod
    def _eviction_streams(config):
        """The eviction streams a build and run of ``config`` derive."""
        with watch_streams() as watch:
            Simulation(config).run()
        return [name for name in watch.names() if name.endswith("/evictions")]

    @pytest.mark.parametrize("backend", ["per-client", "aggregated"])
    def test_lru_build_derives_no_eviction_stream(self, backend):
        config = _random_cache_config(backend, cache_policy="lru")
        assert self._eviction_streams(config) == []

    def test_random_build_derives_one_per_cache(self):
        assert sorted(self._eviction_streams(_random_cache_config("per-client"))) == [
            f"client{c}/evictions" for c in range(3)
        ]

    @pytest.mark.parametrize(
        "backend,pinned",
        [
            # requests, hit_ratio, mean_access_time, evictions,
            # prefetch fetches, demand fetches, caches
            ("per-client", (717, 0.4755927475592748, 0.02445427626673708,
                            1022, 658, 389, 3)),
            ("aggregated", (712, 0.2598314606741573, 0.02381636333505642,
                            805, 210, 603, 1)),
        ],
    )
    def test_random_cache_metrics_pinned(self, backend, pinned):
        out = run_simulation(_random_cache_config(backend))
        m = out.metrics
        assert (
            m.requests,
            m.hit_ratio,
            m.mean_access_time,
            sum(c.evictions for c in out.cache_stats),
            out.link_prefetch_fetches,
            out.link_demand_fetches,
            len(out.cache_stats),
        ) == pinned
