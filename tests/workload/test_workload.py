"""Tests for catalogues, arrivals, sizes, sources, sessions."""

import numpy as np
import pytest

from repro.des.rng import RandomStreams
from repro.errors import ConfigurationError, ParameterError
from repro.workload import (
    ExponentialSize,
    FixedSize,
    LognormalSize,
    MarkovChainSource,
    ParetoSize,
    PoissonArrivals,
    WorkloadSpec,
    ZipfCatalog,
    generate_trace,
)


class TestZipfCatalog:
    def test_probabilities_normalised_and_sorted(self):
        cat = ZipfCatalog(100, exponent=1.0)
        probs = cat.probabilities
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.diff(probs) <= 0)

    def test_uniform_at_zero_exponent(self):
        cat = ZipfCatalog(10, exponent=0.0)
        assert np.allclose(cat.probabilities, 0.1)

    def test_sampling_matches_distribution(self):
        cat = ZipfCatalog(50, exponent=1.0)
        rng = np.random.default_rng(2)
        samples = cat.sample(rng, size=50000)
        freq0 = np.mean(samples == 0)
        assert freq0 == pytest.approx(cat.probability(0), rel=0.05)

    def test_scalar_sample(self):
        cat = ZipfCatalog(10)
        item = cat.sample(np.random.default_rng(0))
        assert isinstance(item, int) and 0 <= item < 10

    def test_top_and_expected_hit_ratio(self):
        cat = ZipfCatalog(10, exponent=1.0)
        top3 = cat.top(3)
        assert [i for i, _ in top3] == [0, 1, 2]
        assert cat.expected_hit_ratio(3) == pytest.approx(
            sum(p for _, p in top3)
        )
        assert cat.expected_hit_ratio(0) == 0.0
        assert cat.expected_hit_ratio(999) == pytest.approx(1.0)

    def test_out_of_range_probability(self):
        assert ZipfCatalog(5).probability(7) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            ZipfCatalog(0)
        with pytest.raises(ParameterError):
            ZipfCatalog(5, exponent=-1)


class TestArrivals:
    def test_poisson_mean_rate(self):
        rng = np.random.default_rng(3)
        gaps = PoissonArrivals(rate=4.0).gaps(rng, 20000)
        assert gaps.mean() == pytest.approx(0.25, rel=0.05)

    def test_validation(self):
        with pytest.raises(ParameterError):
            PoissonArrivals(rate=0.0)


class TestSizes:
    @pytest.mark.parametrize(
        "dist",
        [
            FixedSize(2.0),
            ExponentialSize(2.0),
            ParetoSize(2.0, alpha=2.5),
            LognormalSize(2.0, cv=1.0),
        ],
    )
    def test_mean_preserved(self, dist):
        rng = np.random.default_rng(5)
        samples = np.array([dist.sample(rng) for _ in range(40000)])
        assert samples.mean() == pytest.approx(2.0, rel=0.08)
        assert np.all(samples > 0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            FixedSize(0.0)
        with pytest.raises(ParameterError):
            ParetoSize(1.0, alpha=1.0)
        with pytest.raises(ParameterError):
            LognormalSize(1.0, cv=0.0)


class TestMarkovSource:
    def test_follow_probability_realised(self):
        cat = ZipfCatalog(100, exponent=0.5)
        src = MarkovChainSource(
            cat, follow_probability=0.8, rng=np.random.default_rng(6)
        )
        stream = src.generate(20000)
        follows = sum(
            1
            for prev, cur in zip(stream, stream[1:])
            if cur == src.successor(prev)
        )
        # followed transitions happen with prob q plus a tiny Zipf chance
        assert follows / (len(stream) - 1) == pytest.approx(0.8, abs=0.02)

    def test_true_probability_closed_form(self):
        cat = ZipfCatalog(10, exponent=1.0)
        src = MarkovChainSource(cat, follow_probability=0.6)
        succ = src.successor(3)
        expected = 0.6 + 0.4 * cat.probability(succ)
        assert src.true_next_probability(3, succ) == pytest.approx(expected)
        other = (succ + 1) % 10
        assert src.true_next_probability(3, other) == pytest.approx(
            0.4 * cat.probability(other)
        )

    def test_true_distribution_sorted(self):
        cat = ZipfCatalog(20)
        src = MarkovChainSource(cat, follow_probability=0.7)
        dist = src.true_distribution(5, top=5)
        probs = [p for _, p in dist]
        assert probs == sorted(probs, reverse=True)
        assert dist[0][0] == src.successor(5)

    def test_memos_are_shared_by_equal_catalogue_q_and_shift(self):
        cat = ZipfCatalog(20)
        memos: dict = {}
        a, b = (MarkovChainSource(cat, follow_probability=0.7, memos=memos) for _ in "ab")
        other_q = MarkovChainSource(cat, follow_probability=0.6, memos=memos)
        other_shift = MarkovChainSource(
            cat, follow_probability=0.7, successor_shift=2, memos=memos
        )
        other_catalog = MarkovChainSource(
            ZipfCatalog(20), follow_probability=0.7, memos=memos
        )
        own = MarkovChainSource(cat, follow_probability=0.7)
        assert a.true_distribution(5, top=5) is b.true_distribution(5, top=5)
        assert len(memos) == 4
        for source in (other_q, other_shift, other_catalog, own):
            assert source._dist_cache is not a._dist_cache
            assert source.true_distribution(5, top=5) is not a.true_distribution(5, top=5)
        assert own.true_distribution(5, top=5) == a.true_distribution(5, top=5)

    def test_zero_follow_is_iid_zipf(self):
        cat = ZipfCatalog(10)
        src = MarkovChainSource(
            cat, follow_probability=0.0, rng=np.random.default_rng(7)
        )
        stream = src.generate(5000)
        assert len(set(stream)) > 3  # actually draws from the catalogue

    def test_validation(self):
        cat = ZipfCatalog(10)
        with pytest.raises(ParameterError):
            MarkovChainSource(cat, follow_probability=1.5)
        with pytest.raises(ParameterError):
            MarkovChainSource(cat, successor_shift=10)


class TestWorkloadSpec:
    def test_per_client_rate_splits_aggregate(self):
        spec = WorkloadSpec(num_clients=4, request_rate=30.0)
        assert spec.per_client_rate == pytest.approx(7.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(num_clients=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(request_rate=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(catalog_size=1)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(follow_probability=2.0)


class TestGenerateTrace:
    def test_trace_sorted_and_rate_correct(self):
        spec = WorkloadSpec(num_clients=3, request_rate=20.0, catalog_size=50)
        trace = generate_trace(spec, duration=200.0, seed=1)
        times = [r.time for r in trace]
        assert times == sorted(times)
        assert len(trace) == pytest.approx(20.0 * 200.0, rel=0.05)
        assert {r.client for r in trace} == {0, 1, 2}

    def test_deterministic_by_seed(self):
        spec = WorkloadSpec(num_clients=2, request_rate=10.0)
        a = generate_trace(spec, duration=50.0, seed=3)
        b = generate_trace(spec, duration=50.0, seed=3)
        assert a == b
        c = generate_trace(spec, duration=50.0, seed=4)
        assert a != c

    def test_duration_validation(self):
        with pytest.raises(ConfigurationError):
            generate_trace(WorkloadSpec(), duration=0.0)
