"""Tests for EWMA, the §4 h' estimator, and the dynamic threshold."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.estimation import (
    EWMA,
    HPrimeEstimator,
    RateEstimator,
    ThresholdEstimator,
    WindowedHPrimeEstimator,
)


class TestEWMA:
    def test_first_update_is_exact(self):
        e = EWMA(alpha=0.1)
        e.update(7.0)
        assert e.value == pytest.approx(7.0)

    def test_bias_correction(self):
        e = EWMA(alpha=0.5)
        e.update(10.0)
        e.update(0.0)
        assert e.value == pytest.approx((0.5 * 10 * 0.5 + 0.5 * 0) / 0.75)

    def test_nan_before_updates(self):
        assert math.isnan(EWMA().value)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            EWMA().update(float("nan"))

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            EWMA(alpha=0.0)
        with pytest.raises(ParameterError):
            EWMA(alpha=1.5)

    @settings(max_examples=40)
    @given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=60))
    def test_value_within_observed_range(self, xs):
        e = EWMA(alpha=0.2)
        for x in xs:
            e.update(x)
        assert min(xs) - 1e-9 <= e.value <= max(xs) + 1e-9

    def test_constant_stream_recovers_constant(self):
        e = EWMA(alpha=0.05)
        for _ in range(10):
            e.update(3.5)
        assert e.value == pytest.approx(3.5)


class TestHPrimeEstimator:
    def test_paper_algorithm_counts(self):
        est = HPrimeEstimator()
        # §4: tagged hit bumps both counters; untagged hit and miss only naccess
        est.observe_access("miss")
        est.observe_access("tagged_hit")
        est.observe_access("untagged_hit")
        est.observe_access("tagged_hit")
        assert est.naccess == 4 and est.nhit == 2
        assert est.estimate() == pytest.approx(0.5)

    def test_nan_before_data(self):
        assert math.isnan(HPrimeEstimator().estimate())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            HPrimeEstimator().observe_access("explosion")

    def test_model_b_correction(self):
        est = HPrimeEstimator()
        for _ in range(3):
            est.observe_access("tagged_hit")
        est.observe_access("miss")
        # h_A = 0.75; h_B = 0.75 * 10/(10-2)
        assert est.estimate_model_b(10.0, 2.0) == pytest.approx(0.75 * 10 / 8)

    def test_model_b_correction_domain(self):
        est = HPrimeEstimator()
        est.observe_access("tagged_hit")
        with pytest.raises(ParameterError):
            est.estimate_model_b(10.0, 10.0)
        with pytest.raises(ParameterError):
            est.estimate_model_b(0.0, 0.0)

    def test_from_cache_stats(self):
        from repro.cache import LRUCache

        cache = LRUCache(4)
        cache.insert("a", prefetched=True)
        cache.lookup("a")  # untagged hit: NOT counted as h' hit
        cache.lookup("a")  # tagged hit
        cache.lookup("b")  # miss
        est = HPrimeEstimator.from_cache_stats(cache.stats)
        assert est.naccess == 3 and est.nhit == 1

    def test_unbiased_on_synthetic_stream(self):
        """Feed the estimator a synthetic mix with known tagged-hit rate."""
        rng = np.random.default_rng(1)
        est = HPrimeEstimator()
        h_true = 0.35
        for _ in range(20000):
            u = rng.random()
            if u < h_true:
                est.observe_access("tagged_hit")
            elif u < h_true + 0.2:
                est.observe_access("untagged_hit")
            else:
                est.observe_access("miss")
        assert est.estimate() == pytest.approx(h_true, abs=0.01)

    def test_reset(self):
        est = HPrimeEstimator()
        est.observe_access("tagged_hit")
        est.reset()
        assert est.naccess == 0 and math.isnan(est.estimate())


class TestWindowedEstimator:
    def test_tracks_regime_change(self):
        est = WindowedHPrimeEstimator(window=100)
        for _ in range(500):
            est.observe_access("tagged_hit")
        for _ in range(200):
            est.observe_access("miss")
        assert est.estimate() == pytest.approx(0.0)  # window fully post-change

    def test_window_counters_bounded(self):
        est = WindowedHPrimeEstimator(window=10)
        for _ in range(50):
            est.observe_access("tagged_hit")
        assert est.naccess == 10 and est.nhit == 10

    def test_validation(self):
        with pytest.raises(ParameterError):
            WindowedHPrimeEstimator(window=0)


class TestRateEstimator:
    def test_recovers_constant_rate(self):
        est = RateEstimator(window=16)
        for i in range(100):
            est.observe(i * 0.5)  # rate 2.0, read off the last 16
        assert est.rate == pytest.approx(2.0)

    def test_nan_until_two_points(self):
        est = RateEstimator()
        assert math.isnan(est.rate)
        est.observe(1.0)
        assert math.isnan(est.rate)

    def test_time_reversal_rejected(self):
        est = RateEstimator()
        est.observe(5.0)
        with pytest.raises(ParameterError):
            est.observe(4.0)


class DequeRateEstimator:
    """The rate window as a ``deque(maxlen=window)``: the reference."""

    def __init__(self, window: int) -> None:
        self.times: deque = deque(maxlen=window)

    def observe(self, now: float) -> None:
        if self.times and now < self.times[-1]:
            raise ParameterError("rate estimator saw time going backwards")
        self.times.append(float(now))

    @property
    def rate(self) -> float:
        if len(self.times) < 2:
            return float("nan")
        span = self.times[-1] - self.times[0]
        if span <= 0:
            return float("nan")
        return (len(self.times) - 1) / span


def same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


#: (gap, count): ``count`` observations ``gap`` apart; a gap of 0 repeats
#: a timestamp, so a window of equal times reads NaN
RUNS = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-9, 5.0)), st.integers(1, 700)
)


class TestRateWindowRing:
    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(2, 600),
        start=st.floats(0.0, 1e6),
        ops=st.lists(
            st.one_of(RUNS, st.floats(1e-6, 5.0), st.just("reset")), max_size=8
        ),
    )
    @example(window=3, start=0.0, ops=[(1.0, 10), 0.5, "reset", (0.0, 4), (0.25, 5)])
    def test_ring_equals_a_deque_window_bit_for_bit(self, window, start, ops):
        ring, ref = RateEstimator(window=window), DequeRateEstimator(window)
        now, held = start, 0
        for op in ops:
            if op == "reset":
                ring.reset()
                ref.times.clear()
                held = 0
            elif isinstance(op, float):
                if held:  # one step back in time: both refuse it
                    for est in (ring, ref):
                        with pytest.raises(ParameterError):
                            est.observe(now - op)
            else:
                gap, count = op
                for _ in range(count):
                    now += gap
                    ring.observe(now)
                    ref.observe(now)
                    held = min(held + 1, window)
                    assert len(ring._times) == held
                    assert same_float(ring.rate, ref.rate)
            assert same_float(ring.rate, ref.rate)


class TestThresholdEstimator:
    def _feed(self, est, *, h=0.3, lam=30.0, s=1.0, n=2000, seed=0):
        rng = np.random.default_rng(seed)
        t = 0.0
        for _ in range(n):
            t += rng.exponential(1.0 / lam)
            kind = "tagged_hit" if rng.random() < h else "miss"
            est.observe_request(t, kind)
            est.observe_item_size(s)

    def test_threshold_converges_to_rho_prime(self):
        est = ThresholdEstimator(bandwidth=50.0)
        self._feed(est, h=0.3, lam=30.0)
        # p_th(A) = (1-0.3)*30*1/50 = 0.42
        assert est.threshold() == pytest.approx(0.42, abs=0.04)

    def test_model_b_adds_cache_term(self):
        est = ThresholdEstimator(bandwidth=50.0, cache_size=10.0)
        self._feed(est, h=0.3, lam=30.0)
        a = est.threshold(model="A")
        b = est.threshold(model="B", n_f=0.0)
        assert b == pytest.approx(a + est.h_prime.estimate() / 10.0, rel=1e-6)

    def test_nan_during_warmup(self):
        est = ThresholdEstimator(bandwidth=50.0)
        assert math.isnan(est.threshold())

    def test_model_b_requires_cache_size(self):
        est = ThresholdEstimator(bandwidth=50.0)
        est.observe_request(0.0, "miss")
        with pytest.raises(ParameterError):
            est.rho_prime(model="B")

    def test_validation(self):
        with pytest.raises(ParameterError):
            ThresholdEstimator(bandwidth=0.0)
        est = ThresholdEstimator(bandwidth=1.0)
        with pytest.raises(ParameterError):
            est.observe_item_size(-1.0)
