"""Tests for Tally and TimeWeightedValue."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Environment, Tally, TimeWeightedValue
from repro.errors import SimulationError


class TestTally:
    def test_empty_stats_are_nan(self):
        t = Tally()
        assert math.isnan(t.mean) and math.isnan(t.variance)
        assert t.count == 0

    def test_basic_moments(self):
        t = Tally()
        for v in [2.0, 4.0, 6.0]:
            t.record(v)
        assert t.mean == pytest.approx(4.0)
        assert t.variance == pytest.approx(4.0)
        assert t.minimum == 2.0 and t.maximum == 6.0
        assert t.total == 12.0

    def test_rejects_nan(self):
        with pytest.raises(SimulationError):
            Tally("x").record(float("nan"))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_matches_numpy(self, values):
        t = Tally()
        for v in values:
            t.record(v)
        assert t.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert t.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-6)

    @given(
        a=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
        b=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
    )
    def test_merge_equals_concatenation(self, a, b):
        ta, tb, tall = Tally(), Tally(), Tally()
        for v in a:
            ta.record(v)
            tall.record(v)
        for v in b:
            tb.record(v)
            tall.record(v)
        merged = ta.merge(tb)
        assert merged.count == tall.count
        assert merged.mean == pytest.approx(tall.mean, rel=1e-9, abs=1e-9)
        if merged.count > 1:
            assert merged.variance == pytest.approx(tall.variance, rel=1e-6, abs=1e-9)

    def test_merge_with_empty(self):
        t = Tally()
        t.record(5.0)
        merged = t.merge(Tally())
        assert merged.mean == 5.0


class TestTimeWeightedValue:
    def test_time_average_piecewise(self):
        env = Environment()
        twv = TimeWeightedValue(env, initial=0.0)

        def proc(env):
            yield env.timeout(2.0)
            twv.set(10.0)
            yield env.timeout(3.0)
            twv.set(0.0)
            yield env.timeout(5.0)

        env.start(proc(env))
        env.run()
        # integral = 0*2 + 10*3 + 0*5 = 30 over 10
        assert twv.time_average() == pytest.approx(3.0)

    def test_add_delta(self):
        env = Environment()
        twv = TimeWeightedValue(env, initial=1.0)
        twv.add(2.0)
        assert twv.value == 3.0

    def test_reset_restarts_integration(self):
        env = Environment()
        twv = TimeWeightedValue(env, initial=4.0)

        def proc(env):
            yield env.timeout(5.0)
            twv.reset()
            twv.set(2.0)
            yield env.timeout(5.0)

        env.start(proc(env))
        env.run()
        assert twv.time_average() == pytest.approx(2.0)

    def test_zero_elapsed_returns_current(self):
        env = Environment()
        twv = TimeWeightedValue(env, initial=7.0)
        assert twv.time_average() == 7.0

