"""``arrival_times`` against the scalar chain it replaced.

``arrival_reference.reference_arrivals`` is the direct form of the
piecewise-Poisson law: one scalar ``PoissonArrivals.next_gap`` draw per
step, the phase located before every draw.  ``arrival_times`` draws
Exp(1) units in blocks and scales them by the phase's mean gap; on the
same seed it must give the same ``(time, phase)`` sequence, bit for bit.

Phase durations are whole multiples of a power-of-two quantum, so every
phase boundary is an exact float: ``PhaseSchedule.locate`` can stall on
a boundary whose float sum rounds (an open item in ROADMAP.md), and both
laws would stall with it.
"""

import itertools
import math

import numpy as np
from arrival_reference import reference_arrivals
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.phases import (
    STATIONARY,
    UNIT_BLOCK,
    PhaseSchedule,
    PhaseSpec,
    arrival_times,
)


def exact_duration(gaps: float, mean_gap: float) -> float:
    """``gaps`` mean gaps, rounded to a multiple of ``2**-24`` of the
    mean gap's binade."""
    quantum = math.ldexp(1.0, math.frexp(mean_gap)[1] - 24)
    return round(gaps * mean_gap / quantum) * quantum


def assert_same_arrivals(schedule, rate, seed, horizon):
    new = list(
        arrival_times(schedule, rate, np.random.default_rng(seed), horizon=horizon)
    )
    ref = reference_arrivals(
        schedule, rate, np.random.default_rng(seed), horizon=horizon
    )
    assert new == ref
    return new


phase_shapes = st.lists(
    st.tuples(
        # duration in mean gaps: from far below one gap (a gap crosses
        # several boundaries) to far above it
        st.floats(1e-3, 100.0),
        st.floats(0.1, 10.0),
    ),
    min_size=1,
    max_size=4,
)


class TestAgainstScalarChain:
    @settings(max_examples=150, deadline=None)
    @given(
        shapes=phase_shapes,
        rate=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**32 - 1),
        horizon_gaps=st.floats(1e-3, 800.0),
    )
    def test_same_times_and_phases(self, shapes, rate, seed, horizon_gaps):
        mean_gap = 1.0 / rate
        schedule = PhaseSchedule(
            PhaseSpec(duration=exact_duration(d, mean_gap), rate_multiplier=m)
            for d, m in shapes
        )
        # Every boundary costs the oracle a draw: keep to ~3000 of them.
        horizon = min(
            horizon_gaps * mean_gap, 3000.0 * schedule.cycle / len(shapes)
        )
        assert_same_arrivals(schedule, rate, seed, horizon)

    def test_runs_past_the_block_cap(self):
        mean_gap = 1.0 / 3.0
        schedule = PhaseSchedule(
            (
                PhaseSpec(duration=exact_duration(40.0, mean_gap)),
                PhaseSpec(
                    duration=exact_duration(0.3, mean_gap), rate_multiplier=7.5
                ),
                PhaseSpec(
                    duration=exact_duration(25.0, mean_gap), rate_multiplier=0.2
                ),
            )
        )
        for seed in range(5):
            arrivals = assert_same_arrivals(schedule, 3.0, seed, 1000.0 * mean_gap)
            assert len(arrivals) > 600
            assert {idx for _, idx in arrivals} == {0, 1, 2}

    def test_stationary_is_one_constant_rate(self):
        for seed in range(5):
            arrivals = assert_same_arrivals(STATIONARY, 12.5, seed, 60.0)
            assert len(arrivals) > 600
            assert {idx for _, idx in arrivals} == {0}

    def test_first_draw_past_the_horizon_is_empty(self):
        rate = 2.0
        first_gap = np.random.default_rng(3).standard_exponential() / rate
        horizon = first_gap / 2
        assert assert_same_arrivals(STATIONARY, rate, 3, horizon) == []
        # An entity that never arrives draws exactly one unit.
        rng = np.random.default_rng(3)
        arrivals = arrival_times(STATIONARY, rate, rng, horizon=horizon)
        assert next(arrivals, None) is None
        witness = np.random.default_rng(3)
        witness.standard_exponential(1)
        assert rng.bit_generator.state == witness.bit_generator.state

    def test_units_come_in_blocks_up_to_the_cap(self):
        rng = np.random.default_rng(5)
        arrivals = arrival_times(STATIONARY, 1.0, rng, horizon=math.inf)
        assert len(list(itertools.islice(arrivals, 100))) == 100
        # Blocks of 1, 2, 4, 8, 16, then 16 each: 111 units cover 100.
        assert 1 + 2 + 4 + 8 + 6 * UNIT_BLOCK == 111
        witness = np.random.default_rng(5)
        witness.standard_exponential(111)
        assert rng.bit_generator.state == witness.bit_generator.state


class TestPremise:
    """The identity ``arrival_times`` rests on, in the installed NumPy."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
        n=st.integers(1, 64),
    )
    def test_scaled_units_are_scalar_exponential_draws(self, seed, scale, n):
        standard, unit, vector, scalar = (
            np.random.default_rng(seed) for _ in range(4)
        )
        from_standard = standard.standard_exponential(n) * scale
        from_unit = unit.exponential(1.0, n) * scale
        drawn = vector.exponential(scale, n)
        singles = [float(scalar.exponential(scale)) for _ in range(n)]
        assert from_standard.tolist() == from_unit.tolist() == drawn.tolist() == singles
        states = {
            repr(g.bit_generator.state) for g in (standard, unit, vector, scalar)
        }
        assert len(states) == 1
