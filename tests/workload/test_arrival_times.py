"""``arrival_times`` against the scalar chain it replaced.

``arrival_reference.reference_arrivals`` is the direct form of the
piecewise-Poisson law: one scalar ``PoissonArrivals.next_gap`` draw per
step, the phase located before every draw.  ``arrival_times`` draws
Exp(1) units in blocks and scales them by the phase's mean gap; on the
same seed it must give the same ``(time, phase)`` sequence, bit for bit.
"""

import itertools
import math

import numpy as np
from arrival_reference import reference_arrivals
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workload.phases import (
    STATIONARY,
    UNIT_BLOCK,
    PhaseSchedule,
    PhaseSpec,
    arrival_times,
)


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
            PhaseSpec(duration=d * mean_gap, rate_multiplier=m)
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
                PhaseSpec(duration=40.0 * mean_gap),
                PhaseSpec(duration=0.3 * mean_gap, rate_multiplier=7.5),
                PhaseSpec(duration=25.0 * mean_gap, rate_multiplier=0.2),
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


class CheckedSchedule(PhaseSchedule):
    """A schedule whose ``locate`` checks and counts its own answers.

    A stalled boundary is ``locate(t)`` returning ``end == t``, after
    which both laws restart at ``t`` forever; the count bounds the work
    of any other endless loop without a wall clock.
    """

    def __init__(self, phases, *, limit: int) -> None:
        super().__init__(phases)
        self.calls = 0
        self.limit = limit

    def locate(self, t):
        self.calls += 1
        assert self.calls <= self.limit, f"{self.calls} locate calls"
        idx, end = super().locate(t)
        assert end > t, f"locate({t!r}) ended at {end!r} (phase {idx})"
        return idx, end


class TestFloatBoundaries:
    """Durations that are not exact floats: boundary sums that round."""

    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.floats(1e-3, 1e3), st.floats(0.1, 10.0)),
            min_size=2,
            max_size=4,
        ),
        # base-rate arrivals per cycle, and the horizon in cycles
        per_cycle=st.floats(0.1, 300.0),
        seed=st.integers(0, 2**32 - 1),
        cycles=st.floats(1e-3, 500.0),
    )
    # Phases of 0.1 and 0.2 end at 0.1 + 0.30000000000000004 == 0.4.
    @example(shapes=[(0.1, 1.0), (0.2, 3.0)], per_cycle=6.0, seed=1, cycles=3.4)
    def test_locate_ends_later_and_laws_agree(self, shapes, per_cycle, seed, cycles):
        cycle = sum(d for d, _ in shapes)
        rate = per_cycle / cycle
        peak = rate * max(m for _, m in shapes)
        horizon = min(cycles * cycle, 3000.0 / peak)
        # The oracle stops at its first arrival past the horizon: allow
        # for 60 mean gaps at the slowest rate (probability e**-60).
        reach = horizon + 60.0 / (rate * min(m for _, m in shapes))
        boundaries = len(shapes) * (math.ceil(reach / cycle) + 2)
        schedule = CheckedSchedule(
            (PhaseSpec(duration=d, rate_multiplier=m) for d, m in shapes),
            limit=4 * (boundaries + math.ceil(peak * horizon)) + 1000,
        )
        new = list(
            arrival_times(schedule, rate, np.random.default_rng(seed), horizon=horizon)
        )
        # The oracle locates before every draw, so it checks every
        # arrival instant as well as every boundary.
        ref = reference_arrivals(
            schedule, rate, np.random.default_rng(seed), horizon=horizon
        )
        assert new == ref

    def test_crossed_boundaries_step_forward(self):
        schedule = PhaseSchedule(
            (PhaseSpec(duration=0.1), PhaseSpec(duration=0.2))
        )
        t, ends = 0.0, []
        for _ in range(8):
            idx, t = schedule.locate(t)
            ends.append((idx, t))
        assert [idx for idx, _ in ends] == [0, 1] * 4
        assert all(a[1] < b[1] for a, b in zip(ends, ends[1:]))
        # 0.4 is where ``base + bound`` rounds onto ``t``: the boundary
        # belongs to the phase it starts.
        assert ends[1][1] + 0.1 == 0.4
        assert schedule.locate(0.4) == (1, ends[3][1])


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
