"""The virtual-time processor-sharing server against the remaining-work one.

``ps_reference.ReferencePSServer`` is the direct form of the model: every
event charges each job's remaining work.  The virtual-time server must
give, on random job streams, the same completion order, completion times
within 1e-12 relative, and the same statistics.  Works that differ by
less than the last bit of V are a tie for the virtual-time server, so
near-ties built below that resolution (two 1e-6 jobs 2e-12 apart behind
a 1e4 job) may leave in another order; random streams do not build them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ps_reference import ReferencePSServer

from repro.des import Environment, ProcessorSharingServer
from repro.errors import SimulationError

REL = 1e-12


def drive(server_cls, capacity, jobs, fails=(), initial_time=0.0):
    """Feed ``jobs`` ((gap, work) pairs) to a fresh server and call
    ``fail_all`` at each time in ``fails``.

    Returns the outcome of every job in the order the server reported
    them, as (job index, "ok" | "failed", time), and the server.
    """
    env = Environment(initial_time=initial_time)
    server = server_cls(env, capacity)
    log = []

    def arrive(event):
        index, work = event.value

        def record(job, exc):
            if exc is None:
                assert job.completion_time == env.now
            log.append((index, "ok" if exc is None else "failed", env.now))

        server.submit(work, None, record)

    t = initial_time
    for index, (gap, work) in enumerate(jobs):
        t += gap
        env.call_at(t, arrive, (index, work))
    def crash(_event):
        server.fail_all(SimulationError("crash"))

    for when in fails:
        env.call_at(initial_time + when, crash)
    # Step under a budget: a server that stops making progress fails the
    # test instead of hanging it.
    for _ in range(10 * (len(jobs) + len(fails) + 1)):
        if not len(env):
            break
        env.step()
    else:
        raise AssertionError("event budget exhausted: the server livelocked")
    return log, server


def assert_same_run(capacity, jobs, fails=(), initial_time=0.0):
    ref_log, ref = drive(ReferencePSServer, capacity, jobs, fails, initial_time)
    new_log, new = drive(ProcessorSharingServer, capacity, jobs, fails, initial_time)
    assert [e[:2] for e in new_log] == [e[:2] for e in ref_log]
    for (index, _, t_new), (_, _, t_ref) in zip(new_log, ref_log):
        assert math.isclose(t_new, t_ref, rel_tol=REL), (index, t_new, t_ref)
    assert new.completed_jobs == ref.completed_jobs
    assert new.num_active == ref.num_active == 0
    for stat in ("total_work_served", "_busy_time"):
        assert math.isclose(getattr(new, stat), getattr(ref, stat), rel_tol=REL), stat
    for stat in ("utilization", "mean_jobs_in_system"):
        assert math.isclose(getattr(new, stat)(), getattr(ref, stat)(), rel_tol=REL), stat
    return new_log


GAP = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
WORK = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.5]),
    st.floats(1e-6, 1e6),
)
CAPACITY = st.sampled_from([1.0, 3.0, 55.0])
JOBS = st.lists(st.tuples(GAP, WORK), min_size=1, max_size=40)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(capacity=CAPACITY, jobs=JOBS)
    def test_random_streams(self, capacity, jobs):
        assert_same_run(capacity, jobs)

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=CAPACITY,
        jobs=JOBS,
        fails=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=3),
    )
    def test_fail_all_at_random_points(self, capacity, jobs, fails):
        log = assert_same_run(capacity, jobs, fails)
        assert len({index for index, _, _ in log}) == len(jobs)

    @settings(max_examples=50, deadline=None)
    @given(
        work=st.floats(1e-6, 1e6),
        groups=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    )
    def test_equal_works_arriving_together(self, work, groups):
        """Bursts of identical jobs, a burst arriving while the previous
        one is still in service: each burst leaves together, in arrival
        order."""
        jobs = []
        for size in groups:
            jobs.append((0.5 * work, work))
            jobs.extend((0.0, work) for _ in range(size - 1))
        assert_same_run(1.0, jobs)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_busy_period_near_saturation(self, seed):
        """2,000 jobs at ρ = 0.95: long busy periods, with tens of jobs
        sharing the server at once."""
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / 0.95, size=2000)
        works = rng.exponential(1.0, size=2000)
        assert_same_run(1.0, list(zip(gaps.tolist(), works.tolist())))

    @pytest.mark.parametrize("works", [(1.0 + 5e-10, 1.0), (0.1 + 0.2, 0.3)])
    def test_near_ties_leave_together_in_arrival_order(self, works):
        """Tags within the tie tolerance but not equal: the later arrival
        has the smaller tag, yet both leave at one instant, first come
        first."""
        log = assert_same_run(1.0, [(0.0, w) for w in works])
        assert [index for index, _, _ in log] == [0, 1]
        assert log[0][2] == log[1][2]

    def test_gap_beyond_tolerance_leaves_in_size_order(self):
        """Tags 5e-9 apart, past the 1e-9 relative tolerance: the smaller
        job leaves first, on its own."""
        log = assert_same_run(1.0, [(0.0, 1.0 + 5e-9), (0.0, 1.0)])
        assert [index for index, _, _ in log] == [1, 0]
        assert log[0][2] < log[1][2]


class TestLargeClock:
    """At t = 1e12 the clock's resolution (1.2e-4) exceeds a job's
    delay, so ``now + delay`` rounds: the server must complete at least
    one job per live timer instead of livelocking."""

    def test_every_job_completes(self):
        jobs = [(0.0, 1e-6)] * 5 + [(1e-9, 1e-6)] * 5 + [(0.0, 2e-6)] * 5
        log, server = drive(ProcessorSharingServer, 1.0, jobs, initial_time=1e12)
        assert sorted(index for index, _, _ in log) == list(range(len(jobs)))
        assert all(outcome == "ok" and t == 1e12 for _, outcome, t in log)
        assert server.num_active == 0
        assert server.completed_jobs == len(jobs)

    def test_jobs_the_clock_overshot_leave_together(self):
        """The head's delay (1.9e-4) rounds up to two clock ticks, so V
        passes all three tags at once: all three leave in one batch, in
        arrival order, as every job's remaining work hit zero."""
        jobs = [(0.0, 8e-5), (0.0, 7e-5), (0.0, 6.33e-5)]
        log = assert_same_run(1.0, jobs, initial_time=1e12)
        assert [index for index, _, _ in log] == [0, 1, 2]
        assert len({t for _, _, t in log}) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(st.floats(0.0, 1e-3), st.floats(1e-6, 1e-3)), min_size=1, max_size=20
        )
    )
    def test_any_stream_drains(self, jobs):
        # Only progress is asserted here: event times are quantized at
        # the scale of the jobs themselves, so neither server's order is
        # exact, and the two can differ.
        log, server = drive(ProcessorSharingServer, 1.0, jobs, initial_time=1e12)
        assert sorted(index for index, _, _ in log) == list(range(len(jobs)))
        assert server.num_active == 0


def test_idle_server_restarts_exactly():
    """After a busy period that drives V to 1e6 (a 1e6 job among 500
    others), V resets when the server empties: each job arriving at an
    idle server finishes at exactly ``arrival + work / C``.  Without the
    reset, ``(V + work) − V`` rounds ``work`` to V's resolution."""
    capacity = 3.0
    rng = np.random.default_rng(5)
    busy = [(0.0, 1e6)] + list(
        zip(rng.exponential(0.5, 500).tolist(), rng.exponential(2.5, 500).tolist())
    )
    env = Environment()
    server = ProcessorSharingServer(env, capacity)
    for gap, work in busy:
        env.run(until=env.now + gap)
        server.submit(work, None, lambda job, exc: None)
    env.run()
    for work in rng.exponential(1.0, 20).tolist():
        assert server.num_active == 0
        arrival = env.now + 1.0
        env.run(until=arrival)
        job = server.submit(work, None, lambda job, exc: None)
        env.run()
        assert job.completion_time == arrival + work / capacity
