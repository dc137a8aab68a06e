"""Tests for the processor-sharing server — exactness and M/G/1-PS theory."""

import numpy as np
import pytest

from repro.des import Environment, ProcessorSharingServer, RandomStreams, Tally
from repro.errors import SimulationError


def submit_and_collect(env, server, jobs):
    """Submit (time, work) jobs; returns list of finished PSJob objects."""
    finished = []

    def arrive(event):
        server.submit(event.value, None, lambda job, exc: finished.append(job))

    for arrival, work in jobs:
        env.call_at(arrival, arrive, work)
    env.run()
    return finished


class TestExactSharing:
    def test_single_job_full_rate(self):
        env = Environment()
        server = ProcessorSharingServer(env, capacity=10.0)
        jobs = submit_and_collect(env, server, [(0.0, 5.0)])
        assert jobs[0].completion_time == pytest.approx(0.5)

    def test_two_equal_jobs_share_equally(self):
        """Two size-1 jobs arriving together at capacity 1 finish at t=2."""
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        jobs = submit_and_collect(env, server, [(0.0, 1.0), (0.0, 1.0)])
        assert all(j.completion_time == pytest.approx(2.0) for j in jobs)

    def test_hand_computed_overlap(self):
        """Job A (work 2) at t=0; job B (work 1) at t=1.

        t in [0,1): A alone, does 1 unit -> A remaining 1.
        t in [1,?): both at rate 1/2; A and B each have 1 remaining and
        finish together at t=3.
        """
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        jobs = submit_and_collect(env, server, [(0.0, 2.0), (1.0, 1.0)])
        by_work = {j.work: j for j in jobs}
        assert by_work[2.0].completion_time == pytest.approx(3.0)
        assert by_work[1.0].completion_time == pytest.approx(3.0)

    def test_short_job_overtakes_proportionally(self):
        """A (work 4) at t=0, B (work 1) at t=0: B leaves first at t=2.

        Shared rate 1/2 each: B done at t=2; then A alone, 2 remaining,
        done at t=4... total work 5 at capacity 1 -> makespan 5. A: 4 done
        at t=5? A has 4 work; by t=2 A has done 1; remaining 3 at full rate
        -> t=5.
        """
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        jobs = submit_and_collect(env, server, [(0.0, 4.0), (0.0, 1.0)])
        by_work = {j.work: j for j in jobs}
        assert by_work[1.0].completion_time == pytest.approx(2.0)
        assert by_work[4.0].completion_time == pytest.approx(5.0)

    def test_zero_size_job_completes_instantly(self):
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        jobs = submit_and_collect(env, server, [(0.0, 0.0)])
        assert jobs[0].completion_time == 0.0

    def test_work_conservation(self):
        env = Environment()
        server = ProcessorSharingServer(env, capacity=2.0)
        jobs = submit_and_collect(
            env, server, [(0.0, 3.0), (0.5, 1.0), (1.0, 2.0), (4.0, 1.0)]
        )
        assert len(jobs) == 4
        # Served work equals submitted work; busy time = work / capacity.
        assert server.total_work_served == pytest.approx(7.0)
        assert server._busy_time == pytest.approx(3.5)

    def test_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            ProcessorSharingServer(env, capacity=0.0)
        server = ProcessorSharingServer(env, capacity=1.0)
        with pytest.raises(SimulationError):
            server.submit(-1.0, None, None)


class TestTheoryValidation:
    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_mm1_ps_mean_response(self, rho):
        """E[T] = E[x]/(1-rho) for exponential work (seeded, tolerance 5%)."""
        streams = RandomStreams(seed=int(rho * 100))
        arrival_rng = streams.get("arrivals")
        size_rng = streams.get("sizes")
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        tally = Tally()
        lam = rho  # mean work 1.0

        def source(env):
            while True:
                yield env.timeout(arrival_rng.exponential(1.0 / lam))
                server.submit(size_rng.exponential(1.0), None, record)

        def record(job, exc):
            tally.record(job.response_time)

        env.start(source(env))
        env.run(until=20000.0)
        # Higher load -> higher response-time variance -> looser tolerance.
        assert tally.mean == pytest.approx(1.0 / (1.0 - rho), rel=0.04 + 0.1 * rho)

    def test_insensitivity_deterministic_sizes(self):
        """PS response depends only on mean size: deterministic work,
        same E[T]."""
        streams = RandomStreams(seed=9)
        arrival_rng = streams.get("arrivals")
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        tally = Tally()

        def source(env):
            while True:
                yield env.timeout(arrival_rng.exponential(2.0))  # rho = 0.5
                server.submit(1.0, None, record)

        def record(job, exc):
            tally.record(job.response_time)

        env.start(source(env))
        env.run(until=20000.0)
        assert tally.mean == pytest.approx(2.0, rel=0.05)

    def test_mean_jobs_matches_rho_over_one_minus_rho(self):
        streams = RandomStreams(seed=4)
        arrival_rng = streams.get("arrivals")
        size_rng = streams.get("sizes")
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)

        def source(env):
            while True:
                yield env.timeout(arrival_rng.exponential(2.0))
                server.submit(size_rng.exponential(1.0), None, lambda job, exc: None)

        env.start(source(env))
        env.run(until=20000.0)
        assert server.mean_jobs_in_system() == pytest.approx(1.0, rel=0.08)
        assert server.utilization() == pytest.approx(0.5, rel=0.05)
