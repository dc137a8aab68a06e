"""Tests for the DES event loop, callbacks and processes."""

import pytest

from repro.des import Environment
from repro.errors import SimulationError


class TestSchedulingContract:
    def test_priority_constants_pinned(self):
        """events.py mirrors NORMAL to avoid an import cycle; the mirrored
        value must stay in lockstep with the environment's."""
        from repro.des import environment, events

        assert environment.URGENT == 0
        assert environment.NORMAL == events._NORMAL == 1

    def test_queue_entry_layout(self):
        """succeed()/fail()/timeout() inline the (time, priority, eid,
        event) heap push — pin the tuple layout they all must agree on."""
        env = Environment()
        ev = env.timeout(2.0, value="x")
        ev2 = env.event()
        ev2.succeed("y", delay=1.0)
        entries = sorted(env._queue)
        assert entries[0][0] == 1.0 and entries[0][3] is ev2
        assert entries[1][0] == 2.0 and entries[1][3] is ev
        assert [e[1] for e in entries] == [1, 1]  # NORMAL priority
        assert entries[0][2] != entries[1][2]  # unique insertion ids


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_start(self):
        assert Environment(10.0).now == 10.0

    def test_run_until_sets_clock_exactly(self):
        env = Environment()
        env.run(until=42.0)
        assert env.now == 42.0

    def test_run_into_past_rejected(self):
        env = Environment(5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_run_until_processes_events_due_at_the_deadline(self):
        env = Environment()
        log = []
        env.call_at(2.0, lambda event: log.append(env.now))
        env.call_at(2.5, lambda event: log.append(env.now))
        env.run(until=2.0)
        assert log == [2.0] and env.now == 2.0 and len(env) == 1
        env.run()
        assert log == [2.0, 2.5]

    def test_run_to_exhaustion_leaves_clock_at_last_event(self):
        env = Environment()
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0 and len(env) == 0


class TestTimeoutOrdering:
    def test_timeouts_fire_in_order(self):
        env = Environment()
        log = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            log.append((env.now, tag))

        env.start(proc(env, 3.0, "c"))
        env.start(proc(env, 1.0, "a"))
        env.start(proc(env, 2.0, "b"))
        env.run()
        assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_fifo_within_same_time(self):
        env = Environment()
        log = []

        def proc(env, tag):
            yield env.timeout(1.0)
            log.append(tag)

        for tag in "abcd":
            env.start(proc(env, tag))
        env.run()
        assert log == list("abcd")

    def test_long_timeout_chain_runs_to_completion(self):
        env = Environment()

        def ticker(count):
            for _ in range(count):
                yield env.timeout(1.0)

        env.start(ticker(100_000))
        env.run()
        assert env.now == 100_000.0

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)


class TestStart:
    """``Environment.start``: a generator run as a process, with no events
    of its own."""

    def test_runs_now_and_schedules_nothing_of_its_own(self):
        env = Environment()
        log = []

        def task():
            log.append(("start", env.now))
            yield env.timeout(2.0)
            log.append(("end", env.now))

        env.start(task())
        assert log == [("start", 0.0)]  # ran inside start()
        assert env._eid == 1  # only the timeout it yielded
        env.run()
        assert log == [("start", 0.0), ("end", 2.0)]
        assert env._eid == 1  # finishing scheduled nothing

    def test_generator_finishing_at_once_schedules_nothing(self):
        env = Environment()
        log = []

        def task():
            log.append(env.now)
            return
            yield  # pragma: no cover - makes this a generator

        env.start(task())
        assert log == [0.0]
        assert env._eid == 0 and len(env) == 0

    def test_exception_escapes_run_at_its_instant(self):
        env = Environment()

        def task():
            yield env.timeout(2.0)
            raise ValueError("boom")

        env.start(task())
        later = env.timeout(2.0)  # queued behind the task's timeout
        env.timeout(5.0)
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 2.0
        assert not later.processed

    def test_thrown_node_failure_is_handled_by_the_generator(self):
        from repro.errors import NodeFailure

        env = Environment()
        fetch = env.event()
        log = []

        def task():
            try:
                yield fetch
            except NodeFailure as exc:
                log.append(("failed over", env.now, str(exc)))
                value = yield env.timeout(1.0, value="retry")
                log.append((value, env.now))

        env.start(task())
        fetch.fail(NodeFailure("node 1 down"), delay=3.0)
        env.run()  # handled: nothing escapes
        assert log == [("failed over", 3.0, "node 1 down"), ("retry", 4.0)]

    def test_yield_already_processed_event_resumes_at_current_time(self):
        env = Environment()
        early = env.timeout(1.0, value="v")
        log = []

        def task():
            yield env.timeout(5.0)  # early processes meanwhile
            value = yield early  # already processed
            log.append((env.now, value))

        env.start(task())
        env.run()
        assert log == [(5.0, "v")]

    def test_yielding_non_event_raises(self):
        env = Environment()

        def task():
            yield 42

        with pytest.raises(SimulationError, match="must yield Event"):
            env.start(task())


class TestCallSoon:
    def test_runs_before_same_time_normal_events(self):
        env = Environment()
        log = []
        env.call_at(0.0, lambda ev: log.append("normal"))
        env.call_soon(lambda ev: log.append(ev.value), "urgent")
        env.run()
        assert log == ["urgent", "normal"]

    def test_after_urgent_events_already_queued(self):
        env = Environment()
        log = []
        env.call_at(0.0, lambda ev: log.append("normal"))
        env.call_soon(lambda ev: log.append("first"))
        env.call_soon(lambda ev: log.append("second"))
        env.run()
        assert log == ["first", "second", "normal"]


class TestAbsoluteTimeScheduling:
    def test_call_at_fires_at_exact_absolute_time(self):
        env = Environment()
        times = []
        # Walk a schedule of absolute timestamps whose gaps would
        # accumulate float error through now+delay round trips.
        schedule = iter((0.1, 0.2, 0.30000000000000004, 1.7))

        def fire(event):
            times.append(env.now)
            t = next(schedule, None)
            if t is not None:
                env.call_at(t, fire)

        env.call_at(next(schedule), fire)
        env.run()
        assert times == [0.1, 0.2, 0.30000000000000004, 1.7]  # exact, not approx

    def test_call_at_now_is_allowed(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(2.0)
            # same-time absolute event is fine
            env.call_at(2.0, lambda event: log.append(env.now))

        env.start(proc(env))
        env.run()
        assert log == [2.0]

    def test_call_at_in_the_past_raises(self):
        from repro.errors import SimulationError

        env = Environment()

        def proc(env):
            yield env.timeout(5.0)
            env.call_at(4.0, lambda event: None)

        env.start(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_call_at_carries_value(self):
        env = Environment()
        got = []
        env.call_at(1.0, lambda event: got.append(event.value), value="payload")
        env.run()
        assert got == ["payload"]
