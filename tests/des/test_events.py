"""Tests for event primitives."""

import pytest

from repro.des import Environment
from repro.des.events import Event
from repro.errors import SimulationError


class TestEventLifecycle:
    def test_initial_state(self):
        ev = Event(Environment())
        assert not ev.triggered and not ev.processed

    def test_value_unavailable_before_trigger(self):
        ev = Event(Environment())
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(123)
        assert ev.triggered and ev.ok and ev.value == 123

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(ValueError())

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_failure_nobody_waits_for_surfaces_in_run(self):
        env = Environment()
        env.event().fail(ValueError("lost cause"))
        with pytest.raises(ValueError, match="lost cause"):
            env.run()

    def test_delayed_succeed(self):
        env = Environment()
        ev = env.event()
        ev.succeed("late", delay=5.0)
        log = []

        def waiter(env, ev):
            value = yield ev
            log.append((env.now, value))

        env.start(waiter(env, ev))
        env.run()
        assert log == [(5.0, "late")]
