"""Online statistics for simulations: tallies and time-weighted values.

Simulation metrics come in two flavours and conflating them is a classic
bug this module's types make structurally impossible:

* *per-event* statistics (response times, hit indicators) — use
  :class:`Tally`, which implements Welford's numerically stable streaming
  mean/variance;
* *state* statistics (queue length, cache occupancy) — use
  :class:`TimeWeightedValue`, which integrates the value over time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment

__all__ = ["Tally", "TimeWeightedValue"]


class Tally:
    """Streaming count/mean/variance over observations (Welford).

    >>> t = Tally()
    >>> for v in [1.0, 2.0, 3.0]:
    ...     t.record(v)
    >>> t.mean
    2.0
    """

    __slots__ = ("name", "_n", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        if value != value:  # fast NaN test on the per-event hot path
            raise SimulationError(f"tally {self.name!r} received NaN")
        self._n = n = self._n + 1
        mean = self._mean
        delta = value - mean
        self._mean = mean = mean + delta / n
        self._m2 += delta * (value - mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._total += value

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._mean if self._n else float("nan")

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN with fewer than two observations."""
        return self._m2 / (self._n - 1) if self._n > 1 else float("nan")

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else float("nan")

    @property
    def minimum(self) -> float:
        return self._min if self._n else float("nan")

    @property
    def maximum(self) -> float:
        return self._max if self._n else float("nan")

    def merge(self, other: "Tally") -> "Tally":
        """Combine two tallies (Chan et al. parallel variance merge)."""
        out = Tally(self.name or other.name)
        if self._n == 0:
            src = other
        elif other._n == 0:
            src = self
        else:
            out._n = self._n + other._n
            delta = other._mean - self._mean
            out._mean = self._mean + delta * other._n / out._n
            out._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / out._n
            out._min = min(self._min, other._min)
            out._max = max(self._max, other._max)
            out._total = self._total + other._total
            return out
        out._n, out._mean, out._m2 = src._n, src._mean, src._m2
        out._min, out._max, out._total = src._min, src._max, src._total
        return out


class TimeWeightedValue:
    """A piecewise-constant state variable integrated over simulation time.

    ``time_average()`` returns ``∫ value dt / elapsed`` — e.g. the mean
    number of jobs in the PS server, comparable to ``ρ/(1−ρ)``.
    """

    __slots__ = ("env", "_value", "_last_change", "_start", "_integral")

    def __init__(self, env: "Environment", initial: float = 0.0) -> None:
        self.env = env
        self._value = float(initial)
        self._last_change = env.now
        self._start = env.now
        self._integral = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        now = self.env._now
        self._integral += self._value * (now - self._last_change)
        self._value = float(value)
        self._last_change = now

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def time_average(self) -> float:
        now = self.env.now
        elapsed = now - self._start
        if elapsed <= 0:
            return self._value
        return (self._integral + self._value * (now - self._last_change)) / elapsed

    def reset(self) -> None:
        """Restart integration from the current time (e.g. after warmup)."""
        self._start = self.env.now
        self._last_change = self.env.now
        self._integral = 0.0
