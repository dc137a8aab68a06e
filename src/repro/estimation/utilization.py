"""Online estimation of the operating point and the dynamic threshold.

The threshold rule is only actionable if its inputs can be measured while
the system runs:

* ``ĥ′`` comes from the §4 tag algorithm (:mod:`repro.estimation.hit_ratio`),
* ``λ̂`` from observed request times (a sliding window of arrivals),
* ``s̄̂`` from observed item sizes (EWMA),
* ``b`` is a configuration constant (link capacity).

:class:`ThresholdEstimator` combines them into live ``p̂_th`` values for
models A and B:

    ``p̂_th(A) = (1 − ĥ′) λ̂ s̄̂ / b = ρ̂′``            (eq. 13)
    ``p̂_th(B) = ρ̂′ + ĥ′ / n̄(C)``                     (eq. 21)
"""

from __future__ import annotations

import math
from typing import Literal

from repro.errors import ParameterError
from repro.estimation.ewma import EWMA
from repro.estimation.hit_ratio import HPrimeEstimator

__all__ = ["RateEstimator", "ThresholdEstimator"]


class RateEstimator:
    """Sliding-window estimate of an event rate from timestamps.

    The rate over the last ``window`` events is ``(n − 1) / (t_last −
    t_first)``; for a Poisson stream its coefficient of variation is
    ``1/√(n−1)`` — bounded and tunable, unlike a gap-EWMA whose reciprocal
    is both noisy and Jensen-biased.  The window also forgets old regimes,
    so the estimator tracks non-stationary load.
    """

    __slots__ = ("window", "_times", "_oldest")

    def __init__(self, window: int = 512) -> None:
        if window < 2:
            raise ParameterError(f"window must be >= 2, got {window!r}")
        self.window = int(window)
        # A list that grows with the observations and, once it holds
        # ``window`` of them, wraps as a ring: ``_times[_oldest]`` is the
        # oldest time and ``_times[_oldest - 1]`` the newest.  An estimator
        # that sees few events holds only those (a ``deque(maxlen=…)``
        # allocates a whole block on its first one).
        self._times: list[float] = []
        self._oldest = 0

    def observe(self, now: float) -> None:
        times = self._times
        if times and now < times[self._oldest - 1]:
            raise ParameterError("rate estimator saw time going backwards")
        if len(times) < self.window:
            times.append(float(now))
        else:
            times[self._oldest] = float(now)
            self._oldest = (self._oldest + 1) % self.window

    @property
    def rate(self) -> float:
        """Events per time unit; NaN until two observations arrived."""
        times = self._times
        if len(times) < 2:
            return float("nan")
        span = times[self._oldest - 1] - times[self._oldest]
        if span <= 0:
            return float("nan")
        return (len(times) - 1) / span

    def reset(self) -> None:
        self._times.clear()
        self._oldest = 0


class ThresholdEstimator:
    """Live ``p̂_th`` from streaming observations.

    Parameters
    ----------
    bandwidth:
        Link capacity ``b`` (known configuration).
    cache_size:
        ``n̄(C)`` for the model-B correction; optional for model A.

    Notes
    -----
    ``λ̂`` is a :class:`RateEstimator` over the last 512 requests and
    ``s̄̂`` an :class:`~repro.estimation.ewma.EWMA` of item sizes with
    its default smoothing (α = 0.05).

    Until enough data has arrived the estimate is NaN; the prefetch
    controller treats NaN as "threshold unknown — do not prefetch", the
    conservative default (prefetching too early is the failure mode the
    paper warns about).
    """

    __slots__ = ("bandwidth", "cache_size", "h_prime", "request_rate", "item_size")

    def __init__(
        self,
        bandwidth: float,
        *,
        cache_size: float | None = None,
    ) -> None:
        if bandwidth <= 0:
            raise ParameterError(f"bandwidth must be > 0, got {bandwidth!r}")
        self.bandwidth = float(bandwidth)
        self.cache_size = cache_size
        self.h_prime = HPrimeEstimator()
        self.request_rate = RateEstimator()
        self.item_size = EWMA()

    # ------------------------------------------------------------------
    # Observation hooks (called by the prefetch controller)
    # ------------------------------------------------------------------
    def observe_request(self, now: float, kind: str) -> None:
        """One user request: its time and cache outcome (§4 kind)."""
        self.request_rate.observe(now)
        self.h_prime.observe_access(kind)  # type: ignore[arg-type]

    def observe_item_size(self, size: float) -> None:
        if size <= 0:
            raise ParameterError(f"item size must be > 0, got {size!r}")
        self.item_size.update(size)

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def rho_prime(self, *, model: Literal["A", "B"] = "A", n_f: float = 0.0) -> float:
        """``ρ̂′ = (1 − ĥ′) λ̂ s̄̂ / b`` — estimated no-prefetch utilisation."""
        if model == "A":
            h = self.h_prime.estimate()
        elif model == "B":
            if self.cache_size is None:
                raise ParameterError("model B rho' needs cache_size")
            h = self.h_prime.estimate_model_b(self.cache_size, n_f)
        else:
            raise ParameterError(f"model must be 'A' or 'B', got {model!r}")
        lam = self.request_rate.rate
        s = self.item_size.value
        if h != h or lam != lam or s != s:  # NaN: not yet estimable
            return float("nan")
        return (1.0 - h) * lam * s / self.bandwidth

    def threshold(self, *, model: Literal["A", "B"] = "A", n_f: float = 0.0) -> float:
        """Live ``p̂_th`` for the requested interaction model."""
        rho = self.rho_prime(model=model, n_f=n_f)
        if model == "A":
            return rho
        assert self.cache_size is not None  # checked in rho_prime
        h = self.h_prime.estimate_model_b(self.cache_size, n_f)
        if math.isnan(rho) or math.isnan(h):
            return float("nan")
        return rho + h / self.cache_size
