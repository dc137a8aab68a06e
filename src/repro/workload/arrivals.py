"""Request arrival processes.

The paper's queueing model assumes Poisson request arrivals at aggregate
rate λ (the M in M/G/1); :class:`PoissonArrivals` draws them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ParameterError

__all__ = ["ArrivalProcess", "PoissonArrivals"]


class ArrivalProcess(ABC):
    """A stream of inter-arrival gaps with known mean rate."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ParameterError(f"arrival rate must be > 0, got {rate!r}")
        self.rate = float(rate)

    @abstractmethod
    def next_gap(self, rng: np.random.Generator) -> float:
        """Sample the next inter-arrival time (> 0)."""

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vector of ``count`` gaps (convenience for trace generation)."""
        return np.asarray([self.next_gap(rng) for _ in range(count)], dtype=float)


class PoissonArrivals(ArrivalProcess):
    """Exponential gaps — the paper's M arrival assumption."""

    __slots__ = ()

    name = "poisson"

    def next_gap(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=count)
