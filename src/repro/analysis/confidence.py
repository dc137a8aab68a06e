"""Confidence intervals and comparison helpers for simulation output.

Replicated simulation runs produce small samples of means; we report
Student-t confidence intervals and use them to decide whether a simulated
statistic is consistent with the analytical prediction (the `sim-vs-analytic`
experiment) without hard-coding brittle tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ParameterError

__all__ = ["ConfidenceInterval", "mean_confidence_interval", "relative_error"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric two-sided CI for a mean."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.6g} ± {self.half_width:.3g} ({self.level:.0%}, n={self.n})"


def mean_confidence_interval(
    samples: Sequence[float] | np.ndarray,
    *,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Student-t CI for the mean of i.i.d. replication outputs.

    With a single sample the half-width is infinite (no variance estimate),
    which correctly makes ``contains`` always true rather than spuriously
    tight.
    """
    if not 0.0 < level < 1.0:
        raise ParameterError(f"confidence level must be in (0, 1), got {level!r}")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("samples must be a non-empty 1-D sequence")
    n = int(arr.size)
    mean = float(arr.mean())
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=math.inf, level=level, n=1)
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    # Imported here, not at module level: the simulator imports this
    # module (through ``sim/sweep.py``), and SciPy would more than double
    # the memory of every process that runs a simulation, for this one
    # Student-t quantile.
    from scipy import stats

    t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, level=level, n=n)


def relative_error(measured: float, expected: float) -> float:
    """``|measured − expected| / max(|expected|, eps)`` — scale-free error."""
    scale = max(abs(expected), 1e-12)
    return abs(measured - expected) / scale
