"""Exponentially-weighted moving average with initialisation-bias correction.

Used by the online threshold estimator for the mean item size s̄, which
drifts in non-stationary workloads; the threshold ``p_th = f̂′λ̂s̄̂/b``
should track it.  The bias correction (à la Adam) divides by
``1 − (1−α)ⁿ`` so early estimates are unbiased rather than dragged toward
the zero initial value.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError

__all__ = ["EWMA"]


class EWMA:
    """``v ← (1−α)·v + α·x`` with bias-corrected :attr:`value`.

    >>> e = EWMA(alpha=0.5)
    >>> e.update(10.0)
    >>> e.value
    10.0
    >>> e.update(0.0)
    >>> round(e.value, 4)    # (0.25*10 + 0.5*0)/0.75
    3.3333
    """

    __slots__ = ("alpha", "_raw", "_updates")

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self._raw = 0.0
        self._updates = 0

    def update(self, x: float) -> None:
        if math.isnan(x):
            raise ParameterError("EWMA received NaN")
        self._raw = (1.0 - self.alpha) * self._raw + self.alpha * float(x)
        self._updates += 1

    @property
    def count(self) -> int:
        return self._updates

    @property
    def value(self) -> float:
        """Bias-corrected estimate; NaN before any update."""
        if self._updates == 0:
            return float("nan")
        correction = 1.0 - (1.0 - self.alpha) ** self._updates
        return self._raw / correction

    def reset(self) -> None:
        self._raw = 0.0
        self._updates = 0
