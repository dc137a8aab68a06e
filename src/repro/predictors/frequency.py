"""Popularity (order-0) predictor — the weakest useful baseline.

Assigns each item its empirical request frequency, optionally EWMA-decayed
so the model tracks non-stationary popularity (the ETEL newspaper scenario
[1]: today's articles displace yesterday's).
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor, ranked

__all__ = ["FrequencyPredictor"]


class FrequencyPredictor(Predictor):
    """``P(next = y) ≈ weight(y) / Σ weights``.

    Parameters
    ----------
    decay:
        Per-access multiplicative decay in (0, 1]; 1.0 = plain counting.
        With decay γ the weight of an access made n requests ago is γⁿ.
    """

    name = "frequency"

    def __init__(self, decay: float = 1.0) -> None:
        if not 0.0 < decay <= 1.0:
            raise ParameterError(f"decay must be in (0, 1], got {decay!r}")
        self.decay = float(decay)
        self._weights: dict[Item, float] = {}
        self._scale = 1.0  # lazy global decay: weight_true = weight / scale

    def record(self, item: Item) -> None:
        if self.decay < 1.0:
            # Decaying every key per access is O(catalogue); instead inflate
            # the scale so older weights shrink relatively.
            self._scale /= self.decay
            if self._scale > 1e12:  # renormalise to avoid float overflow
                inv = 1.0 / self._scale
                self._weights = {k: w * inv for k, w in self._weights.items()}
                self._scale = 1.0
        self._weights[item] = self._weights.get(item, 0.0) + self._scale

    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        total = sum(self._weights.values())
        if total <= 0.0:
            return []
        return ranked([
            (item, p)
            for item, w in self._weights.items()
            if (p := w / total) > floor
        ])

    def reset(self) -> None:
        self.__init__(decay=self.decay)  # type: ignore[misc]
