"""k-order Markov next-access predictor.

Vitter & Krishnan [13] showed prefetchers built on Markov models are
asymptotically optimal when the request stream *is* Markov.  This predictor
estimates the transition distribution empirically:

    ``P(next = y | last k items = ctx) ≈ count(ctx → y) / count(ctx)``

with graceful *back-off*: when the current k-context has never been seen it
falls back to the (k−1)-context, ..., down to the order-0 popularity
distribution.  Optional Laplace smoothing avoids zero-probability lockout
for rarely-seen successors.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor, ranked

__all__ = ["MarkovPredictor"]


class MarkovPredictor(Predictor):
    """Empirical k-order Markov chain with back-off.

    Parameters
    ----------
    order:
        Context length k ≥ 0 (0 = popularity only).
    smoothing:
        Laplace α added to every observed successor count (0 = MLE).

    Examples
    --------
    >>> p = MarkovPredictor(order=1)
    >>> p.warm_up(["a", "b", "a", "b", "a", "c"])
    >>> top = p.predict(limit=1)
    >>> top[0][0]   # after 'c' nothing is known; backs off to popularity
    'a'
    """

    name = "markov"

    def __init__(self, order: int = 1, smoothing: float = 0.0) -> None:
        if order < 0:
            raise ParameterError(f"order must be >= 0, got {order!r}")
        if smoothing < 0:
            raise ParameterError(f"smoothing must be >= 0, got {smoothing!r}")
        self.order = int(order)
        self.smoothing = float(smoothing)
        # transition counts per context length: _counts[k][ctx][successor]
        self._counts: list[dict[tuple, Counter]] = [dict() for _ in range(order + 1)]
        # the last ``order`` items, oldest first: the context itself, so
        # no request copies it (and an empty history allocates nothing)
        self._recent: tuple[Item, ...] = ()

    # ------------------------------------------------------------------
    def record(self, item: Item) -> None:
        history = self._recent
        for k in range(0, self.order + 1):
            if len(history) < k:
                break
            ctx = history[len(history) - k :]
            counts = self._counts[k]
            table = counts.get(ctx)
            if table is None:
                table = counts[ctx] = Counter()
            table[item] += 1
        if self.order:
            self._recent = (history + (item,))[-self.order :]

    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        history = self._recent
        for k in range(min(self.order, len(history)), -1, -1):
            ctx = history[len(history) - k :] if k else ()
            table = self._counts[k].get(ctx)
            if table:
                alpha = self.smoothing
                total = sum(table.values()) + alpha * len(table)
                # Division by a positive total is monotone, so the largest
                # count gives the largest p: nothing clears the floor
                # unless it does.
                if not (max(table.values()) + alpha) / total > floor:
                    return []
                return ranked([
                    (item, p)
                    for item, count in table.items()
                    if (p := (count + alpha) / total) > floor
                ])
        return []

    def reset(self) -> None:
        self.__init__(order=self.order, smoothing=self.smoothing)  # type: ignore[misc]
