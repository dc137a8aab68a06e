"""Prediction by Partial Matching (PPM) next-access model.

Vitter & Krishnan [13] connect optimal prefetching to data compression:
a predictor that assigns high probability to the actual next symbol is
exactly a good compressor.  PPM is the classic practical realisation.

This implementation blends orders ``m, m−1, ..., 0`` with *escape*
probabilities in the PPM-C style: at order k with context counts
``c(y | ctx)``, total ``n`` and ``d`` distinct successors,

    ``P_k(y) = c(y|ctx) / (n + d)``        for seen successors,
    ``P_esc  = d / (n + d)``               mass passed to order k−1,

so the final probability of candidate ``y`` is

    ``P(y) = Σ_k  (Π_{j>k} P_esc_j) · P_k(y)``

Exclusion of already-counted symbols is deliberately omitted (it changes
probabilities by a factor irrelevant to threshold *ranking* and keeps the
code transparent); the docstring of :meth:`predict_above` notes the consequence:
probabilities can slightly *undershoot*, never overshoot, which is the
conservative direction for a prefetcher deciding against ``p_th``.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor, ranked

__all__ = ["PPMPredictor"]


class PPMPredictor(Predictor):
    """PPM-C style blended multi-order predictor.

    Parameters
    ----------
    max_order:
        Longest context length m ≥ 0.

    Examples
    --------
    >>> p = PPMPredictor(max_order=2)
    >>> p.warm_up(list("abcabcabc"))
    >>> p.predict(limit=1)[0][0]
    'a'
    """

    name = "ppm"

    def __init__(self, max_order: int = 2) -> None:
        if max_order < 0:
            raise ParameterError(f"max_order must be >= 0, got {max_order!r}")
        self.max_order = int(max_order)
        self._counts: list[dict[tuple, Counter]] = [
            dict() for _ in range(max_order + 1)
        ]
        # the last ``max_order`` items, oldest first (``()`` at order 0)
        self._recent: tuple[Item, ...] = ()

    def record(self, item: Item) -> None:
        history = self._recent
        for k in range(0, self.max_order + 1):
            if len(history) < k:
                break
            ctx = history[len(history) - k :]
            counts = self._counts[k]
            table = counts.get(ctx)
            if table is None:
                table = counts[ctx] = Counter()
            table[item] += 1
        if self.max_order:
            self._recent = (history + (item,))[-self.max_order :]

    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        """Blended next-item distribution, above ``floor``.

        The returned probabilities sum to ``1 − (escape mass at order 0)``,
        i.e. they leave room for never-seen items — a proper sub-probability
        model, which the prefetch controller treats as-is.
        """
        history = self._recent
        scores: dict[Item, float] = {}
        carry = 1.0  # product of escape probabilities from higher orders
        for k in range(min(self.max_order, len(history)), -1, -1):
            ctx = history[len(history) - k :] if k else ()
            table = self._counts[k].get(ctx)
            if not table:
                continue
            n = sum(table.values())
            d = len(table)
            denom = n + d
            for item, count in table.items():
                scores[item] = scores.get(item, 0.0) + carry * count / denom
            carry *= d / denom
            if carry <= 1e-12:
                break
        return ranked([pair for pair in scores.items() if pair[1] > floor])

    def reset(self) -> None:
        self.__init__(max_order=self.max_order)  # type: ignore[misc]
