"""Dependency-graph predictor (Padmanabhan & Mogul [7]).

The server builds a graph whose nodes are items; an edge ``A → B`` is
weighted by the probability that *B is requested within the next* ``w``
*accesses after A*.  Prediction from the last access returns its out-edges.

This is the classic server-side web prefetching model the paper's related
work describes; the lookahead window ``w`` trades precision for coverage.
With ``w = 1`` it coincides with the first-order Markov predictor.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor, ranked

__all__ = ["DependencyGraphPredictor"]


class DependencyGraphPredictor(Predictor):
    """Windowed co-occurrence graph over the access stream.

    Parameters
    ----------
    window:
        Lookahead window ``w ≥ 1``: an access to B within w accesses after
        A increments edge A→B (once per window occurrence).
    """

    name = "dependency-graph"

    def __init__(self, window: int = 2) -> None:
        if window < 1:
            raise ParameterError(f"window must be >= 1, got {window!r}")
        self.window = int(window)
        self._edges: dict[Item, Counter] = {}
        self._node_count: Counter = Counter()
        # the last ``window`` items, oldest first
        self._recent: tuple[Item, ...] = ()
        self._last: Optional[Item] = None

    def record(self, item: Item) -> None:
        # Every item in the trailing window gains an edge to the newcomer.
        seen_sources = set()
        for source in self._recent:
            if source == item or source in seen_sources:
                continue  # self-loops and duplicate sources don't re-count
            seen_sources.add(source)
            out = self._edges.get(source)
            if out is None:
                out = self._edges[source] = Counter()
            out[item] += 1
        self._node_count[item] += 1
        self._recent = (self._recent + (item,))[-self.window :]
        self._last = item

    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        if self._last is None:
            return []
        out = self._edges.get(self._last)
        if not out:
            return []
        denominator = self._node_count[self._last]
        return ranked([
            (item, p)
            for item, count in out.items()
            if (p := count / denominator) > floor
        ])

    def reset(self) -> None:
        self.__init__(window=self.window)  # type: ignore[misc]
