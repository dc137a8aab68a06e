"""Oracle predictors: perfect and noisy knowledge of the future.

Two uses:

* :class:`OraclePredictor` — *informed* prefetching (TIP [8] / ACFS [2]
  style): sees the actual upcoming request sequence.  The policy-ablation
  experiment uses it as the upper bound on any speculative scheme.
* :class:`DistributionOracle` — knows the *true generating distribution*
  of the workload (not the realisation).  This is the exact setting of the
  paper's analysis — "items with access probability p" — so the validation
  experiments use it to hand the controller probabilities that are correct
  by construction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor, ranked

__all__ = ["OraclePredictor", "DistributionOracle"]


class OraclePredictor(Predictor):
    """Knows the exact future request sequence.

    ``record`` advances the cursor when the observed access matches the
    expected next request (out-of-sequence accesses, e.g. replayed items,
    do not advance it).

    Parameters
    ----------
    future:
        The full upcoming access sequence.
    lookahead:
        How many future requests to reveal per prediction.
    """

    name = "oracle"

    def __init__(self, future: Sequence[Item], lookahead: int = 1) -> None:
        if lookahead < 1:
            raise ParameterError(f"lookahead must be >= 1, got {lookahead!r}")
        self._future = list(future)
        self._cursor = 0
        self.lookahead = int(lookahead)

    def record(self, item: Item) -> None:
        if self._cursor < len(self._future) and self._future[self._cursor] == item:
            self._cursor += 1

    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        """The revealed upcoming requests, each certain (p = 1), in
        request order."""
        if not 1.0 > floor:
            return []
        horizon = self._future[self._cursor : self._cursor + self.lookahead]
        return [(item, 1.0) for item in dict.fromkeys(horizon)]

    @property
    def remaining(self) -> int:
        return len(self._future) - self._cursor

    def reset(self) -> None:
        self._cursor = 0


class DistributionOracle(Predictor):
    """Returns a fixed, true next-access distribution.

    Matches the paper's analytical setting: the prefetcher is offered items
    whose access probabilities are *known*.  ``record`` is a no-op — the
    distribution is stationary by assumption.
    """

    name = "distribution-oracle"

    def __init__(self, distribution: Mapping[Item, float]) -> None:
        total = float(sum(distribution.values()))
        if total > 1.0 + 1e-9:
            raise ParameterError(
                f"next-access probabilities sum to {total:.4f} > 1"
            )
        if any(p < 0 for p in distribution.values()):
            raise ParameterError("probabilities must be non-negative")
        self._dist = dict(distribution)

    def record(self, item: Item) -> None:  # noqa: B027 - stationary model
        pass

    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        return ranked([pair for pair in self._dist.items() if pair[1] > floor])

    def probability(self, item: Item) -> float:
        return self._dist.get(item, 0.0)

    def reset(self) -> None:  # noqa: B027 - nothing to forget
        pass
