"""Access-model interface (paper §1.1's "access models").

The paper assumes an access model exists that assigns each candidate item a
probability of being requested next; its contribution is what to *do* with
those probabilities (the threshold rule).  This package supplies the models
the related-work section surveys so the full simulation is self-contained:

* :class:`repro.predictors.markov.MarkovPredictor` — k-order Markov
  (Vitter & Krishnan's optimality setting),
* :class:`repro.predictors.ppm.PPMPredictor` — prediction by partial
  matching (data-compression style, Vitter & Krishnan [13]),
* :class:`repro.predictors.dependency_graph.DependencyGraphPredictor` —
  Padmanabhan & Mogul's server-side dependency graph [7],
* :class:`repro.predictors.frequency.FrequencyPredictor` — popularity
  baseline,
* :class:`repro.predictors.oracle.OraclePredictor` — informed prefetching
  upper bound (TIP/ACFS stand-in [8, 2]).

All predictors are *online*: ``record(item)`` observes one access,
``predict_above(floor)`` returns the ``(item, probability)`` candidates
for the next one whose probability exceeds ``floor``, and ``predict()``
returns all of them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

__all__ = ["Predictor", "ranked"]

Item = Hashable


def _rank(pair: tuple[Item, float]) -> tuple[float, str]:
    return (-pair[1], str(pair[0]))


def ranked(candidates: list[tuple[Item, float]]) -> list[tuple[Item, float]]:
    """Sort ``candidates`` in place by ``(−p, str(item))`` and return them."""
    if len(candidates) > 1:
        candidates.sort(key=_rank)
    return candidates


class Predictor(ABC):
    """Online next-access model."""

    #: machine name for configuration files and experiment tables
    name = "abstract"

    @abstractmethod
    def record(self, item: Item) -> None:
        """Observe one access (updates the model's internal state)."""

    @abstractmethod
    def predict_above(self, floor: float) -> list[tuple[Item, float]]:
        """Candidates for the *next* access with probability ``p > floor``.

        Returned as ``(item, probability)``, most probable first (the
        learned models break ties by ``str(item)``; ``ranked`` does that).
        Probabilities are with respect to the next request
        (they sum to at most 1 over all candidates).  Implementations drop
        the candidates at or below ``floor`` before they sort, so a
        prefetch decision pays only for the candidates it can use; a NaN
        floor admits nothing.
        """

    def predict(self, limit: int | None = None) -> list[tuple[Item, float]]:
        """Every candidate for the next access, ``limit`` truncating after
        the sort (``predict_above(-inf)``)."""
        dist = self.predict_above(-math.inf)
        return dist[:limit] if limit is not None else dist

    def probability(self, item: Item) -> float:
        """Point query for one item's next-access probability."""
        for candidate, prob in self.predict():
            if candidate == item:
                return prob
        return 0.0

    def warm_up(self, history: Sequence[Item]) -> None:
        """Feed a historical access sequence through :meth:`record`."""
        for item in history:
            self.record(item)

    def reset(self) -> None:
        """Forget everything (default: rebuild via __init__ state is up to
        subclasses; base implementation raises to avoid silent no-ops)."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")
