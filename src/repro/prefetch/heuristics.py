"""Baseline prefetch heuristics the paper's introduction critiques.

§1: "simple heuristics are usually resorted to, such as to prefetch an
item if the probability of its access is larger than a fixed threshold.
Though these heuristics might be intuitively sound ... more analytical
treatment is required."  These are those heuristics, implemented as
faithful strawmen for the policy ablation:

* :class:`NoPrefetchPolicy` — the do-nothing lower anchor (t̄′ baseline).
* :class:`FixedThresholdPolicy` — a fixed, load-blind probability cutoff.
* :class:`TopKPolicy` — always fetch the k most likely items.
* :class:`PrefetchAllPolicy` — fetch every candidate (bandwidth bully).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParameterError
from repro.predictors.base import Predictor
from repro.prefetch.policy import Candidate, CutoffPolicy, PolicyContext, PrefetchPolicy

__all__ = [
    "NoPrefetchPolicy",
    "FixedThresholdPolicy",
    "TopKPolicy",
    "PrefetchAllPolicy",
]


class NoPrefetchPolicy(PrefetchPolicy):
    """Never prefetch — the paper's no-prefetch baseline (§2.3)."""

    name = "none"

    def plan(self, predictor: Predictor, context: PolicyContext) -> list[Candidate]:
        return []  # nothing to decide: the predictor is never asked

    def select(
        self, candidates: Sequence[Candidate], context: PolicyContext
    ) -> list[Candidate]:
        return []


class FixedThresholdPolicy(CutoffPolicy):
    """Prefetch items with ``p > p0`` for a fixed, load-independent p0.

    When ``p0`` happens to equal the true ``p_th`` this coincides with the
    paper's rule; the ablation shows how performance degrades as the fixed
    cutoff diverges from the operating point.
    """

    name = "fixed-threshold"

    def __init__(self, p0: float) -> None:
        if not 0.0 <= p0 <= 1.0:
            raise ParameterError(f"p0 must be in [0, 1], got {p0!r}")
        self.p0 = float(p0)

    def decision_cutoff(self, context: PolicyContext) -> float:
        return self.p0


class TopKPolicy(PrefetchPolicy):
    """Prefetch the k most probable eligible candidates, regardless of p."""

    name = "top-k"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k!r}")
        self.k = int(k)

    def select(
        self, candidates: Sequence[Candidate], context: PolicyContext
    ) -> list[Candidate]:
        eligible = context.eligible(candidates)
        eligible.sort(key=lambda pair: -pair[1])
        return eligible[: self.k]


class PrefetchAllPolicy(PrefetchPolicy):
    """Prefetch every eligible candidate — the indiscriminate extreme.

    §1: "indiscriminate use of prefetching may degrade performance"; this
    policy exists to reproduce that degradation.
    """

    name = "all"

    def select(
        self, candidates: Sequence[Candidate], context: PolicyContext
    ) -> list[Candidate]:
        return context.eligible(candidates)
