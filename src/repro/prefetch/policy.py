"""Prefetch policy interface.

A policy answers one question after every user request: *given candidate
items with predicted probabilities, which should be prefetched now?*  The
paper's answer is the threshold rule; the ablation experiment compares it
with the heuristics the introduction criticises ("prefetch an item if the
probability of its access is larger than a fixed threshold") and with
upper/lower bounds.

Policies see a :class:`PolicyContext` — the measurable system state — and
must not reach into the simulation directly: this keeps them usable both
inside the DES and in offline trace analysis.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.predictors.base import Predictor

__all__ = ["CutoffPolicy", "PrefetchPolicy", "PolicyContext"]

Candidate = tuple[Hashable, float]


def unknown_load() -> float:
    """The load estimate of a context that has none (NaN)."""
    return math.nan


def _descending_p(pair: Candidate) -> float:
    return -pair[1]


@dataclass
class PolicyContext:
    """Snapshot of system state available to a prefetch decision.

    Attributes
    ----------
    now:
        Current time.
    bandwidth:
        Configured link capacity ``b``.
    load:
        Zero-argument callable giving the live ``ρ̂`` including prefetch
        traffic (NaN if unknown).  A callable, so the estimate is computed
        only by the policies that read it.
    in_cache:
        Membership test for the client's cache (don't prefetch a hit).
    in_flight:
        Membership test for outstanding fetches (don't fetch twice).
    """

    now: float
    bandwidth: float
    load: Callable[[], float] = unknown_load
    in_cache: "CallableMembership" = field(default_factory=lambda: _Never())
    in_flight: "CallableMembership" = field(default_factory=lambda: _Never())

    def eligible(self, candidates: Sequence[Candidate]) -> list[Candidate]:
        """Filter out cached and in-flight items (applies to every policy)."""
        return [
            (item, p)
            for item, p in candidates
            if item not in self.in_cache and item not in self.in_flight
        ]


class _Never:
    """Default membership: nothing is cached/in-flight."""

    def __contains__(self, item: object) -> bool:
        return False


class CallableMembership:  # pragma: no cover - typing helper
    def __contains__(self, item: object) -> bool: ...


class PrefetchPolicy(ABC):
    """Strategy deciding the per-request prefetch set."""

    #: machine name used in experiment tables
    name = "abstract"

    def plan(self, predictor: Predictor, context: PolicyContext) -> list[Candidate]:
        """Choose the items to prefetch *now*, asking ``predictor``.

        The default hands the predictor's full candidate list to
        :meth:`select`; a policy that uses only part of it overrides this
        to ask for less.
        """
        return self.select(predictor.predict(), context)

    @abstractmethod
    def select(
        self,
        candidates: Sequence[Candidate],
        context: PolicyContext,
    ) -> list[Candidate]:
        """Choose the items to prefetch *now* from given candidates.

        ``candidates`` is the predictor's ``(item, probability)`` list,
        descending.  Implementations should start from
        ``context.eligible(candidates)``.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class CutoffPolicy(PrefetchPolicy):
    """Prefetch the eligible candidates with ``p > cutoff``, most probable
    first, at most ``budget`` of them.

    The paper's rule (eqs. 13/21) and the heuristics that imitate it
    differ only in where the cutoff comes from; a subclass supplies it
    through :meth:`decision_cutoff`, which runs exactly once per decision.
    :meth:`plan` asks the predictor only for the candidates above the
    cutoff; :meth:`select` filters given candidates with the same rule.
    """

    #: optional cap on prefetches per decision (None = no cap)
    budget: int | None = None

    @abstractmethod
    def decision_cutoff(self, context: PolicyContext) -> float:
        """The probability cutoff of this decision (NaN admits nothing)."""

    def plan(self, predictor: Predictor, context: PolicyContext) -> list[Candidate]:
        cutoff = self.decision_cutoff(context)
        return self._choose(predictor.predict_above(cutoff), context)

    def select(
        self, candidates: Sequence[Candidate], context: PolicyContext
    ) -> list[Candidate]:
        cutoff = self.decision_cutoff(context)
        return self._choose([c for c in candidates if c[1] > cutoff], context)

    def _choose(
        self, above: list[Candidate], context: PolicyContext
    ) -> list[Candidate]:
        """The eligible candidates of ``above``, most probable first, capped."""
        chosen = context.eligible(above)
        if len(chosen) > 1:
            chosen.sort(key=_descending_p)
        return chosen[: self.budget] if self.budget is not None else chosen
