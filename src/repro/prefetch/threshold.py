"""The paper's threshold policies (eqs. 13/21).

Two flavours:

* :class:`StaticThresholdPolicy` — ``p_th`` computed once from known system
  parameters (the analytical setting; used by validation experiments where
  parameters are known by construction).
* :class:`DynamicThresholdPolicy` — ``p̂_th`` measured live from the §4
  estimator bundle; this is the deployable policy the paper implies.  While
  the estimate is still NaN (warm-up) it prefetches nothing — the
  conservative direction, since the paper shows sub-threshold prefetching
  *hurts*.
"""

from __future__ import annotations

from repro.core.parameters import SystemParameters
from repro.core.thresholds import threshold_model_a, threshold_model_b
from repro.errors import ParameterError
from repro.estimation.utilization import ThresholdEstimator
from repro.prefetch.policy import Candidate, CutoffPolicy, PolicyContext

__all__ = ["StaticThresholdPolicy", "DynamicThresholdPolicy"]


class StaticThresholdPolicy(CutoffPolicy):
    """Prefetch all eligible items with ``p > p_th(params)``.

    Parameters
    ----------
    params:
        Known operating point; the threshold follows eq. (13) (model A) or
        eq. (21) (model B, requires ``cache_size``).
    model:
        "A" or "B".
    budget:
        Optional cap on prefetches per request (the analysis needs none;
        real queues might).
    """

    name = "threshold-static"

    def __init__(
        self,
        params: SystemParameters,
        *,
        model: str = "A",
        budget: int | None = None,
    ) -> None:
        model = model.upper()
        if model == "A":
            self.p_th = threshold_model_a(
                bandwidth=params.bandwidth,
                request_rate=params.request_rate,
                mean_item_size=params.mean_item_size,
                hit_ratio=params.hit_ratio,
            )
        elif model == "B":
            self.p_th = threshold_model_b(
                bandwidth=params.bandwidth,
                request_rate=params.request_rate,
                mean_item_size=params.mean_item_size,
                hit_ratio=params.hit_ratio,
                cache_size=params.require_cache_size(),
            )
        else:
            raise ParameterError(f"model must be 'A' or 'B', got {model!r}")
        self.model = model
        self.budget = budget

    def decision_cutoff(self, context: PolicyContext) -> float:
        return self.p_th


class DynamicThresholdPolicy(CutoffPolicy):
    """Threshold rule driven by live estimates (the deployable variant).

    The policy owns a :class:`ThresholdEstimator`; the controller feeds it
    observations, and every decision uses the current ``p̂_th``.
    """

    name = "threshold-dynamic"

    def __init__(
        self,
        estimator: ThresholdEstimator,
        *,
        model: str = "A",
        budget: int | None = None,
    ) -> None:
        model = model.upper()
        if model not in ("A", "B"):
            raise ParameterError(f"model must be 'A' or 'B', got {model!r}")
        if model == "B" and estimator.cache_size is None:
            raise ParameterError("model B dynamic policy needs estimator.cache_size")
        self.estimator = estimator
        self.model = model
        self.budget = budget
        #: running average of prefetches issued per request (n̄(F)) — the
        #: model-B correction needs it.
        self._requests_seen = 0
        self._prefetches_issued = 0

    @property
    def mean_prefetch_count(self) -> float:
        """Observed n̄(F) so far (0 before any request)."""
        if self._requests_seen == 0:
            return 0.0
        return self._prefetches_issued / self._requests_seen

    def current_threshold(self) -> float:
        # Eq. 13 (model A) has no n̄(F) term: read it for eq. 21 only.
        if self.model == "A":
            return self.estimator.threshold()
        return self.estimator.threshold(model="B", n_f=self.mean_prefetch_count)

    def decision_cutoff(self, context: PolicyContext) -> float:
        # This decision counts towards n̄(F) before p̂_th reads it; a NaN
        # p̂_th (warm-up) admits nothing: abstain rather than guess.
        self._requests_seen += 1
        return self.current_threshold()

    def _choose(
        self, above: list[Candidate], context: PolicyContext
    ) -> list[Candidate]:
        chosen = super()._choose(above, context)
        self._prefetches_issued += len(chosen)
        return chosen
