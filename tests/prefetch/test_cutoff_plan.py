"""A policy's ``plan`` decides exactly what ``select`` over the full list does.

The controller asks each policy to ``plan(predictor, context)``.  The
cutoff policies (threshold-static, threshold-dynamic, fixed-threshold,
adaptive) ask the predictor only for the candidates above their cutoff
and check cache/in-flight membership only on those; ``none`` asks
nothing; ``top-k`` and ``all`` take the full list through the base-class
default.  Twin policies fed the same decisions — one through ``plan``,
the other through ``select(predictor.predict(), ...)`` — must choose the
same items in the same order and end in the same state (the dynamic
policy's n̄(F) counters included), and both must choose what the
policies' ``select`` chose before the cutoff rule was shared (the
references below).  The load estimate is a callable that only
``adaptive`` evaluates, once per decision.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRUCache
from repro.core.parameters import SystemParameters
from repro.estimation import ThresholdEstimator
from repro.predictors import FrequencyPredictor, MarkovPredictor, PPMPredictor
from repro.prefetch import (
    AdaptiveUtilizationPolicy,
    DynamicThresholdPolicy,
    FixedThresholdPolicy,
    NoPrefetchPolicy,
    PolicyContext,
    PrefetchAllPolicy,
    PrefetchController,
    StaticThresholdPolicy,
    TopKPolicy,
)

PARAMS = SystemParameters(
    bandwidth=20.0, request_rate=10.0, mean_item_size=1.0, hit_ratio=0.3, cache_size=50.0
)


class RecordingEstimator(ThresholdEstimator):
    """Records the n̄(F) every threshold read was given."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.reads: list[tuple[str, float]] = []

    def threshold(self, *, model="A", n_f=0.0) -> float:
        self.reads.append((model, n_f))
        return super().threshold(model=model, n_f=n_f)


def _dynamic(bandwidth: float, model: str, budget: int | None):
    estimator = RecordingEstimator(bandwidth=bandwidth, cache_size=50.0)
    return DynamicThresholdPolicy(estimator, model=model, budget=budget)


def policy_factories(bandwidth: float) -> dict:
    """Fresh-instance factories for the seven policies (the dynamic one
    under both models, with and without a budget)."""
    return {
        "none": NoPrefetchPolicy,
        "threshold-static": lambda: StaticThresholdPolicy(PARAMS),
        "threshold-static-B-budget": lambda: StaticThresholdPolicy(
            PARAMS, model="B", budget=1
        ),
        "threshold-dynamic-A": lambda: _dynamic(bandwidth, "A", None),
        "threshold-dynamic-A-budget": lambda: _dynamic(bandwidth, "A", 1),
        "threshold-dynamic-B": lambda: _dynamic(bandwidth, "B", None),
        "threshold-dynamic-B-budget": lambda: _dynamic(bandwidth, "B", 2),
        "fixed-threshold": lambda: FixedThresholdPolicy(p0=0.2),
        "adaptive": lambda: AdaptiveUtilizationPolicy(rho_target=0.9, p_min=0.05),
        "top-k": lambda: TopKPolicy(k=2),
        "all": PrefetchAllPolicy,
    }


PREDICTORS = {
    "markov-1": lambda: MarkovPredictor(order=1),
    "markov-2-smoothed": lambda: MarkovPredictor(order=2, smoothing=0.5),
    "ppm-2": lambda: PPMPredictor(max_order=2),
    "frequency": FrequencyPredictor,
}


# ----------------------------------------------------------------------
# References: the cutoff policies' select() before CutoffPolicy existed
# ----------------------------------------------------------------------
class ReferenceCutoff:
    """Eligible first, then ``p > cutoff``, sorted by -p, capped."""

    def __init__(self, policy) -> None:
        self.policy = policy  # read for its parameters only
        self.budget = getattr(policy, "budget", None)

    def cutoff(self, context) -> float:
        policy = self.policy
        if isinstance(policy, StaticThresholdPolicy):
            return policy.p_th
        if isinstance(policy, FixedThresholdPolicy):
            return policy.p0
        return policy.cutoff(context.load())  # adaptive

    def select(self, candidates, context):
        cut = self.cutoff(context)
        chosen = [(i, p) for i, p in context.eligible(candidates) if p > cut]
        chosen.sort(key=lambda pair: -pair[1])
        return chosen[: self.budget] if self.budget is not None else chosen


class ReferenceDynamic:
    """The dynamic policy's select(), n̄(F) bookkeeping included."""

    def __init__(self, estimator, *, model: str, budget: int | None) -> None:
        self.estimator = estimator
        self.model = model
        self.budget = budget
        self._requests_seen = 0
        self._prefetches_issued = 0

    def select(self, candidates, context):
        self._requests_seen += 1
        p_th = self.estimator.threshold(
            model=self.model, n_f=self._prefetches_issued / self._requests_seen
        )
        if math.isnan(p_th):
            return []
        chosen = [(i, p) for i, p in context.eligible(candidates) if p > p_th]
        chosen.sort(key=lambda pair: -pair[1])
        if self.budget is not None:
            chosen = chosen[: self.budget]
        self._prefetches_issued += len(chosen)
        return chosen


def reference_for(policy, make):
    if isinstance(policy, DynamicThresholdPolicy):
        estimator = RecordingEstimator(
            bandwidth=policy.estimator.bandwidth, cache_size=policy.estimator.cache_size
        )
        return ReferenceDynamic(estimator, model=policy.model, budget=policy.budget)
    if isinstance(
        policy, (StaticThresholdPolicy, FixedThresholdPolicy, AdaptiveUtilizationPolicy)
    ):
        return ReferenceCutoff(policy)
    return make()  # select() unchanged: a fresh instance decides as before


def policy_state(policy) -> dict:
    """The policy's own attributes, and the n̄(F) its threshold reads saw."""
    state = dict(vars(policy))
    estimator = state.pop("estimator", None)
    if estimator is not None:
        state["reads"] = list(estimator.reads)
    return state


ITEMS = st.integers(min_value=0, max_value=12)
KINDS = st.sampled_from(["miss", "tagged_hit", "untagged_hit"])
LOADS = st.one_of(st.floats(min_value=0.0, max_value=1.2), st.just(math.nan))
STEPS = st.lists(
    st.tuples(
        ITEMS,
        KINDS,
        st.frozensets(ITEMS, max_size=4),  # cached
        st.frozensets(ITEMS, max_size=3),  # in flight
        LOADS,
    ),
    max_size=40,
)


class TestPlanMatchesSelect:
    @settings(max_examples=40, deadline=None)
    @given(
        steps=STEPS,
        predictor_name=st.sampled_from(sorted(PREDICTORS)),
        bandwidth=st.sampled_from([8.0, 15.0, 30.0, 80.0]),
    )
    def test_twin_policies_choose_alike(self, steps, predictor_name, bandwidth):
        predictor = PREDICTORS[predictor_name]()
        factories = policy_factories(bandwidth)
        triplets = {}
        for name, make in factories.items():
            planned, selected = make(), make()
            triplets[name] = (planned, selected, reference_for(planned, make))
        for i, (item, kind, cached, in_flight, load) in enumerate(steps):
            now = 0.1 * (i + 1)
            predictor.record(item)
            for trio in triplets.values():
                for policy in trio:
                    estimator = getattr(policy, "estimator", None)
                    if estimator is not None:
                        estimator.observe_request(now, kind)
                        estimator.observe_item_size(1.0)
            for name, (planned, selected, reference) in triplets.items():
                def context():
                    return PolicyContext(
                        now=now,
                        bandwidth=bandwidth,
                        load=lambda: load,
                        in_cache=cached,
                        in_flight=in_flight,
                    )

                via_plan = planned.plan(predictor, context())
                via_select = selected.select(predictor.predict(), context())
                before = reference.select(predictor.predict(), context())
                assert via_plan == via_select == before, (name, i)
                assert policy_state(planned) == policy_state(selected), (name, i)
                if isinstance(reference, ReferenceDynamic):
                    # n̄(F) as each threshold read saw it, not just the
                    # counters' final values; eq. 13 (model A) has no
                    # n̄(F) term, so its reads are given the default 0
                    expected = [
                        (model, n_f if model == "B" else 0.0)
                        for model, n_f in reference.estimator.reads
                    ]
                    assert planned.estimator.reads == expected, (name, i)
                    assert (planned._requests_seen, planned._prefetches_issued) == (
                        reference._requests_seen,
                        reference._prefetches_issued,
                    ), (name, i)


class _Mute(MarkovPredictor):
    """A predictor that must not be asked for candidates."""

    def predict_above(self, floor):
        raise AssertionError("the predictor was asked")


class CountingLoad:
    def __init__(self, value: float) -> None:
        self.value = value
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.value


class TestComputeOnlyWhatIsRead:
    @pytest.mark.parametrize("name", sorted(policy_factories(20.0)))
    def test_load_is_evaluated_only_by_adaptive(self, name):
        predictor = MarkovPredictor(order=1)
        controller = PrefetchController(
            predictor=predictor,
            policy=policy_factories(20.0)[name](),
            cache=LRUCache(4),
            bandwidth=20.0,
        )
        load = CountingLoad(0.3)
        decisions = 0
        for i, item in enumerate([1, 2, 1, 3, 1, 2, 4, 1, 2, 1] * 3):
            now = 0.1 * (i + 1)
            controller.on_user_access(item, now=now, size=1.0)
            for chosen, _p in controller.plan(now=now, load=load):
                controller.on_fetch_complete(chosen, now=now, size=1.0, prefetched=True)
            decisions += 1
        assert load.calls == (decisions if name == "adaptive" else 0)

    def test_none_never_asks_the_predictor(self):
        controller = PrefetchController(
            predictor=_Mute(order=1),
            policy=NoPrefetchPolicy(),
            cache=LRUCache(4),
            bandwidth=20.0,
        )
        controller.on_user_access(1, now=0.1, size=1.0)
        assert controller.plan(now=0.1, load=CountingLoad(0.0)) == []

    def test_context_without_a_load_estimate_reads_nan(self):
        context = PolicyContext(now=0.0, bandwidth=1.0)
        assert math.isnan(context.load())
        policy = AdaptiveUtilizationPolicy(p_min=0.1, p_max=0.9)
        assert policy.decision_cutoff(context) == policy.p_max
