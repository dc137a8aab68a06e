"""Cutoff queries answer exactly what filtering the full distribution does.

Every predictor answers ``predict_above(floor)`` by dropping the
candidates at or below ``floor`` before it sorts (Markov skips the whole
context when its largest count cannot clear the floor).  The references
below are the full-sort ``predict`` implementations the predictors had
before cutoff queries existed, reading the same internal state; each
check is ``predict_above(f) == [c for c in reference() if c[1] > f]`` —
same items, same probabilities bit for bit, same order — over generated
access histories and floors at every tie.  ``record`` is checked the same
way: inserting a context only on a miss leaves the counts and their dict
order exactly as ``setdefault`` did.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import (
    DependencyGraphPredictor,
    DistributionOracle,
    FrequencyPredictor,
    MarkovPredictor,
    OraclePredictor,
    PPMPredictor,
)
from repro.sim.simulation import _TrueDistributionPredictor
from repro.workload.markov_source import MarkovChainSource
from repro.workload.zipf import ZipfCatalog


def _rank(pair):
    return (-pair[1], str(pair[0]))


# ----------------------------------------------------------------------
# Reference full-sort predictions (the pre-cutoff implementations)
# ----------------------------------------------------------------------
def reference_markov(p: MarkovPredictor):
    history = tuple(p._recent)
    for k in range(min(p.order, len(history)), -1, -1):
        ctx = history[len(history) - k :] if k else ()
        table = p._counts[k].get(ctx)
        if table:
            alpha = p.smoothing
            total = sum(table.values()) + alpha * len(table)
            dist = [(item, (count + alpha) / total) for item, count in table.items()]
            dist.sort(key=_rank)
            return dist
    return []


def reference_ppm(p: PPMPredictor):
    history = tuple(p._recent)
    scores = {}
    carry = 1.0
    for k in range(min(p.max_order, len(history)), -1, -1):
        ctx = history[len(history) - k :] if k else ()
        table = p._counts[k].get(ctx)
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
    return sorted(scores.items(), key=_rank)


def reference_dependency_graph(p: DependencyGraphPredictor):
    if p._last is None:
        return []
    out = p._edges.get(p._last)
    if not out:
        return []
    denominator = p._node_count[p._last]
    dist = [(item, count / denominator) for item, count in out.items() if denominator > 0]
    dist.sort(key=_rank)
    return dist


def reference_frequency(p: FrequencyPredictor):
    total = sum(p._weights.values())
    if total <= 0.0:
        return []
    dist = [(item, w / total) for item, w in p._weights.items()]
    dist.sort(key=_rank)
    return dist


def reference_oracle(p: OraclePredictor):
    horizon = p._future[p._cursor : p._cursor + p.lookahead]
    seen = {}
    for item in horizon:
        seen.setdefault(item, 1.0)
    return list(seen.items())


def reference_distribution_oracle(p: DistributionOracle):
    return sorted(p._dist.items(), key=_rank)


def reference_true_distribution(p: _TrueDistributionPredictor):
    if p._last is None:
        return []
    return p._source.true_distribution(p._last, top=p._top)


# ----------------------------------------------------------------------
# Reference record() (setdefault on every call)
# ----------------------------------------------------------------------
def reference_markov_record(p: MarkovPredictor, item) -> None:
    history = tuple(p._recent)
    for k in range(0, p.order + 1):
        if len(history) < k:
            break
        ctx = history[len(history) - k :]
        p._counts[k].setdefault(ctx, Counter())[item] += 1
    # the history as a bounded deque kept it
    p._recent = tuple(deque((*history, item), maxlen=p.order))


def reference_ppm_record(p: PPMPredictor, item) -> None:
    history = tuple(p._recent)
    for k in range(0, p.max_order + 1):
        if len(history) < k:
            break
        ctx = history[len(history) - k :]
        p._counts[k].setdefault(ctx, Counter())[item] += 1
    # the history as a bounded deque kept it
    p._recent = tuple(deque((*history, item), maxlen=p.max_order))


def reference_dependency_graph_record(p: DependencyGraphPredictor, item) -> None:
    seen_sources = set()
    for source in p._recent:
        if source == item or source in seen_sources:
            continue
        seen_sources.add(source)
        p._edges.setdefault(source, Counter())[item] += 1
    p._node_count[item] += 1
    # the history as a bounded deque kept it
    p._recent = tuple(deque((*p._recent, item), maxlen=p.window))
    p._last = item


# ----------------------------------------------------------------------
# Floors and the equivalence check
# ----------------------------------------------------------------------
def floors_for(dist) -> list[float]:
    """-inf, 0, every candidate's exact p (a tie at the floor), the
    midpoints between neighbouring distinct p, 1, +inf and NaN."""
    probs = sorted({p for _, p in dist})
    mids = [(a + b) / 2 for a, b in zip(probs, probs[1:])]
    return [-math.inf, 0.0, *probs, *mids, 1.0, math.inf, math.nan]


def assert_cutoff_matches(predictor, reference, state=None) -> None:
    """``predictor``'s cutoff queries filter ``reference`` read over
    ``state`` (another predictor's counts and history; default its own)."""
    full = reference(predictor if state is None else state)
    assert predictor.predict() == full
    for floor in floors_for(full):
        assert predictor.predict_above(floor) == [c for c in full if c[1] > floor], floor


#: small alphabet with multi-digit items, so str order differs from int
#: order and ties are frequent
ITEMS = st.integers(min_value=0, max_value=12)
HISTORIES = st.lists(ITEMS, max_size=60)


def replay(predictor, reference, history) -> None:
    """Check the cutoff query before the first and after every access."""
    assert_cutoff_matches(predictor, reference)
    for item in history:
        predictor.record(item)
        assert_cutoff_matches(predictor, reference)


class TestMarkov:
    @settings(max_examples=60, deadline=None)
    @given(
        history=HISTORIES,
        order=st.integers(min_value=0, max_value=2),
        smoothing=st.sampled_from([0.0, 0.5, 1.0, 0.1]),
    )
    def test_cutoff_query_matches_full_sort(self, history, order, smoothing):
        replay(MarkovPredictor(order=order, smoothing=smoothing), reference_markov, history)

    def test_skips_a_context_whose_largest_count_is_at_the_floor(self):
        p = MarkovPredictor(order=1)
        p.warm_up(["a", "b", "a", "c", "a"])  # after a: b, c (p = 1/2 each)
        assert p.predict_above(0.5) == []
        assert p.predict_above(0.49) == [("b", 0.5), ("c", 0.5)]

    @settings(max_examples=40, deadline=None)
    @given(history=HISTORIES, order=st.integers(min_value=0, max_value=2))
    def test_record_inserts_the_same_contexts_in_the_same_order(self, history, order):
        fast, slow = MarkovPredictor(order=order), MarkovPredictor(order=order)
        for item in history:
            fast.record(item)
            reference_markov_record(slow, item)
            assert fast._recent == slow._recent
        assert [list(t) for t in fast._counts] == [list(t) for t in slow._counts]
        assert [list(c.items()) for t in fast._counts for c in t.values()] == [
            list(c.items()) for t in slow._counts for c in t.values()
        ]


class TestPPM:
    @settings(max_examples=60, deadline=None)
    @given(history=HISTORIES, max_order=st.integers(min_value=0, max_value=2))
    def test_cutoff_query_matches_full_sort(self, history, max_order):
        replay(PPMPredictor(max_order=max_order), reference_ppm, history)

    @settings(max_examples=40, deadline=None)
    @given(history=HISTORIES, max_order=st.integers(min_value=0, max_value=2))
    def test_record_inserts_the_same_contexts_in_the_same_order(self, history, max_order):
        fast, slow = PPMPredictor(max_order=max_order), PPMPredictor(max_order=max_order)
        for item in history:
            fast.record(item)
            reference_ppm_record(slow, item)
            assert fast._recent == slow._recent
            assert_cutoff_matches(fast, reference_ppm, slow)
        assert [list(t.items()) for t in fast._counts] == [
            list(t.items()) for t in slow._counts
        ]

    def test_order_zero_keeps_no_history(self):
        p = PPMPredictor(max_order=0)
        p.warm_up(["a", "b", "a"])
        assert p._recent == ()
        assert p.predict() == [("a", 0.4), ("b", 0.2)]


class TestDependencyGraph:
    @settings(max_examples=60, deadline=None)
    @given(history=HISTORIES, window=st.integers(min_value=1, max_value=3))
    def test_cutoff_query_matches_full_sort(self, history, window):
        # Windows above 1 give edge weights above 1, so floors past 1
        # are exercised too.
        replay(DependencyGraphPredictor(window=window), reference_dependency_graph, history)

    @settings(max_examples=40, deadline=None)
    @given(history=HISTORIES, window=st.integers(min_value=1, max_value=3))
    def test_record_inserts_the_same_edges_in_the_same_order(self, history, window):
        fast = DependencyGraphPredictor(window=window)
        slow = DependencyGraphPredictor(window=window)
        for item in history:
            fast.record(item)
            reference_dependency_graph_record(slow, item)
            assert fast._recent == slow._recent
            assert_cutoff_matches(fast, reference_dependency_graph, slow)
        assert [(s, list(c.items())) for s, c in fast._edges.items()] == [
            (s, list(c.items())) for s, c in slow._edges.items()
        ]


class TestFrequency:
    @settings(max_examples=60, deadline=None)
    @given(history=HISTORIES, decay=st.sampled_from([1.0, 0.9, 0.5, 0.05]))
    def test_cutoff_query_matches_full_sort(self, history, decay):
        replay(FrequencyPredictor(decay=decay), reference_frequency, history)


class TestOracles:
    @settings(max_examples=60, deadline=None)
    @given(
        future=HISTORIES,
        observed=HISTORIES,
        lookahead=st.integers(min_value=1, max_value=4),
    )
    def test_oracle_cutoff_query_matches(self, future, observed, lookahead):
        p = OraclePredictor(future, lookahead=lookahead)
        replay(p, reference_oracle, observed)
        replay(p, reference_oracle, future)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.dictionaries(
            ITEMS, st.integers(min_value=0, max_value=5), max_size=10
        )
    )
    def test_distribution_oracle_cutoff_query_matches(self, weights):
        total = sum(weights.values()) or 1
        p = DistributionOracle({item: w / total for item, w in weights.items()})
        assert_cutoff_matches(p, reference_distribution_oracle)


class TestTrueDistributionAdapter:
    @settings(max_examples=40, deadline=None)
    @given(
        history=st.lists(st.integers(min_value=0, max_value=29), max_size=30),
        top=st.integers(min_value=1, max_value=16),
        follow=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    def test_cutoff_query_matches_the_memoised_list(self, history, top, follow):
        source = MarkovChainSource(
            ZipfCatalog(30, exponent=0.8),
            follow_probability=follow,
            rng=np.random.default_rng(0),
        )
        replay(_TrueDistributionPredictor(source, top=top), reference_true_distribution, history)
