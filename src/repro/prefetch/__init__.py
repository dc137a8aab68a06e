"""Prefetch policies and the controller wiring them to caches/predictors."""

from repro.prefetch.adaptive import AdaptiveUtilizationPolicy
from repro.prefetch.controller import AccessOutcome, PrefetchController
from repro.prefetch.heuristics import (
    FixedThresholdPolicy,
    NoPrefetchPolicy,
    PrefetchAllPolicy,
    TopKPolicy,
)
from repro.prefetch.policy import CutoffPolicy, PolicyContext, PrefetchPolicy
from repro.prefetch.threshold import DynamicThresholdPolicy, StaticThresholdPolicy

__all__ = [
    "AccessOutcome",
    "AdaptiveUtilizationPolicy",
    "CutoffPolicy",
    "DynamicThresholdPolicy",
    "FixedThresholdPolicy",
    "NoPrefetchPolicy",
    "PolicyContext",
    "PrefetchAllPolicy",
    "PrefetchController",
    "PrefetchPolicy",
    "StaticThresholdPolicy",
    "TopKPolicy",
]
