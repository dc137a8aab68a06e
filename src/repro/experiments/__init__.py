"""Experiment registry: every paper figure plus ablations.

Importing this package registers all experiments; use
:func:`repro.experiments.get_experiment` or the CLI (``python -m repro``).
"""

from repro.experiments import (  # noqa: F401 - imports register experiments
    cooperative_caching,
    estimator_eval,
    failure_recovery,
    figure1,
    figure2,
    figure3,
    load_impedance,
    model_compare,
    policy_ablation,
    scenario,
    sharding,
    sim_vs_analytic,
    threshold_claims,
    trace_replay,
)
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    all_experiments,
    get_experiment,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
]
