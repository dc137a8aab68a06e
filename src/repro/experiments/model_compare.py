"""§6 — the two interaction models compared (and our model AB between them).

The paper's three bullets, made quantitative:

1. both models impose no cap on n̄(F) beyond the threshold condition
   (covered by the `threshold-claims` audit);
2. the threshold gap ``p_th(B) − p_th(A) = h′/n̄(C) ≤ 1/n̄(C)``;
3. ``h`` (hence ρ, r̄, t̄, G, C) of the two models converge as
   ``n̄(C) ≫ n̄(F)``.

Plus the AB interpolation: for every α ∈ [0, 1], model AB's threshold and
G lie between A's and B's (bracketing).
"""

from __future__ import annotations

import numpy as np

from repro.core.model_a import ModelA
from repro.core.model_ab import ModelAB
from repro.core.model_b import ModelB
from repro.core.parameters import SystemParameters
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.sweep import SweepExecutor

__all__ = ["ModelCompareExperiment"]

_H_PRIME = 0.3
_NC_GRID = (5.0, 10.0, 20.0, 50.0, 100.0, 1000.0)
_NF_P = (0.5, 0.8)


def _gap_row(n_c: float) -> list:
    """Threshold-gap table row over the n(C) grid."""
    params = SystemParameters.paper_defaults(hit_ratio=_H_PRIME, cache_size=n_c)
    a = ModelA(params)
    b = ModelB(params)
    return [n_c, a.threshold(), b.threshold(), b.threshold() - a.threshold(),
            1.0 / n_c]


def _conv_row(n_c: float) -> list:
    """G-convergence table row over the n(C) grid."""
    n_f, p = _NF_P
    params = SystemParameters.paper_defaults(hit_ratio=_H_PRIME, cache_size=n_c)
    g_a = float(np.asarray(ModelA(params).improvement_closed_form(n_f, p)))
    g_b = float(np.asarray(ModelB(params).improvement_closed_form(n_f, p)))
    return [n_c, g_a, g_b, abs(g_a - g_b)]


def _ab_row(alpha: float) -> list:
    """AB-interpolation row: threshold and G at one eviction-value alpha."""
    n_f, p = _NF_P
    params = SystemParameters.paper_defaults(hit_ratio=_H_PRIME, cache_size=10.0)
    ab = ModelAB(params, eviction_value=float(alpha))
    g_ab = float(np.asarray(ab.improvement_closed_form(n_f, p)))
    return [float(alpha), ab.threshold(), g_ab]


@register
class ModelCompareExperiment(Experiment):
    experiment_id = "model-compare"
    paper_artifact = "Section 6 (the two models compared)"
    description = "Threshold gap, A->B convergence, and AB bracketing"

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Models A vs B vs AB",
        )
        # --- threshold gap table over n(C) -----------------------------
        rows = [_gap_row(n_c) for n_c in _NC_GRID]
        result.tables.append(
            (
                "threshold gap p_th(B) - p_th(A) = h'/n(C) (bound 1/n(C))",
                ["n(C)", "p_th(A)", "p_th(B)", "gap", "1/n(C)"],
                rows,
            )
        )

        # --- convergence of G as n(C) grows ----------------------------
        n_f, p = _NF_P
        conv_rows = [_conv_row(n_c) for n_c in _NC_GRID]
        result.tables.append(
            (
                f"G convergence at n(F)={n_f}, p={p} (|G_A - G_B| -> 0)",
                ["n(C)", "G_A", "G_B", "|diff|"],
                conv_rows,
            )
        )
        diffs = [row[3] for row in conv_rows]
        monotone = all(d1 >= d2 - 1e-15 for d1, d2 in zip(diffs, diffs[1:]))
        result.notes.append(
            f"A-vs-B G gap shrinks monotonically with n(C): {monotone}"
        )

        # --- AB bracketing ---------------------------------------------
        params = SystemParameters.paper_defaults(hit_ratio=_H_PRIME, cache_size=10.0)
        alphas = np.linspace(0.0, 1.0, 11)
        bracketing_holds = True
        g_a = float(np.asarray(ModelA(params).improvement_closed_form(n_f, p)))
        g_b = float(np.asarray(ModelB(params).improvement_closed_form(n_f, p)))
        lo, hi = min(g_a, g_b), max(g_a, g_b)
        ab_rows = []
        for row in map(_ab_row, alphas):
            g_ab = row[2]
            inside = lo - 1e-12 <= g_ab <= hi + 1e-12
            bracketing_holds &= inside
            ab_rows.append(row + [inside])
        result.tables.append(
            (
                "model AB interpolation (alpha=0 -> A, alpha=1 -> B)",
                ["alpha", "p_th(AB)", "G_AB", "within [G_A, G_B]"],
                ab_rows,
            )
        )
        result.notes.append(f"AB bracketing holds for all alpha: {bracketing_holds}")
        return result
