"""Adaptive network-aware prefetching (Jiang & Kleinrock style [3]).

Jiang & Kleinrock's adaptive scheme tunes prefetch aggressiveness to the
network condition: prefetch more when the network is idle, back off as it
loads up.  We implement the same idea as a utilisation-governed probability
cutoff:

    ``cutoff(ρ̂) = p_min + (p_max − p_min) · clip(ρ̂/ρ_target, 0, 1)``

At ρ̂ = 0 the policy prefetches nearly everything (cutoff ``p_min``); as
estimated utilisation approaches ``ρ_target`` the cutoff rises to ``p_max``
(effectively stopping).  Interestingly, the paper's own result says the
*right* load-aware cutoff is ``p_th = ρ′`` — a straight line in utilisation
— so this heuristic brackets it and the ablation quantifies the gap.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError
from repro.prefetch.policy import CutoffPolicy, PolicyContext

__all__ = ["AdaptiveUtilizationPolicy"]


class AdaptiveUtilizationPolicy(CutoffPolicy):
    """Utilisation-governed probability cutoff.

    Parameters
    ----------
    rho_target:
        Utilisation at which prefetching should fully stop.
    p_min, p_max:
        Cutoff range: items need ``p > cutoff(ρ̂)`` to be prefetched.
    """

    name = "adaptive-utilization"

    def __init__(
        self,
        *,
        rho_target: float = 0.9,
        p_min: float = 0.05,
        p_max: float = 1.0,
    ) -> None:
        if not 0.0 < rho_target <= 1.0:
            raise ParameterError(f"rho_target must be in (0, 1], got {rho_target!r}")
        if not 0.0 <= p_min < p_max <= 1.0:
            raise ParameterError(
                f"need 0 <= p_min < p_max <= 1, got p_min={p_min!r}, p_max={p_max!r}"
            )
        self.rho_target = float(rho_target)
        self.p_min = float(p_min)
        self.p_max = float(p_max)

    def cutoff(self, estimated_utilization: float) -> float:
        """The probability cutoff at the given load estimate."""
        if math.isnan(estimated_utilization):
            return self.p_max  # unknown load: be conservative
        frac = min(max(estimated_utilization / self.rho_target, 0.0), 1.0)
        return self.p_min + (self.p_max - self.p_min) * frac

    def decision_cutoff(self, context: PolicyContext) -> float:
        return self.cutoff(context.load())
