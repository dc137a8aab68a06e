"""Common machinery for the prefetch–cache interaction models (paper §2.2, §3).

The paper derives, for each interaction model, the same chain of quantities;
only the post-prefetch hit ratio ``h(n̄(F), p)`` differs:

1. ``h`` — hit ratio after prefetching ``n̄(F)`` items of probability ``p``
   per request (model A: eq. 7; model B: eq. 15),
2. effective server request rate ``(1 − h + n̄(F)) λ`` — demand fetches plus
   prefetches,
3. utilisation ``ρ = (1 − h + n̄(F)) λ s̄ / b`` (eqs. 8/16),
4. retrieval time ``r̄ = s̄ / (b(1 − ρ))`` (eqs. 9/17),
5. access time ``t̄ = (1 − h) r̄`` (eqs. 10/18),
6. improvement ``G = t̄′ − t̄`` (eqs. 11/19),
7. threshold ``p_th`` making ``G > 0`` (eqs. 13/21).

:class:`PrefetchCacheModel` implements 2–6 *generically* from the subclass's
``hit_ratio``; subclasses additionally provide the paper's closed forms
(``improvement_closed_form``) so the test suite can assert both derivations
agree — a strong regression net for the algebra.

Everything is vectorised over ``n_f`` and ``p`` via numpy broadcasting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core import no_prefetch
from repro.core.parameters import SystemParameters
from repro.core.queueing import OnUnstable, resolve_unstable

__all__ = ["PrefetchCacheModel", "PositivityConditions", "max_np"]


def max_np(p: np.ndarray | float, fault_ratio: float) -> np.ndarray | float:
    """``max(np) = f′/p`` — cap on items with access probability ≥ p (eq. 6).

    Per request, the probability mass available to *future faults* is ``f′``;
    more than ``f′/p`` distinct items each carrying probability ``p`` would
    exceed it.
    """
    p_arr = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        out = fault_ratio / p_arr
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PositivityConditions:
    """The three conditions for ``G > 0`` (paper (12) for A, (20) for B).

    Attributes hold boolean arrays (or scalars) aligned with the broadcast
    shape of the ``(n_f, p)`` inputs:

    ``profitable``
        condition 1 — the numerator of G is positive (``p > p_th``),
    ``demand_stable``
        condition 2 — capacity covers demand fetches (``ρ′ < 1``),
    ``prefetch_stable``
        condition 3 — capacity also covers prefetch traffic (``ρ < 1``).

    The paper proves 2 and 3 are *redundant* given condition 1 and the
    feasibility cap ``n̄(F) ≤ max(np)``; property tests in
    ``tests/core/test_conditions.py`` verify that claim numerically.
    """

    profitable: np.ndarray | bool
    demand_stable: np.ndarray | bool
    prefetch_stable: np.ndarray | bool


class PrefetchCacheModel(ABC):
    """Base class: analytical performance of speculative prefetching.

    Subclasses model how prefetched items displace cache occupants, i.e. the
    map ``(n̄(F), p) → h``.  All other quantities are derived here.

    Parameters
    ----------
    params:
        The system operating point (``b, λ, s̄, h′`` and, for model B,
        ``n̄(C)``).
    """

    #: short machine name ("A", "B", "AB") used in tables and experiment ids
    name: str = "base"

    def __init__(self, params: SystemParameters) -> None:
        self.params = params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.params!r})"

    # ------------------------------------------------------------------
    # Model-specific pieces
    # ------------------------------------------------------------------
    @abstractmethod
    def hit_ratio(
        self, n_f: np.ndarray | float, p: np.ndarray | float
    ) -> np.ndarray | float:
        """Post-prefetch hit ratio ``h`` (eq. 7 / eq. 15)."""

    @abstractmethod
    def threshold(self) -> float:
        """Access-probability threshold ``p_th`` for a positive improvement."""

    @abstractmethod
    def improvement_closed_form(
        self,
        n_f: np.ndarray | float,
        p: np.ndarray | float,
        *,
        on_unstable: OnUnstable = "nan",
    ) -> np.ndarray | float:
        """The paper's closed-form G (eq. 11 / eq. 19), for cross-checking."""

    @abstractmethod
    def n_f_limit(self, p: np.ndarray | float) -> np.ndarray | float:
        """Stability cap on ``n̄(F)`` from condition 3 (below eq. 13 / eq. 22)."""

    # ------------------------------------------------------------------
    # Generic derivations (identical algebra for every model)
    # ------------------------------------------------------------------
    def effective_request_rate(
        self, n_f: np.ndarray | float, p: np.ndarray | float
    ) -> np.ndarray | float:
        """Rate of jobs reaching the server: ``(1 − h + n̄(F)) λ``."""
        h = np.asarray(self.hit_ratio(n_f, p), dtype=float)
        out = (1.0 - h + np.asarray(n_f, dtype=float)) * self.params.request_rate
        if out.ndim == 0:
            return float(out)
        return out

    def utilization(
        self, n_f: np.ndarray | float, p: np.ndarray | float
    ) -> np.ndarray | float:
        """``ρ = (1 − h + n̄(F)) λ s̄ / b`` (eq. 8 / eq. 16)."""
        rate = np.asarray(self.effective_request_rate(n_f, p), dtype=float)
        out = rate * self.params.service_time
        if out.ndim == 0:
            return float(out)
        return out

    def retrieval_time(
        self,
        n_f: np.ndarray | float,
        p: np.ndarray | float,
        *,
        on_unstable: OnUnstable = "nan",
    ) -> np.ndarray | float:
        """``r̄ = s̄ / (b(1 − ρ))`` (eq. 9 / eq. 17)."""
        rho = np.asarray(self.utilization(n_f, p), dtype=float)
        stable = rho < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            r = self.params.mean_item_size / (self.params.bandwidth * (1.0 - rho))
        return resolve_unstable(r, stable, on_unstable, context=f"model {self.name} r_bar")

    def access_time(
        self,
        n_f: np.ndarray | float,
        p: np.ndarray | float,
        *,
        on_unstable: OnUnstable = "nan",
    ) -> np.ndarray | float:
        """``t̄ = (1 − h) r̄`` (eq. 10 / eq. 18)."""
        h = np.asarray(self.hit_ratio(n_f, p), dtype=float)
        r = np.asarray(
            self.retrieval_time(n_f, p, on_unstable=on_unstable), dtype=float
        )
        out = (1.0 - h) * r
        if out.ndim == 0:
            return float(out)
        return out

    def improvement(
        self,
        n_f: np.ndarray | float,
        p: np.ndarray | float,
        *,
        on_unstable: OnUnstable = "nan",
    ) -> np.ndarray | float:
        """Access improvement ``G = t̄′ − t̄`` (eq. 1), derived generically.

        Positive G means prefetching *helped*.  Subclasses' closed forms
        (eqs. 11/19) must agree with this; the test suite enforces it.
        """
        t_prime = no_prefetch.access_time(self.params, on_unstable=on_unstable)
        t = np.asarray(self.access_time(n_f, p, on_unstable=on_unstable), dtype=float)
        out = t_prime - t
        if out.ndim == 0:
            return float(out)
        return out

    def excess_cost(
        self,
        n_f: np.ndarray | float,
        p: np.ndarray | float,
        *,
        on_unstable: OnUnstable = "nan",
    ) -> np.ndarray | float:
        """Excess retrieval cost ``C = (ρ − ρ′)/(λ(1 − ρ)(1 − ρ′))`` (eq. 27)."""
        from repro.core.excess_cost import excess_cost as _excess_cost

        rho = self.utilization(n_f, p)
        return _excess_cost(
            rho,
            self.params.base_utilization,
            self.params.request_rate,
            on_unstable=on_unstable,
        )

    # ------------------------------------------------------------------
    # Feasibility and positivity
    # ------------------------------------------------------------------
    def max_np(self, p: np.ndarray | float) -> np.ndarray | float:
        """``max(np) = f′/p`` (eq. 6)."""
        return max_np(p, self.params.fault_ratio)

    def feasible(
        self, n_f: np.ndarray | float, p: np.ndarray | float
    ) -> np.ndarray | bool:
        """Whether ``0 ≤ n̄(F) ≤ max(np)`` and probabilities are valid.

        Inside this region the post-prefetch hit ratio stays in ``[0, 1]``
        for both models, so every derived formula is probabilistically
        meaningful.
        """
        n_f_arr = np.asarray(n_f, dtype=float)
        p_arr = np.asarray(p, dtype=float)
        cap = np.asarray(self.max_np(p_arr), dtype=float)
        out = (n_f_arr >= 0.0) & (p_arr > 0.0) & (p_arr <= 1.0) & (n_f_arr <= cap)
        if out.ndim == 0:
            return bool(out)
        return out

    def conditions(
        self, n_f: np.ndarray | float, p: np.ndarray | float
    ) -> PositivityConditions:
        """Evaluate the paper's three positivity conditions ((12) / (20))."""
        p_arr = np.asarray(p, dtype=float)
        n_f_arr = np.asarray(n_f, dtype=float)
        profitable = p_arr > self.threshold()
        demand_stable = np.broadcast_to(
            np.asarray(self.params.base_utilization < 1.0), profitable.shape
        ) if profitable.ndim else np.asarray(self.params.base_utilization < 1.0)
        rho = np.asarray(self.utilization(n_f_arr, p_arr), dtype=float)
        prefetch_stable = rho < 1.0
        if profitable.ndim == 0:
            return PositivityConditions(
                profitable=bool(profitable),
                demand_stable=bool(demand_stable),
                prefetch_stable=bool(prefetch_stable),
            )
        return PositivityConditions(
            profitable=profitable,
            demand_stable=np.asarray(demand_stable, dtype=bool),
            prefetch_stable=prefetch_stable,
        )
