"""Closed-form cache models: the Che-approximation family + a predictor facade.

A DES run of even a small operating point costs seconds; the
characteristic-time approximation of Che, Tung and Wang (and the follow-up
family: the simplified single-T variant, Garetto/Leonardi/Martina's
generalisation to non-LRU policies, and Laoutaris's polynomial short-cut)
answers "what hit ratio does an LRU cache of C items see under this
popularity law?" in microseconds.  :class:`AnalyticPredictor` combines
these closed forms with the paper's M/G/1-PS uplink into an oracle for
prefetch-free operating points, the reference the ``sim-vs-analytic``
experiment checks the simulator against.

The Che approximation
---------------------
Under IRM (independent reference model) traffic with per-item request
probabilities ``pdf``, an LRU cache of ``C`` items evicts item ``i`` iff no
request for ``i`` arrives within the cache's *characteristic time* ``T`` —
the (approximately deterministic) time a new item survives without being
touched.  ``T`` solves the occupancy fixed point

    ``Σ_i (1 − exp(−p_i · T)) = C``                                  (Che)

and the per-item hit ratio follows as ``h_i = 1 − exp(−p_i · T)``.  The
*exact* form excludes the tagged item from its own occupancy equation
(:func:`che_characteristic_time`); the *simplified* form shares one ``T``
across all items (:func:`che_characteristic_time_simplified`) and differs
by O(1/N).  The generalised kernels extend the same fixed point to
FIFO/RANDOM-like policies, and perfect-frequency policies (LFU) collapse
to the top-C probability mass (:func:`optimal_cache_hit_ratio`).

Accuracy caveats (measured, not assumed — the ``sim-vs-analytic``
experiment's model-error table cross-validates all of this against the
DES): the approximation assumes IRM traffic, so Markov-correlated streams
(``follow_probability > 0``) and prefetch-modified caches deviate; finite
measurement windows add cold-start bias the model does not see.

All solvers are vectorised numpy fixed-point iterations with a
``scipy.optimize.fsolve`` fallback for the (rare) points the bracketed
solver cannot converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports analysis)
    from repro.sim.config import SimulationConfig
    from repro.sim.mirror import MirrorConfig

__all__ = [
    "che_characteristic_time",
    "che_per_content_hit_ratio",
    "che_hit_ratio",
    "che_characteristic_time_simplified",
    "che_per_content_hit_ratio_simplified",
    "che_hit_ratio_simplified",
    "che_characteristic_time_generalized",
    "che_per_content_hit_ratio_generalized",
    "che_hit_ratio_generalized",
    "laoutaris_characteristic_time",
    "laoutaris_hit_ratio",
    "optimal_cache_hit_ratio",
    "trace_driven_cache_hit_ratio",
    "AnalyticPrediction",
    "AnalyticPredictor",
    "PredictionUnsupported",
]


class PredictionUnsupported(ParameterError):
    """The operating point has no closed-form model (e.g. trace-driven).

    Such a point can only be simulated; the message says why.
    """


# ----------------------------------------------------------------------
# pdf plumbing
# ----------------------------------------------------------------------
def _validate_pdf(pdf) -> np.ndarray:
    """Return ``pdf`` as a 1-D float array, guarding normalisation.

    A silently unnormalised pdf would bias every characteristic time, so
    deviations beyond float tolerance raise :class:`ParameterError` rather
    than renormalising behind the caller's back.
    """
    arr = np.asarray(pdf, dtype=float).ravel()
    if arr.size == 0:
        raise ParameterError("pdf must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterError("pdf entries must be finite and >= 0")
    total = float(arr.sum())
    if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
        raise ParameterError(
            f"pdf must sum to 1 (got {total!r}); normalise before calling"
        )
    return arr


#: generalised occupancy kernels phi(p, T): probability an item of rate p
#: is resident given characteristic time T (Garetto et al., "A unified
#: approach to the performance analysis of caching systems").
def _phi_lru(p: np.ndarray, T) -> np.ndarray:
    return -np.expm1(-p * T)  # 1 - exp(-pT), precise for small pT


def _phi_fifo(p: np.ndarray, T) -> np.ndarray:
    x = p * T
    return x / (1.0 + x)


#: cache-policy name -> occupancy kernel; ``None`` marks perfect-frequency
#: policies whose steady state is the top-C mass (no characteristic time).
_POLICY_KERNELS: Mapping[str, object] = {
    "lru": _phi_lru,
    "clock": _phi_lru,       # one-bit LRU approximation
    "gds": _phi_lru,         # uniform-size GDS degenerates to LRU dynamics
    "fifo": _phi_fifo,
    "random": _phi_fifo,     # FIFO and RANDOM share the rational kernel
    "lfu": None,
    "value-aware": None,     # oracle-valued cache: frequency-perfect bound
}


def _kernel_for(policy: str):
    try:
        return _POLICY_KERNELS[policy]
    except KeyError:
        raise ParameterError(
            f"no analytic kernel for cache policy {policy!r}; "
            f"known: {sorted(_POLICY_KERNELS)}"
        ) from None


# ----------------------------------------------------------------------
# Characteristic-time solvers
# ----------------------------------------------------------------------
def _solve_T(pdf: np.ndarray, cache_size: float, kernel) -> float:
    """Solve ``Σ_i kernel(p_i, T) = cache_size`` for the shared T.

    The occupancy sum is strictly increasing and concave in ``T`` over the
    positive-probability support, so a doubling bracket plus bisection
    always converges; :func:`scipy.optimize.fsolve` remains as a fallback
    for the defensive case the bracket search fails to enclose a root
    (never observed, but a grid of predictions must not die midway).
    """
    support = pdf[pdf > 0.0]
    if cache_size <= 0.0:
        return 0.0
    if cache_size >= support.size:
        # Every ever-requested item fits: nothing is ever evicted.
        return math.inf

    def occupancy(T: float) -> float:
        return float(np.sum(kernel(support, T)))

    lo, hi = 0.0, max(cache_size, 1.0)
    for _ in range(200):
        if occupancy(hi) >= cache_size:
            break
        lo, hi = hi, hi * 2.0
    else:  # pragma: no cover - bracket failure: delegate to scipy
        try:
            from scipy.optimize import fsolve

            root = float(
                fsolve(lambda t: occupancy(float(t)) - cache_size, cache_size)[0]
            )
            return max(root, 0.0)
        except Exception:
            raise ParameterError(
                f"characteristic-time solve failed (C={cache_size}, "
                f"N={support.size})"
            ) from None
    for _ in range(100):  # bisection to full double precision
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if occupancy(mid) < cache_size:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def che_characteristic_time_simplified(pdf, cache_size: float) -> float:
    """Shared characteristic time T: ``Σ_i (1 − e^{−p_i T}) = C``.

    The simplified variant every aggregate predictor should default to —
    O(N) per solve, and within O(1/N) of the per-item exact form.
    Degenerate caches: ``C ≤ 0 → 0``; ``C ≥ |support|`` → ``inf`` (nothing
    is ever evicted).
    """
    return _solve_T(_validate_pdf(pdf), float(cache_size), _phi_lru)


def che_characteristic_time(pdf, cache_size: float, target: int | None = None):
    """Exact per-item characteristic times ``T_i`` (Che et al.).

    Item ``i``'s time excludes its own occupancy:
    ``Σ_{j≠i} (1 − e^{−p_j T_i}) = C``.  Solved by vectorised Newton from
    the simplified shared T (monotone concave residual ⇒ 3–5 iterations),
    falling back to ``scipy.optimize.fsolve`` for any item that fails to
    converge.  ``target`` restricts the solve to one item id.

    Cost is O(N²) per Newton sweep — prefer
    :func:`che_characteristic_time_simplified` inside predictors.
    """
    p = _validate_pdf(pdf)
    C = float(cache_size)
    if target is not None:
        if not 0 <= target < p.size:
            raise ParameterError(f"target {target!r} outside pdf of {p.size}")
    support_size = int(np.count_nonzero(p > 0.0))
    t0 = che_characteristic_time_simplified(p, C)
    if not math.isfinite(t0) or C <= 0.0:
        out = np.full(p.size, t0)
        return float(out[target]) if target is not None else out
    # Items with p_i = 0 contribute nothing: their exclusion changes
    # nothing, so T_i equals the shared T.
    idx = np.arange(p.size) if target is None else np.asarray([target])
    T = np.full(idx.size, t0, dtype=float)
    p_i = p[idx]
    # Excluding item i removes one occupancy term, so the remaining sum
    # must still reach C: feasible only if C < support_size - [p_i > 0].
    infeasible = C >= support_size - (p_i > 0.0).astype(float)
    converged = np.zeros(idx.size, dtype=bool)
    for _ in range(50):
        # residual g_i(T_i) = S(T_i) - phi(p_i, T_i) - C, vectorised over i
        expm = np.exp(-np.outer(T, p))  # (i, j) = exp(-p_j T_i)
        S = np.sum(1.0 - expm, axis=1)
        g = S - (1.0 - np.exp(-p_i * T)) - C
        dS = np.sum(p * expm, axis=1)
        dg = dS - p_i * np.exp(-p_i * T)
        done = np.abs(g) <= 1e-12 * max(C, 1.0)
        converged |= done
        active = ~converged & ~infeasible & (dg > 0.0)
        if not np.any(active):
            break
        step = np.where(active, g / np.where(dg > 0.0, dg, 1.0), 0.0)
        T = np.maximum(T - step, 0.0)
    T = np.where(infeasible, np.inf, T)
    if not np.all(converged | infeasible):  # pragma: no cover - scipy fallback
        from scipy.optimize import fsolve

        for k in np.flatnonzero(~(converged | infeasible)):
            i = idx[k]

            def residual(t, i=i):
                t = float(np.atleast_1d(t)[0])
                mask = np.arange(p.size) != i
                return float(np.sum(-np.expm1(-p[mask] * t))) - C

            T[k] = max(float(fsolve(residual, t0)[0]), 0.0)
    return float(T[0]) if target is not None else T


def che_per_content_hit_ratio(pdf, cache_size: float) -> np.ndarray:
    """Per-item hit ratios ``h_i = 1 − e^{−p_i T_i}`` (exact per-item T)."""
    p = _validate_pdf(pdf)
    T = che_characteristic_time(p, cache_size)
    with np.errstate(invalid="ignore"):
        h = np.where(np.isinf(T), 1.0, -np.expm1(-p * np.where(np.isinf(T), 0.0, T)))
    return np.where(p > 0.0, h, 0.0)


def che_hit_ratio(pdf, cache_size: float) -> float:
    """Aggregate hit ratio ``h = Σ_i p_i h_i`` under the exact Che form."""
    p = _validate_pdf(pdf)
    # min() guards the float-eps overshoot a pdf summing to 1+ulp leaks
    # into Σ p_i h_i when every item fits.
    return min(float(np.sum(p * che_per_content_hit_ratio(p, cache_size))), 1.0)


def che_per_content_hit_ratio_simplified(pdf, cache_size: float) -> np.ndarray:
    """Per-item hit ratios under the shared-T simplified variant."""
    return che_per_content_hit_ratio_generalized(pdf, cache_size, policy="lru")


def che_hit_ratio_simplified(pdf, cache_size: float) -> float:
    """Aggregate hit ratio under the shared-T simplified variant."""
    return che_hit_ratio_generalized(pdf, cache_size, policy="lru")


def che_characteristic_time_generalized(
    pdf, cache_size: float, policy: str = "lru"
) -> float:
    """Shared T under the occupancy kernel of ``policy``.

    ``lru``/``clock``/``gds`` use the exponential kernel; ``fifo`` and
    ``random`` the rational kernel ``pT/(1+pT)``; perfect-frequency
    policies (``lfu``, ``value-aware``) have no characteristic time —
    requesting one raises :class:`ParameterError` (their hit ratio is
    :func:`optimal_cache_hit_ratio`).
    """
    kernel = _kernel_for(policy)
    if kernel is None:
        raise ParameterError(
            f"policy {policy!r} is frequency-perfect: it has no "
            "characteristic time; use optimal_cache_hit_ratio"
        )
    return _solve_T(_validate_pdf(pdf), float(cache_size), kernel)


def che_per_content_hit_ratio_generalized(
    pdf, cache_size: float, policy: str = "lru"
) -> np.ndarray:
    """Per-item hit ratios under the kernel of ``policy``.

    For the characteristic-time policies, ``h_i = phi(p_i, T)``; for
    frequency-perfect policies the top-C items by probability hit with
    ratio 1 and the rest 0 (ties broken by index, matching
    :func:`optimal_cache_hit_ratio`).
    """
    p = _validate_pdf(pdf)
    kernel = _kernel_for(policy)
    C = float(cache_size)
    if kernel is None:
        h = np.zeros(p.size)
        if C >= 1.0:
            keep = np.argsort(-p, kind="stable")[: int(min(C, p.size))]
            h[keep] = 1.0
        return np.where(p > 0.0, h, 0.0)
    T = _solve_T(p, C, kernel)
    if math.isinf(T):
        return (p > 0.0).astype(float)
    return np.where(p > 0.0, kernel(p, T), 0.0)


def che_hit_ratio_generalized(pdf, cache_size: float, policy: str = "lru") -> float:
    """Aggregate hit ratio ``Σ_i p_i h_i`` under the kernel of ``policy``."""
    p = _validate_pdf(pdf)
    return min(
        float(
            np.sum(p * che_per_content_hit_ratio_generalized(p, cache_size, policy))
        ),
        1.0,
    )


def optimal_cache_hit_ratio(pdf, cache_size: float) -> float:
    """Hit ratio of a clairvoyant frequency-perfect cache: top-C mass.

    The upper bound every replacement policy chases under IRM traffic, and
    the steady state LFU (and the value-aware oracle cache) converges to.
    This is what :meth:`repro.workload.zipf.ZipfCatalog.expected_hit_ratio`
    computes for its own catalogue.
    """
    p = _validate_pdf(pdf)
    C = int(min(max(float(cache_size), 0.0), p.size))
    if C <= 0:
        return 0.0
    return min(float(np.sort(p)[::-1][:C].sum()), 1.0)


def laoutaris_characteristic_time(pdf, cache_size: float, order: int = 3) -> float:
    """Laoutaris's polynomial short-cut to the Che fixed point.

    Expands ``1 − e^{−pT}`` to the second or third Taylor order, turning
    the occupancy equation into a polynomial in T solved in closed form
    (smallest positive real root).  ``order=3`` gives

        ``(Σp³/6)·T³ − (Σp²/2)·T² + T − C = 0``

    Cheap and closed-form, but the truncation overshoots for large
    ``C/N`` — points with no positive real root fall back to the bracketed
    Che solve.
    """
    p = _validate_pdf(pdf)
    C = float(cache_size)
    if order not in (2, 3):
        raise ParameterError(f"order must be 2 or 3, got {order!r}")
    support = p[p > 0.0]
    if C <= 0.0:
        return 0.0
    if C >= support.size:
        return math.inf
    s2 = float(np.sum(support**2))
    s3 = float(np.sum(support**3))
    if order == 2:
        coeffs = [-s2 / 2.0, 1.0, -C]
    else:
        coeffs = [s3 / 6.0, -s2 / 2.0, 1.0, -C]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    positive = np.sort(real[real > 0.0])
    if positive.size == 0:
        return _solve_T(p, C, _phi_lru)
    return float(positive[0])


def laoutaris_hit_ratio(pdf, cache_size: float, order: int = 3) -> float:
    """Aggregate LRU hit ratio with the Laoutaris characteristic time."""
    p = _validate_pdf(pdf)
    T = laoutaris_characteristic_time(p, cache_size, order)
    if math.isinf(T):
        return min(float(np.sum(p[p > 0.0])), 1.0)
    return min(float(np.sum(p * np.where(p > 0.0, -np.expm1(-p * T), 0.0))), 1.0)


def trace_driven_cache_hit_ratio(
    records: Iterable, cache_size: float, policy: str = "lru"
) -> float:
    """Empirical Che hit ratio of a recorded request stream.

    Consumes an iterable of :class:`repro.workload.trace.TraceRecord`
    (or raw item ids) *once*, builds the empirical popularity pdf from the
    observed frequencies, and evaluates the generalised Che model on it —
    so a recorded trace can be assessed without replaying it through the
    DES.  Works with the streaming readers
    (:func:`repro.workload.trace.iter_trace`): memory stays O(distinct
    items).
    """
    counts: dict[int, int] = {}
    total = 0
    for record in records:
        item = getattr(record, "item", record)
        counts[item] = counts.get(item, 0) + 1
        total += 1
    if total == 0:
        raise ParameterError("empty trace: no records to estimate a pdf from")
    pdf = np.asarray(sorted(counts.values(), reverse=True), dtype=float) / total
    return che_hit_ratio_generalized(pdf, cache_size, policy)


# ----------------------------------------------------------------------
# The predictor facade
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnalyticPrediction:
    """Millisecond-cost analytic estimate of one operating point.

    Field names deliberately mirror :class:`~repro.sim.metrics.
    SimulationMetrics`, so a prediction and a simulated point compare
    metric by metric.
    """

    hit_ratio: float
    #: mean per-uplink busy fraction (clipped to 1; see offered_load)
    utilization: float
    mean_access_time: float
    retrieval_time_per_request: float
    mean_demand_retrieval_time: float
    prefetches_per_request: float
    #: unclipped aggregate offered load Σ λ_i s̄ / Σ b_i (>1 = overload)
    offered_load: float
    #: demand fetches/s reaching the origin uplinks
    origin_rate: float


@dataclass
class AnalyticPredictor:
    """Map an operating point (config) to an :class:`AnalyticPrediction`.

    * :class:`~repro.sim.mirror.MirrorConfig` points evaluate the paper's
      own closed forms (model A chain / no-prefetch baseline) — the same
      predictions :func:`repro.sim.validate.mirror_vs_theory` checks.
    * :class:`~repro.sim.config.SimulationConfig` points combine the Che
      family (per-client cache hit ratio under the config's eviction
      policy) with the paper's M/G/1-PS uplink forms, topology-aware:
      per-node demand rates follow the routing mode and per-node
      bandwidth/cache overrides.

    Scope (documented, cross-validated by ``sim-vs-analytic``): IRM
    demand traffic, so only prefetch-free points (``policy="none"``).  A
    prefetching policy, a phased workload or a trace-driven point raises
    :class:`PredictionUnsupported`: such points can only be simulated.

    ``variant`` picks the hit-ratio model: ``"che"`` (shared-T simplified
    fixed point, the default), ``"che-exact"`` (per-item T, O(N²)) or
    ``"laoutaris"`` (polynomial short-cut).
    """

    variant: str = "che"
    _pdf_cache: dict = field(default_factory=dict, repr=False)
    #: memoised (catalog, exponent, capacity, policy) -> hit ratio; grids
    #: repeat these (N clients share a spec; bandwidth sweeps share the
    #: cache point), so most predictions cost a dict lookup, not a solve.
    _hit_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in ("che", "che-exact", "laoutaris"):
            raise ParameterError(
                f"unknown predictor variant {self.variant!r}; "
                "use 'che', 'che-exact' or 'laoutaris'"
            )

    def _cache_hit_ratio(self, pdf: np.ndarray, capacity: float, policy: str) -> float:
        if self.variant == "che-exact" and _kernel_for(policy) is _phi_lru:
            return che_hit_ratio(pdf, capacity)
        if self.variant == "laoutaris" and _kernel_for(policy) is _phi_lru:
            return laoutaris_hit_ratio(pdf, capacity)
        return che_hit_ratio_generalized(pdf, capacity, policy)

    def _catalog_pdf(self, catalog_size: int, exponent: float) -> np.ndarray:
        key = (int(catalog_size), float(exponent))
        pdf = self._pdf_cache.get(key)
        if pdf is None:
            ranks = np.arange(1, int(catalog_size) + 1, dtype=float)
            weights = ranks ** (-float(exponent))
            pdf = weights / weights.sum()
            self._pdf_cache[key] = pdf
        return pdf

    # -- entry point ----------------------------------------------------
    def predict(self, config) -> AnalyticPrediction:
        """Predict one operating point; raises
        :class:`PredictionUnsupported` for points with no closed form."""
        from repro.sim.config import SimulationConfig
        from repro.sim.mirror import MirrorConfig

        if isinstance(config, MirrorConfig):
            return self._predict_mirror(config)
        if isinstance(config, SimulationConfig):
            return self._predict_simulation(config)
        raise PredictionUnsupported(
            f"no analytic model for {type(config).__name__}"
        )

    # -- mirror: the paper's closed forms -------------------------------
    def _predict_mirror(self, config: "MirrorConfig") -> AnalyticPrediction:
        from repro.core import no_prefetch
        from repro.core.excess_cost import retrieval_time_per_request as theory_R
        from repro.core.model_a import ModelA

        params = config.params
        if config.n_f == 0.0:
            h = params.hit_ratio
            t_bar = no_prefetch.access_time(params, on_unstable="nan")
            rho = params.base_utilization
            R = no_prefetch.retrieval_time_per_request(params, on_unstable="nan")
        else:
            model = ModelA(params)
            h = float(np.clip(model.hit_ratio(config.n_f, config.p), 0.0, 1.0))
            t_bar = float(
                model.access_time(config.n_f, config.p, on_unstable="nan")
            )
            rho = float(model.utilization(config.n_f, config.p))
            R = float(theory_R(rho, params.request_rate, on_unstable="nan"))
        r_bar = (
            params.mean_item_size / (params.bandwidth * (1.0 - rho))
            if rho < 1.0
            else math.inf
        )
        return AnalyticPrediction(
            hit_ratio=h,
            utilization=min(rho, 1.0),
            mean_access_time=t_bar,
            retrieval_time_per_request=R,
            mean_demand_retrieval_time=r_bar,
            prefetches_per_request=config.n_f,
            offered_load=rho,
            origin_rate=(1.0 - h) * params.request_rate,
        )

    # -- full system: Che + M/G/1-PS, topology-aware --------------------
    def _predict_simulation(self, config: "SimulationConfig") -> AnalyticPrediction:
        if config.trace_path is not None:
            raise PredictionUnsupported(
                "trace-driven points have no closed-form arrival model; "
                "estimate the stream's hit ratio with "
                "trace_driven_cache_hit_ratio, or simulate"
            )
        spec = config.workload
        if spec.phases is not None:
            raise PredictionUnsupported(
                "phased workloads are piecewise-stationary; the Che/PS "
                "closed forms assume one stationary regime — simulate, or "
                "predict the stationary twin (phases=None, request_rate "
                "scaled by the schedule's average multiplier)"
            )
        if config.policy != "none":
            raise PredictionUnsupported(
                f"policy {config.policy!r} prefetches; the Che/PS closed "
                "forms model demand traffic only — simulate"
            )
        topo = config.topology
        s_bar = spec.mean_item_size
        num_nodes = topo.num_proxies

        # Per-client hit ratio from the client's own catalogue view and
        # the capacity of the node it homes at (override-aware).
        rates = np.zeros(spec.num_clients)
        misses = np.zeros(spec.num_clients)
        home = np.zeros(spec.num_clients, dtype=int)
        for c in range(spec.num_clients):
            rates[c] = spec.rate_of(c)
            home[c] = topo.home_of(c)
            catalog = int(spec.client_param(c, "catalog_size"))
            exponent = float(spec.client_param(c, "zipf_exponent"))
            capacity = topo.node_cache_capacity(home[c], config.cache_capacity)
            key = (catalog, exponent, capacity, config.cache_policy, self.variant)
            h_c = self._hit_cache.get(key)
            if h_c is None:
                h_c = self._cache_hit_ratio(
                    self._catalog_pdf(catalog, exponent),
                    capacity,
                    config.cache_policy,
                )
                self._hit_cache[key] = h_c
            misses[c] = rates[c] * (1.0 - h_c)
        total_rate = float(rates.sum())
        miss_rate = float(misses.sum())
        h = 1.0 - miss_rate / total_rate

        # Route misses onto per-node uplinks: client-affinity sends a
        # client's misses through its home node; item-hash spreads them
        # (approximately) uniformly over the ring owners.
        node_rate = np.zeros(num_nodes)
        if topo.routing == "item-hash" and num_nodes > 1:
            node_rate[:] = miss_rate / num_nodes
        else:
            np.add.at(node_rate, home, misses)
        node_bw = np.asarray(
            [topo.node_bandwidth(n, config.bandwidth) for n in range(num_nodes)]
        )
        rho = node_rate * s_bar / node_bw
        with np.errstate(divide="ignore"):
            r_bar = np.where(rho < 1.0, s_bar / (node_bw * (1.0 - rho)), np.inf)
        # t̄ averages each miss's sojourn over ALL requests (hits cost 0);
        # for prefetch-free points R (retrieval per request) equals t̄.
        weighted = float(np.sum(node_rate * r_bar))
        t_bar = weighted / total_rate
        mean_r = weighted / miss_rate if miss_rate > 0.0 else 0.0
        return AnalyticPrediction(
            hit_ratio=h,
            utilization=float(np.mean(np.minimum(rho, 1.0))),
            mean_access_time=t_bar,
            retrieval_time_per_request=t_bar,
            mean_demand_retrieval_time=mean_r,
            prefetches_per_request=0.0,
            offered_load=float(np.sum(node_rate) * s_bar / np.sum(node_bw)),
            origin_rate=miss_rate,
        )
