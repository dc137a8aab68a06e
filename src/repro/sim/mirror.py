"""Analytic-mirror simulation: the paper's model, verbatim, as a DES.

This simulation implements §2–§3's *assumptions* directly, so its measured
statistics must match the closed forms — it is the executable proof that
eqs. (4), (5), (8)–(11) and (25)–(27) describe the queueing system they
claim to describe:

* requests arrive Poisson(λ);
* each request is a cache hit with probability ``h = h′ + n̄(F)·p``
  (model A's eq. 7 taken as given — the mirror validates the *queueing*
  chain, the full simulation in :mod:`repro.sim.simulation` exercises the
  cache dynamics behind eq. 7);
* a miss demand-fetches one item of mean size s̄ through the shared
  PS link; the access time is that retrieval time;
* every request additionally issues prefetches: ``⌊n̄(F)⌋`` plus one more
  with probability ``frac(n̄(F))``, each of mean size s̄.

Measured outputs: t̄ (mean access time), r̄ (retrieval time), ρ (busy
fraction), R (retrieval time per request).  Compare with
:func:`repro.sim.validate.mirror_vs_theory`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model_a import hit_ratio as model_a_hit_ratio
from repro.core.parameters import SystemParameters
from repro.des.environment import Environment
from repro.des.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.network.link import SharedLink
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.workload.sizes import ExponentialSize, SizeDistribution

__all__ = ["MirrorConfig", "run_mirror"]


@dataclass(frozen=True)
class MirrorConfig:
    """Operating point for the analytic mirror.

    ``params`` carries (b, λ, s̄, h′); ``n_f`` and ``p`` are the prefetch
    knobs of Figures 2–3.  ``size_distribution`` defaults to exponential
    (M/M/1-PS) purely for variance; any distribution with mean s̄ gives the
    same means by PS insensitivity (tested with Pareto).
    """

    params: SystemParameters
    n_f: float = 0.0
    p: float = 0.0
    duration: float = 400.0
    warmup: float = 40.0
    seed: int = 0
    size_distribution: SizeDistribution | None = None
    #: How prefetch jobs enter the link relative to their triggering request:
    #:
    #: ``"independent"`` (default)
    #:     a separate Poisson stream of rate ``n̄(F)·λ`` — exactly the
    #:     arrival model the paper's M/G/1 analysis assumes (the effective
    #:     job stream of rate ``(1−h+n̄(F))λ`` is treated as Poisson of
    #:     independent jobs);
    #: ``"jittered"``
    #:     issued per request after an i.i.d. Exp(1/λ) delay — Poisson by
    #:     the displacement theorem, but still correlated with the demand
    #:     stream at the service timescale (a few % residual inflation);
    #: ``"batched"``
    #:     issued at the exact instant of the triggering request —
    #:     physically faithful; batch arrivals inflate sojourn times
    #:     ~15–25% above eq. (2).
    #:
    #: The ``sim-vs-analytic`` experiment quantifies the gap between these
    #: modes — an honest caveat on the paper's independence assumption.
    prefetch_timing: str = "independent"

    def __post_init__(self) -> None:
        if self.n_f < 0:
            raise ConfigurationError(f"n_f must be >= 0, got {self.n_f!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {self.p!r}")
        if self.duration <= self.warmup:
            raise ConfigurationError("duration must exceed warmup")
        h = model_a_hit_ratio(self.params, self.n_f, self.p)
        if h > 1.0 + 1e-9:
            raise ConfigurationError(
                f"h = h' + n_f*p = {h:.3f} > 1; infeasible (violates eq. 6 cap)"
            )
        if self.prefetch_timing not in ("independent", "jittered", "batched"):
            raise ConfigurationError(
                f"prefetch_timing must be 'independent', 'jittered' or "
                f"'batched', got {self.prefetch_timing!r}"
            )


def run_mirror(config: MirrorConfig) -> SimulationMetrics:
    """Execute the mirror and return post-warmup measurements."""
    params = config.params
    streams = RandomStreams(config.seed)
    arrival_rng = streams.get("arrivals")
    coin_rng = streams.get("hit-coins")
    size_rng = streams.get("sizes")
    sizes = config.size_distribution or ExponentialSize(params.mean_item_size)

    env = Environment()
    link = SharedLink(env, bandwidth=params.bandwidth)
    collector = MetricsCollector(env, link, warmup_time=config.warmup)
    collector.arm_warmup()

    h = float(np.clip(model_a_hit_ratio(params, config.n_f, config.p), 0.0, 1.0))
    n_f_whole = int(np.floor(config.n_f))
    n_f_frac = config.n_f - n_f_whole

    def demand_fetch(size):
        t0 = env.now
        result = yield link.fetch(item=None, size=size, kind="demand", client=0)
        collector.record_request(hit=False, access_time=env.now - t0, issued_at=t0)
        collector.record_retrieval(
            result.retrieval_time, issued_at=result.request.issued_at
        )

    def prefetch_fetch(size, delay):
        if delay > 0.0:
            yield env.timeout(delay)
        result = yield link.fetch(item=None, size=size, kind="prefetch", client=0)
        collector.record_retrieval(
            result.retrieval_time, prefetch=True, issued_at=result.request.issued_at
        )

    def request(event):
        # Armed before this request's fetches start, so an arrival tied
        # with one of their link events comes first.
        env.call_at(
            env.now + arrival_rng.exponential(1.0 / params.request_rate), request
        )
        # The user request itself
        if coin_rng.random() < h:
            collector.record_request(hit=True, access_time=0.0, issued_at=env.now)
        else:
            env.start(demand_fetch(float(sizes.sample(size_rng))))
        if config.prefetch_timing == "independent":
            return  # prefetches come from their own source
        count = n_f_whole + (1 if coin_rng.random() < n_f_frac else 0)
        for _ in range(count):
            collector.record_prefetch_issued()
            delay = (
                float(coin_rng.exponential(1.0 / params.request_rate))
                if config.prefetch_timing == "jittered"
                else 0.0
            )
            env.start(prefetch_fetch(float(sizes.sample(size_rng)), delay))

    env.call_at(arrival_rng.exponential(1.0 / params.request_rate), request)
    # Prefetches of the independent timing: their own Poisson stream at
    # rate n̄(F)·λ.
    rate = config.n_f * params.request_rate
    if config.prefetch_timing == "independent" and rate > 0:
        prefetch_rng = streams.get("prefetch-arrivals")

        def prefetch(event):
            env.call_at(env.now + prefetch_rng.exponential(1.0 / rate), prefetch)
            collector.record_prefetch_issued()
            env.start(prefetch_fetch(float(sizes.sample(size_rng)), 0.0))

        env.call_at(prefetch_rng.exponential(1.0 / rate), prefetch)
    env.run(until=config.duration)
    return collector.finalize()
