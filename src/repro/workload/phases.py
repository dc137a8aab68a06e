"""Time-varying workload phases (flash crowds, diurnal cycles, shifts).

The paper evaluates prefetching under *stationary* load, but the claims
that matter operationally — does the threshold rule still help when the
request rate triples for a minute? — need non-stationary demand.  A
:class:`PhaseSpec` describes one regime of a piecewise-stationary
workload; a sequence of phases (``WorkloadSpec.phases``) repeats
cyclically for the whole run, each phase scaling the arrival rate
(``rate_multiplier``) and optionally reshaping the reference stream
(``zipf_exponent`` override, ``popularity_shift`` hot-set rotation).

Semantics
---------
* **Arrivals** form a piecewise-homogeneous Poisson process: within a
  phase of multiplier ``m`` a client at base rate λ draws
  ``Exp(1/(m·λ))`` gaps; a drawn arrival that would cross the phase
  boundary is discarded and the draw restarts *at the boundary* at the
  new phase's rate — exactly correct by the exponential's memorylessness.
  A schedule with a **single** phase therefore degenerates to a constant
  rate whose draws are bit-identical to a spec with ``request_rate``
  scaled by ``m`` (pinned by tests).
* **Items**: phases that override ``zipf_exponent`` or set a
  ``popularity_shift`` get their own reference source (an *item
  variant*), fed from a dedicated RNG stream per variant so switching
  phases never perturbs another variant's draw sequence.  A
  ``popularity_shift`` rotates item identity — rank ``r``'s popularity
  moves to item ``(r + shift) mod N`` — which models a working-set
  change (the old hot set goes cold) without changing the popularity
  *law*; a full-catalogue shift makes every cache effectively cold, the
  declarative stand-in for a cache-cold restart.
* A stationary workload (``phases=None``) is one neutral phase,
  :data:`STATIONARY`, run by the same code as a phased one.

:func:`arrival_times` is the one arrival law: the simulation's driver
and :func:`~repro.workload.sessions.generate_trace` both draw from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import floor, inf

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.zipf import ZipfCatalog, shared_catalog

__all__ = [
    "PhaseSpec",
    "PhaseSchedule",
    "ShiftedCatalog",
    "shared_phase_catalog",
    "PhasedSourceView",
    "STATIONARY",
    "UNIT_BLOCK",
    "arrival_times",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One regime of a piecewise-stationary workload.

    Attributes
    ----------
    duration:
        Length of the phase in simulation time (> 0).  The phase list
        repeats cyclically until the run ends.
    rate_multiplier:
        Arrival-rate scale during this phase (> 0); each client's base
        rate λ becomes ``rate_multiplier · λ``.
    zipf_exponent:
        Optional override of the catalogue skew during this phase
        (``None`` → the workload's own exponent).
    popularity_shift:
        Rotate item popularity by this many ranks: the item that held
        rank ``r`` is replaced by ``(r + shift) mod catalog_size``.
        Models regional/working-set shift; 0 = no change.
    """

    duration: float
    rate_multiplier: float = 1.0
    zipf_exponent: float | None = None
    popularity_shift: int = 0

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ConfigurationError(
                f"phase duration must be > 0, got {self.duration!r}"
            )
        if not self.rate_multiplier > 0:
            raise ConfigurationError(
                f"phase rate_multiplier must be > 0, got {self.rate_multiplier!r}"
            )
        if self.zipf_exponent is not None and self.zipf_exponent < 0:
            raise ConfigurationError(
                f"phase zipf_exponent must be >= 0, got {self.zipf_exponent!r}"
            )
        if not isinstance(self.popularity_shift, int) or isinstance(
            self.popularity_shift, bool
        ):
            raise ConfigurationError(
                f"phase popularity_shift must be an int, "
                f"got {self.popularity_shift!r}"
            )

    @property
    def item_key(self) -> tuple:
        """What makes this phase's *reference stream* distinct.

        Phases sharing an item key share one source (and RNG stream);
        the base key ``(None, 0)`` is the workload's own stream.
        """
        return (self.zipf_exponent, self.popularity_shift)


class PhaseSchedule:
    """Resolved timing/variant structure of a phase list.

    Built once per run (per simulation, per trace generation); the hot
    lookups — which phase covers time ``t``, when it ends, which item
    variant it uses — are array-free arithmetic on precomputed
    boundaries.  The schedule cycles: time ``t`` maps to phase
    ``t mod cycle``.
    """

    __slots__ = (
        "phases",
        "cycle",
        "_bounds",
        "multipliers",
        "variant_keys",
        "variant_of_phase",
    )

    def __init__(self, phases) -> None:
        phases = tuple(phases)
        if not phases:
            raise ConfigurationError("a phase schedule needs at least one phase")
        if not all(isinstance(p, PhaseSpec) for p in phases):
            raise ConfigurationError("phase schedule entries must be PhaseSpec")
        self.phases = phases
        bounds = []
        acc = 0.0
        for p in phases:
            acc += float(p.duration)
            bounds.append(acc)
        self.cycle = acc
        self._bounds = tuple(bounds)
        self.multipliers = tuple(float(p.rate_multiplier) for p in phases)
        # Item variants: one per distinct item key, in first-appearance
        # order.  The base key (no item change) is variant 0 when present
        # so its RNG stream keeps the unphased name.
        keys: list[tuple] = []
        base = (None, 0)
        if any(p.item_key == base for p in phases):
            keys.append(base)
        for p in phases:
            if p.item_key not in keys:
                keys.append(p.item_key)
        self.variant_keys = tuple(keys)
        self.variant_of_phase = tuple(keys.index(p.item_key) for p in phases)

    # ------------------------------------------------------------------
    def average_multiplier(self) -> float:
        """Time-averaged rate multiplier over one cycle (offered load)."""
        weighted = sum(
            float(p.duration) * m for p, m in zip(self.phases, self.multipliers)
        )
        return weighted / self.cycle

    def locate(self, t: float) -> tuple[int, float]:
        """``(phase index, absolute end time)`` of the phase covering ``t``.

        A single-phase schedule never ends (``end = inf``), so
        :func:`arrival_times` never restarts a stationary process.  A
        boundary instant belongs to the phase it *starts*.
        """
        if len(self.phases) == 1:
            return 0, inf
        cycles = floor(t / self.cycle)
        r = t - cycles * self.cycle
        if r >= self.cycle:  # float guard: t an exact multiple of cycle
            cycles += 1
            r = 0.0
        base = cycles * self.cycle
        for idx, bound in enumerate(self._bounds):
            if r < bound:
                return idx, base + bound
        return len(self.phases) - 1, base + self.cycle  # pragma: no cover

    def variant_at(self, t: float) -> int:
        """Item-variant index active at time ``t``."""
        if len(self.variant_keys) == 1:
            return 0
        idx, _ = self.locate(t)
        return self.variant_of_phase[idx]

    def stream_names(self, prefix: str) -> tuple[str, ...]:
        """One RNG stream name per item variant.

        The base variant keeps the unphased name (``prefix``), so a
        schedule that never reshapes items draws from the exact stream
        the unphased run would; other variants get dedicated suffixed
        streams that nothing else reads.
        """
        return tuple(
            prefix if key == (None, 0) else f"{prefix}@phase-variant{v}"
            for v, key in enumerate(self.variant_keys)
        )

    def variant_catalogs(
        self, *, catalog_size: int, zipf_exponent: float
    ) -> tuple[ZipfCatalog, ...]:
        """One catalogue per item variant (memoised; base variant shares
        the workload's own :func:`~repro.workload.zipf.shared_catalog`)."""
        return tuple(
            shared_phase_catalog(
                int(catalog_size),
                float(zipf_exponent if key[0] is None else key[0]),
                int(key[1]),
            )
            for key in self.variant_keys
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PhaseSchedule {len(self.phases)} phase(s) cycle={self.cycle:g} "
            f"variants={len(self.variant_keys)}>"
        )


# ----------------------------------------------------------------------
# Popularity rotation
# ----------------------------------------------------------------------
class ShiftedCatalog(ZipfCatalog):
    """A Zipf catalogue whose item *identities* are rotated by ``shift``.

    Rank ``r``'s probability mass belongs to item ``(r + shift) mod N``:
    the popularity law (and therefore hit-ratio physics) is unchanged,
    but the concrete hot items move — which is exactly what a regional
    or working-set shift does to a cache full of yesterday's hot set.
    """

    __slots__ = ("shift",)

    def __init__(self, num_items: int, exponent: float, shift: int) -> None:
        super().__init__(num_items, exponent)
        self.shift = int(shift) % self.num_items

    def _rotate(self, ranks):
        return (ranks + self.shift) % self.num_items

    def sample(self, rng, size=None):
        if size is not None:
            return self.sample_batch(rng, size)
        return int((super().sample(rng) + self.shift) % self.num_items)

    def sample_batch(self, rng, size):
        return self._rotate(super().sample_batch(rng, size))

    def zipf_indices(self, uniforms):
        return self._rotate(super().zipf_indices(uniforms))

    def probability(self, item: int) -> float:
        if not 0 <= item < self.num_items:
            return 0.0
        return super().probability((item - self.shift) % self.num_items)

    @property
    def probabilities(self):
        return np.roll(super().probabilities, self.shift)

    def top(self, k: int):
        return [
            ((rank + self.shift) % self.num_items, p)
            for rank, p in super().top(k)
        ]


@lru_cache(maxsize=128)
def shared_phase_catalog(
    num_items: int, exponent: float, shift: int
) -> ZipfCatalog:
    """Memoised catalogue for one ``(size, exponent, shift)`` variant.

    ``shift == 0`` returns the plain :func:`shared_catalog` instance, so
    the base variant is *the same object* the unphased path uses.
    """
    if shift % num_items == 0:
        return shared_catalog(num_items, exponent)
    return ShiftedCatalog(num_items, exponent, shift)


#: A stationary workload: one neutral phase, which never ends (``locate``
#: of a one-phase schedule).  Its duration is finite only so that
#: :meth:`PhaseSchedule.average_multiplier` is 1.0, not ``inf / inf``.
STATIONARY = PhaseSchedule((PhaseSpec(duration=1.0),))

#: Most Exp(1) units :func:`arrival_times` draws at once.  Blocks grow
#: 1, 2, 4, … up to this cap, so an entity that arrives once in a run
#: draws one unit, and an arriving entity holds at most this many floats.
UNIT_BLOCK = 16


def arrival_times(schedule: PhaseSchedule, rate: float, rng, *, horizon: float):
    """Arrivals ``(time, phase index)`` of a piecewise-Poisson process.

    From ``t = 0`` to the last arrival ``<= horizon``.  In a phase of
    multiplier ``m`` a gap is one Exp(1) unit scaled by ``1 / (rate *
    m)``.  The one gap that would cross the phase's end is dropped, and
    the process restarts *at the boundary* at the new phase's rate —
    exact by memorylessness.  Units drawn past the horizon belong to
    ``rng`` alone, so it must be a dedicated stream.

    Bit-exact with a chain of scalar ``PoissonArrivals(rate * m)``
    draws: ``rng.exponential(1.0, n)`` consumes the bit stream as ``n``
    scalar ``rng.exponential(s)`` calls do, each returning ``s`` times
    its unit.  (``standard_exponential(n)`` gives the same units but
    raised a ``paper-point`` benchmark round's peak RSS 0.3%, 10 of 10
    runs on a 2-vCPU x86-64 host.)  The phase is located at ``t = 0``
    and at boundaries only; the chain located it before every draw,
    which agrees wherever ``locate`` is constant inside a phase.
    """
    scales = [1.0 / (rate * m) for m in schedule.multipliers]
    locate = schedule.locate
    t = 0.0
    idx, end = locate(t)
    scale = scales[idx]
    size = 1
    while True:
        for unit in rng.exponential(1.0, size).tolist():
            t2 = t + unit * scale
            if t2 > end:
                if end >= horizon:
                    return
                t = end
            elif t2 > horizon:
                return
            else:
                yield t2, idx
                t = t2
                if t < end:
                    continue
            # At (or, after an arrival, exactly on) a boundary: the next
            # draw belongs to the phase that starts there.
            idx, end = locate(t)
            scale = scales[idx]
        if size < UNIT_BLOCK:
            size *= 2


# ----------------------------------------------------------------------
# Predictor view over per-variant sources
# ----------------------------------------------------------------------
class PhasedSourceView:
    """Clock-aware facade over the per-variant reference sources.

    The ``true-distribution`` predictor (and the value-aware cache's
    ``value_fn``) ask the *source* for next-access probabilities; under
    phases the answer depends on which variant is active now, so this
    view delegates to ``sources[schedule.variant_at(clock())]``.
    """

    __slots__ = ("sources", "schedule", "clock")

    def __init__(self, sources, schedule: PhaseSchedule, clock) -> None:
        self.sources = tuple(sources)
        self.schedule = schedule
        self.clock = clock

    def current(self):
        return self.sources[self.schedule.variant_at(self.clock())]

    @property
    def catalog(self):
        return self.current().catalog

    @property
    def follow_probability(self) -> float:
        return self.current().follow_probability

    def successor(self, item: int) -> int:
        return self.current().successor(item)

    def true_next_probability(self, last_item: int, candidate: int) -> float:
        return self.current().true_next_probability(last_item, candidate)

    def true_distribution(self, last_item: int, *, top: int = 10):
        return self.current().true_distribution(last_item, top=top)
