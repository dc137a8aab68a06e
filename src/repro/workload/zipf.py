"""Zipf-distributed item popularity.

Web and file accesses are famously Zipf-like; the full simulation uses a
Zipf catalogue as its default stationary reference stream.  The class
exposes the *true* probabilities, which the validation experiments feed to
:class:`repro.predictors.oracle.DistributionOracle` so measured quantities
can be compared against the analysis with no estimation error in between.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError

__all__ = ["ZipfCatalog", "shared_catalog"]


class ZipfCatalog:
    """A finite catalogue with Zipf(α) popularity.

    ``P(item i) ∝ 1/(i+1)^α`` for ``i = 0..num_items−1`` (truncated Zipf —
    unlike ``numpy.random.zipf`` the support is finite, which a cache
    simulation needs).

    Parameters
    ----------
    num_items:
        Catalogue size ≥ 1.
    exponent:
        Skew α ≥ 0; 0 = uniform, ~0.8–1.2 is typical for web traces.

    Examples
    --------
    >>> cat = ZipfCatalog(num_items=100, exponent=1.0)
    >>> cat.probability(0) > cat.probability(50)
    True
    >>> abs(float(sum(cat.probabilities)) - 1.0) < 1e-12
    True
    """

    __slots__ = ("num_items", "exponent", "_probs", "_cumulative")

    def __init__(self, num_items: int, exponent: float = 1.0) -> None:
        if num_items < 1:
            raise ParameterError(f"num_items must be >= 1, got {num_items!r}")
        if exponent < 0:
            raise ParameterError(f"exponent must be >= 0, got {exponent!r}")
        self.num_items = int(num_items)
        self.exponent = float(exponent)
        ranks = np.arange(1, self.num_items + 1, dtype=float)
        weights = ranks ** (-self.exponent)
        self._probs = weights / weights.sum()
        self._cumulative = np.cumsum(self._probs)

    @property
    def probabilities(self) -> np.ndarray:
        """True per-item probabilities, index = item id (most popular = 0)."""
        return self._probs.copy()

    def probability(self, item: int) -> float:
        if not 0 <= item < self.num_items:
            return 0.0
        return float(self._probs[item])

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw item ids i.i.d. from the catalogue distribution."""
        if size is not None:
            return self.sample_batch(rng, size)
        return int(np.searchsorted(self._cumulative, rng.random(), side="right"))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` item ids in one vectorized block.

        Consumes the generator's bit stream exactly as ``size`` scalar
        :meth:`sample` calls would (numpy fills ``random(n)`` from the same
        double stream), so batch and per-draw paths are interchangeable
        mid-stream without perturbing downstream draws — pinned by tests.
        """
        u = rng.random(size)
        return np.searchsorted(self._cumulative, u, side="right").astype(int)

    def zipf_indices(self, uniforms: np.ndarray) -> np.ndarray:
        """Map already-drawn uniforms to item ids (inverse-CDF lookup).

        Lets callers that manage their own uniform blocks (e.g. the Markov
        source's batched generator) share the catalogue's inversion.
        """
        return np.searchsorted(self._cumulative, uniforms, side="right")

    def top(self, k: int) -> list[tuple[int, float]]:
        """The k most popular items with their probabilities."""
        k = min(k, self.num_items)
        return [(i, float(self._probs[i])) for i in range(k)]

    def expected_hit_ratio(self, cache_items: int) -> float:
        """Hit ratio of a cache pinning the ``cache_items`` most popular items.

        For an i.i.d. Zipf stream and a frequency-perfect cache this is the
        probability mass of the top entries — a closed-form ``h′`` used to
        parameterise analytic comparisons.

        .. note::
           This is the *clairvoyant upper bound* (what LFU converges to),
           identical to :func:`repro.analysis.cachemodel.
           optimal_cache_hit_ratio` on this catalogue's pdf.  A real LRU
           cache hits strictly less: use :func:`repro.analysis.cachemodel.
           che_hit_ratio_generalized` (the Che approximation) to predict
           simulated LRU behaviour.
           The gap is measured by ``tests/analysis/test_cachemodel.py``'s
           regression test against a simulated LRU point.
        """
        if cache_items <= 0:
            return 0.0
        return float(self._probs[: min(cache_items, self.num_items)].sum())


@lru_cache(maxsize=64)
def shared_catalog(num_items: int, exponent: float) -> ZipfCatalog:
    """One :class:`ZipfCatalog` per ``(num_items, exponent)``, memoised.

    A catalogue is immutable after construction (probability/cumulative
    arrays are only ever read), so every client with the same parameters
    can safely share one instance.  At 100k+ clients the per-client
    catalogue arrays (~16 bytes × num_items each) dominate build memory;
    sharing collapses that to one copy per distinct parameter pair.
    Callers that need an unshared instance (e.g. to mutate in a test)
    construct :class:`ZipfCatalog` directly.
    """
    return ZipfCatalog(num_items=num_items, exponent=exponent)
