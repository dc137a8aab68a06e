"""Markov reference-stream generator with controllable predictability.

The paper's analysis assumes the prefetcher is offered items with known
access probability ``p``.  To create a workload where that premise holds
*by construction*, this source draws the next item as:

* with probability ``q`` — follow the item's designated successor chain
  (the predictable component a Markov/PPM predictor can learn),
* with probability ``1 − q`` — draw fresh from a Zipf catalogue (noise).

So after observing item ``i``, the true next-access distribution is
``q`` on ``succ(i)`` plus ``(1−q)·zipf`` elsewhere — i.e. the successor's
probability is tunable through ``q``, letting experiments place candidate
probabilities precisely above or below the threshold ``p_th``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.workload.zipf import ZipfCatalog

__all__ = ["MarkovChainSource"]


class MarkovChainSource:
    """Zipf-modulated deterministic-successor Markov source.

    Parameters
    ----------
    catalog:
        The item universe and its popularity skew.
    follow_probability:
        q ∈ [0, 1] — probability of following the successor chain.
    successor_shift:
        ``succ(i) = (i + shift) mod N``; a fixed permutation keeps the true
        transition matrix known in closed form.
    rng:
        Generator for the random draws.
    """

    __slots__ = (
        "catalog",
        "follow_probability",
        "successor_shift",
        "_rng",
        "_current",
        "_dist_cache",
    )

    def __init__(
        self,
        catalog: ZipfCatalog,
        *,
        follow_probability: float = 0.8,
        successor_shift: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= follow_probability <= 1.0:
            raise ParameterError(
                f"follow_probability must be in [0, 1], got {follow_probability!r}"
            )
        if successor_shift % catalog.num_items == 0:
            raise ParameterError("successor_shift must not be a multiple of num_items")
        self.catalog = catalog
        self.follow_probability = float(follow_probability)
        self.successor_shift = int(successor_shift)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._current: int | None = None
        # The transition structure is immutable after construction, so the
        # per-state true distribution is cached: predictors query it on
        # every request, which otherwise dominates full-system run time.
        self._dist_cache: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def successor(self, item: int) -> int:
        return (item + self.successor_shift) % self.catalog.num_items

    def next_item(self) -> int:
        """Generate the next access."""
        if (
            self._current is not None
            and self._rng.random() < self.follow_probability
        ):
            item = self.successor(self._current)
        else:
            item = self.catalog.sample(self._rng)
        self._current = item
        return item

    def generate(self, count: int) -> list[int]:
        """Generate ``count`` accesses using vectorized uniform blocks.

        Bit-identical to ``[self.next_item() for _ in range(count)]``
        *including* the generator's state afterwards (pinned by tests):
        uniforms are drawn in numpy blocks sized to a lower bound of the
        remaining demand — each step needs one follow-check draw plus one
        catalogue draw when the chain is not followed, so a block of
        ``remaining`` uniforms is never an overdraw — and the catalogue's
        inverse-CDF lookup runs once per block instead of once per miss.
        The per-item loop then only indexes precomputed arrays, which is
        what makes bulk trace generation several times faster than the
        per-draw path.
        """
        if count <= 0:
            return []
        rng = self._rng
        q = self.follow_probability
        num_items = self.catalog.num_items
        shift = self.successor_shift
        out: list[int] = []
        current = self._current
        #: the next uniform in the stream is a committed catalogue draw
        #: (true initially when there is no chain state to follow)
        need_catalog_draw = current is None
        remaining = count
        while remaining > 0:
            block = rng.random(remaining)
            indices = self.catalog.zipf_indices(block)
            pos = 0
            size = remaining  # == len(block)
            while pos < size:
                if need_catalog_draw:
                    current = int(indices[pos])
                    pos += 1
                    out.append(current)
                    remaining -= 1
                    need_catalog_draw = False
                elif block[pos] < q:
                    pos += 1
                    current = (current + shift) % num_items
                    out.append(current)
                    remaining -= 1
                else:
                    # Chain not followed: the catalogue draw is the next
                    # uniform — possibly in the next block.
                    pos += 1
                    if pos < size:
                        current = int(indices[pos])
                        pos += 1
                        out.append(current)
                        remaining -= 1
                    else:
                        need_catalog_draw = True
        self._current = current
        return out

    def stream(self, block: int = 256):
        """Endless item iterator over vectorized generation blocks.

        The consumers that draw one item at a time (the live simulation's
        arrival driver, trace generation) iterate this instead of calling
        :meth:`next_item` per request: the source's RNG stream is dedicated,
        so pre-generating items consumes it exactly as per-draw calls
        would, and trailing unconsumed items at the end of a run touch
        state nothing else reads.

        Blocks grow 1, 2, 4, … up to ``block`` items: a client that makes
        one request in a run generates one item, not ``block``.  Back-to-back
        :meth:`generate` calls are bit-identical to one call of their total
        size, so the block sizes never change the items.
        """
        size = 1
        while True:
            yield from self.generate(size)
            if size < block:
                size = min(2 * size, block)

    # ------------------------------------------------------------------
    # Ground truth (what an ideal predictor would report)
    # ------------------------------------------------------------------
    def true_next_probability(self, last_item: int, candidate: int) -> float:
        """Exact ``P(next = candidate | current = last_item)``."""
        q = self.follow_probability
        base = (1.0 - q) * self.catalog.probability(candidate)
        if candidate == self.successor(last_item):
            return q + base
        return base

    def true_distribution(self, last_item: int, *, top: int = 10) -> list[tuple[int, float]]:
        """The true next-access distribution's ``top`` heaviest entries.

        Cached per ``(last_item, top)``; callers must treat the returned
        list as read-only.
        """
        key = (last_item, top)
        cached = self._dist_cache.get(key)
        if cached is not None:
            return cached
        succ = self.successor(last_item)
        candidates = {succ} | {i for i, _ in self.catalog.top(top)}
        dist = [(i, self.true_next_probability(last_item, i)) for i in candidates]
        dist.sort(key=lambda pair: (-pair[1], pair[0]))
        self._dist_cache[key] = dist = dist[:top]
        return dist
