"""Reproducible random-number streams for simulation components.

Every stochastic component (arrival process, item selector, size sampler,
...) draws from its *own* named stream spawned from a single root seed via
``numpy.random.SeedSequence``.  This gives:

* bitwise reproducibility of whole simulations from one integer seed,
* common random numbers across policy comparisons — changing the prefetch
  policy does not perturb the arrival stream, which sharpens paired
  comparisons in the policy-ablation experiment.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RandomStreams"]


class RandomStreams:
    """A registry of named, independent ``numpy`` generators.

    >>> streams = RandomStreams(seed=7)
    >>> a1 = streams.get("arrivals").random()
    >>> b1 = streams.get("sizes").random()
    >>> streams2 = RandomStreams(seed=7)
    >>> streams2.get("arrivals").random() == a1   # same name -> same stream
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created deterministically on first use.

        Derivation hashes the *name*, not creation order, so adding a new
        component does not shift existing streams.
        """
        if not name:
            raise ConfigurationError("stream name must be non-empty")
        stream = self._streams.get(name)
        if stream is None:
            # Deterministic, order-independent derivation: fold the name
            # bytes into the spawn key ``[seed, *name bytes]``.
            raw = name.encode("utf-8")
            if 0 <= self.seed < 2**32:
                # The same key as a uint32 array: SeedSequence splits a
                # list's ints into uint32 words itself, so one word per
                # element gives the identical state, several times faster.
                key = np.empty(len(raw) + 1, dtype=np.uint32)
                key[0] = self.seed
                key[1:] = np.frombuffer(raw, dtype=np.uint8)
            else:
                # A seed of 2**32 or more spans several words: let
                # SeedSequence split it, as it always has.
                key = [self.seed] + list(raw)
            stream = self._streams[name] = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(key))
            )
        return stream

    def fork(self, label: str) -> "RandomStreams":
        """A child registry for a sub-component (e.g. one client)."""
        child = RandomStreams.__new__(RandomStreams)
        child.seed = self.seed
        child._root = self._root
        child._streams = {}
        # Prefix all child streams with the label to keep them disjoint.
        parent_get = self.get

        def scoped_get(name: str) -> np.random.Generator:
            return parent_get(f"{label}/{name}")

        child.get = scoped_get  # type: ignore[method-assign]
        return child
