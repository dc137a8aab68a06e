"""Reproducible random-number streams for simulation components.

Every stochastic component (arrival process, item selector, size sampler,
...) draws from its *own* named stream spawned from a single root seed via
``numpy.random.SeedSequence``.  This gives:

* bitwise reproducibility of whole simulations from one integer seed,
* common random numbers across policy comparisons — changing the prefetch
  policy does not perturb the arrival stream, which sharpens paired
  comparisons in the policy-ablation experiment.

A build that needs thousands of streams at once (one per client) derives
them with :meth:`RandomStreams.derive`, which runs SeedSequence's hashing
for every name in one vectorized pass (:mod:`repro.des.seed_batch`) and
yields the very generators :meth:`RandomStreams.get` would.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# NumPy loads its random package lazily, on first use.  Load it with the
# simulator's own modules, so that a run does not pay for it while it
# builds its first stream.
import numpy.random  # noqa: F401

from repro.errors import ConfigurationError

__all__ = ["BATCH_CROSSOVER", "RandomStreams"]

#: Fewest new names for which :meth:`RandomStreams.derive` runs its batch.
#: A batch has a fixed cost of a few hundred NumPy calls, plus loading
#: :mod:`repro.des.seed_batch` the first time.  On a 2-vCPU x86 host
#: (Python 3.11, NumPy 2.4), a process's first batch breaks even with
#: one-at-a-time ``get`` between 128 and 256 names of the
#: ``client<c>/<kind>`` shape and is 1.4x faster at 256, 2x at 512
#: (later batches: break-even near 32 names, 3.6x at 256).
BATCH_CROSSOVER = 256


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

    def pop(self, name: str) -> np.random.Generator | None:
        """Drop ``name``'s generator from the registry; return it (None if
        absent).  A later ``get(name)`` derives it afresh."""
        return self._streams.pop(name, None)

    def derive(self, names: Sequence[str]) -> None:
        """Create the generators for ``names`` now, in one vectorized pass.

        Each generator starts in exactly the state ``get(name)`` would give
        it; names already in the registry keep their generator.  With fewer
        than :data:`BATCH_CROSSOVER` new names, or a seed of ``2**32`` or
        more, this does nothing and ``get`` derives each stream on first
        use.
        """
        if not 0 <= self.seed < 2**32:
            return
        streams = self._streams
        todo = [name for name in dict.fromkeys(names) if name not in streams]
        if len(todo) < BATCH_CROSSOVER:
            return
        if not all(todo):
            raise ConfigurationError("stream name must be non-empty")
        # Loaded on the first batch only: a process whose builds all stay
        # below the crossover never holds the batch code.
        from repro.des.seed_batch import pcg64_generators

        streams.update(zip(todo, pcg64_generators(self.seed, todo)))
