"""Watch what a build derives from its ``RandomStreams``, and what stays alive.

A simulation hands every per-entity stream over to its consumer (a
source, a cache, an arrival iterator), so reading the stream registry
says little about which generators a build made or still holds.
:func:`watch_streams` wraps ``RandomStreams.derive`` and
``RandomStreams.get`` for a block instead.  Each generator they make is
recorded with its registry, its name, its state at derivation and
whether the batch derivation built it, and is replaced in the registry
by a generator on the same bit generator that a weak reference can
follow.  Draws are unchanged, so outputs are too.
"""

from __future__ import annotations

import itertools
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator
from unittest import mock

import numpy as np

from repro.des.rng import RandomStreams


class _Watched(np.random.Generator):
    """A generator a weak reference can follow (``Generator`` has no slot
    for one)."""


@dataclass(frozen=True)
class Derivation:
    registry: int  # serial number of the RandomStreams that derived it
    name: str
    state: dict
    batched: bool  # built by ``derive``'s batch, not by a SeedSequence
    ref: weakref.ref

    @property
    def alive(self) -> bool:
        return self.ref() is not None


@dataclass
class StreamWatch:
    derived: list[Derivation] = field(default_factory=list)
    #: generators alive after each ``derive`` call and each deriving ``get``
    marks: list[int] = field(default_factory=list)

    def names(self) -> list[str]:
        return [d.name for d in self.derived]

    def alive(self) -> list[str]:
        return [d.name for d in self.derived if d.alive]


@contextmanager
def watch_streams() -> Iterator[StreamWatch]:
    watch = StreamWatch()
    derive, get = RandomStreams.derive, RandomStreams.get
    # Numbered in order of first derivation: an id() could be reused by a
    # later build once an earlier one is freed.
    serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counter = itertools.count()

    def adopt(streams, name):
        if streams not in serials:
            serials[streams] = next(counter)
        gen = streams._streams[name]
        watched = streams._streams[name] = _Watched(gen.bit_generator)
        watch.derived.append(
            Derivation(
                registry=serials[streams],
                name=name,
                state=gen.bit_generator.state,
                batched=not isinstance(
                    gen.bit_generator.seed_seq, np.random.SeedSequence
                ),
                ref=weakref.ref(watched),
            )
        )
        return watched

    def mark():
        watch.marks.append(sum(d.alive for d in watch.derived))

    def watched_derive(streams, names):
        names = list(names)
        fresh = [n for n in dict.fromkeys(names) if n not in streams._streams]
        derive(streams, names)
        for name in fresh:
            if name in streams._streams:
                adopt(streams, name)
        mark()

    def watched_get(streams, name):
        if name in streams._streams:
            return get(streams, name)
        get(streams, name)
        watched = adopt(streams, name)
        mark()
        return watched

    with mock.patch.object(RandomStreams, "derive", watched_derive), mock.patch.object(
        RandomStreams, "get", watched_get
    ):
        yield watch
