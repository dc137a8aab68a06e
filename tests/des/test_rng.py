"""Tests for reproducible random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import RandomStreams
from repro.des.rng import BATCH_CROSSOVER
from repro.errors import ConfigurationError, SimulationError

#: seeds on both sides of the one-uint32-word boundary of the fast key path
SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40]
NAMES = ["arrivals", "client19999/items", "café/Ωmega", "客户端/evictions"]


class TestStreamDerivation:
    """``get(name)`` is ``SeedSequence([seed, *name bytes])``, exactly."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", NAMES)
    def test_state_matches_list_key(self, seed, name):
        key = [seed] + list(name.encode("utf-8"))
        expected = np.random.PCG64(np.random.SeedSequence(key)).state
        assert RandomStreams(seed).get(name).bit_generator.state == expected

    @pytest.mark.parametrize(
        "seed,name,first",
        [
            (0, "arrivals", 0.8126781072589359),
            (7, "client0/items", 0.7883752524563973),
            (2**32 - 1, "origin/sizes", 0.7924913145139321),
            (2**32, "client3/arrivals", 0.5792862216982573),
            (2**40, "sizes", 0.5816617008968993),
            (7, "café/Ωmega", 0.004589233537691584),
            (7, "客户端/items", 0.43756275312363324),
        ],
    )
    def test_pinned_first_draws(self, seed, name, first):
        # Literal values: any change to how streams are derived shifts
        # every simulation result, so it has to fail here first.
        assert RandomStreams(seed).get(name).random() == first


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(seed=7).get("arrivals").random(5)
        b = RandomStreams(seed=7).get("arrivals").random(5)
        assert a.tolist() == b.tolist()

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        a = streams.get("arrivals").random(5)
        b = streams.get("sizes").random(5)
        assert a.tolist() != b.tolist()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random(5)
        b = RandomStreams(seed=2).get("x").random(5)
        assert a.tolist() != b.tolist()

    def test_order_independence(self):
        """Creating streams in a different order must not change them."""
        s1 = RandomStreams(seed=3)
        _ = s1.get("a").random()
        first_b = s1.get("b").random()
        s2 = RandomStreams(seed=3)
        first_b_again = s2.get("b").random()  # "b" created first this time
        assert first_b == first_b_again

    def test_get_caches_generator(self):
        streams = RandomStreams(seed=0)
        assert streams.get("g") is streams.get("g")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomStreams(seed=0).get("")


def _clip(text: str, limit: int) -> str:
    """``text`` cut to at most ``limit`` UTF-8 bytes, at a character boundary."""
    return text.encode("utf-8")[:limit].decode("utf-8", "ignore")


#: 1-48 UTF-8 bytes of any non-surrogate characters (non-ASCII included),
#: with 1-3-byte names (keys shorter than SeedSequence's 4-word pool)
#: drawn as often as longer ones
NAME = st.one_of(
    st.text(min_size=1, max_size=3).map(lambda t: _clip(t, 3)),
    st.text(min_size=1, max_size=48).map(lambda t: _clip(t, 48)),
).filter(bool)
UINT32_SEED = st.integers(0, 2**32 - 1)


def _filler(count: int) -> list[str]:
    """Names of the ``client<c>/<kind>`` shape builds derive."""
    return [f"client{c}/{kind}" for c in range(count) for kind in ("items", "arrivals")]


#: enough filler names to lift any batch over the crossover
FILLER = _filler(BATCH_CROSSOVER // 2)


def _same_stream(got, oracle) -> None:
    """Same state, then the same first ``random`` and ``exponential`` draws."""
    assert got.bit_generator.state == oracle.bit_generator.state
    assert got.random() == oracle.random()
    assert got.exponential() == oracle.exponential()


class TestBatchDerivation:
    """``derive(names)`` builds exactly the generators ``get`` would."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=UINT32_SEED,
        names=st.lists(NAME, min_size=1, max_size=12),
        repeats=st.integers(0, 4),
    )
    def test_batch_equals_get(self, seed, names, repeats):
        batch = names + names[:repeats] + FILLER  # mixed lengths, duplicates
        streams = RandomStreams(seed)
        streams.derive(batch)
        derived = dict(streams._streams)
        assert set(derived) == set(batch)
        for name in dict.fromkeys(names + FILLER[::37]):
            _same_stream(derived[name], RandomStreams(seed).get(name))

    @settings(max_examples=25, deadline=None)
    @given(seed=UINT32_SEED, names=st.lists(NAME, min_size=1, max_size=6, unique=True))
    def test_registered_names_keep_their_generator(self, seed, names):
        streams = RandomStreams(seed)
        before = {name: streams.get(name) for name in names}
        for gen in before.values():
            gen.random(3)  # drawn state the batch must not reset
        streams.derive(names + FILLER)
        for name, gen in before.items():
            assert streams.get(name) is gen
            oracle = RandomStreams(seed).get(name)
            oracle.random(3)
            _same_stream(gen, oracle)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(2**32, 2**64), names=st.lists(NAME, max_size=4))
    def test_large_seed_falls_back_to_get(self, seed, names):
        streams = RandomStreams(seed)
        streams.derive(names + FILLER)
        assert not streams._streams
        name = (names + FILLER)[0]
        expected = np.random.PCG64(
            np.random.SeedSequence([seed] + list(name.encode("utf-8")))
        ).state
        assert streams.get(name).bit_generator.state == expected

    def test_below_crossover_does_nothing(self):
        streams = RandomStreams(7)
        streams.derive(FILLER[: BATCH_CROSSOVER - 1])
        assert not streams._streams

    def test_mostly_registered_batch_does_nothing(self):
        streams = RandomStreams(7)
        for name in FILLER[1:]:
            streams.get(name)
        streams.derive(FILLER + ["late/items"])
        assert "late/items" not in streams._streams

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomStreams(7).derive(FILLER + [""])

    def test_batch_generator_cannot_reseed(self):
        # Its seed words went into its construction; asking for more
        # must fail loudly rather than hand out another stream's words.
        streams = RandomStreams(7)
        streams.derive(FILLER)
        seed_seq = streams.get(FILLER[0]).bit_generator.seed_seq
        with pytest.raises(SimulationError):
            seed_seq.generate_state(4)

    @pytest.mark.parametrize(
        "seed,name,first_random,first_exponential",
        [
            (7, "client0/items", 0.7883752524563973, 0.8992073669947874),
            (7, "client127/arrivals", 0.172891754873568, 1.5806376501967465),
            (7, "café/Ωmega", 0.004589233537691584, 0.17551959851261864),
            (7, "客户端/items", 0.43756275312363324, 0.1578907946870476),
            (7, "x@phase-variant1", 0.3009362147191944, 0.08012839127605113),
            (0, "a", 0.6803386629958232, 0.41228637744758023),
            (2**32 - 1, "client99/evictions", 0.7255132001134346, 0.3246124197799606),
        ],
    )
    def test_pinned_first_draws(self, seed, name, first_random, first_exponential):
        # Literal values, as computed by SeedSequence: a batch over the
        # crossover must reproduce them bit for bit.
        streams = RandomStreams(seed)
        streams.derive(FILLER + [name])
        gen = streams._streams[name]
        assert gen.random() == first_random
        assert gen.exponential() == first_exponential
