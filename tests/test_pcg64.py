"""The package's pure-Python stream against numpy itself: every draw of
``PCG64(seed)`` equals ``np.random.default_rng(seed)``'s, and ``seed_words``
equals ``SeedSequence(entropy).generate_state(n, np.uint64)``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jahsband._pcg64 import PCG64, seed_words

SEEDS = st.integers(0, 2**32) | st.integers(0, 2**256)
#: range sizes at the edges of numpy's paths: no draw, 32-bit Lemire, a
#: plain 32-bit draw, 64-bit Lemire and a plain 64-bit draw
EDGES = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64]


@st.composite
def calls(draw):
    """The arguments of one call: () for ``random()``, (n,) for
    ``integers(n)`` or (low, high) for ``integers(low, high)``, int64 bounds."""
    kind = draw(st.sampled_from(("random", "n", "range")))
    if kind == "random":
        return ()
    size = draw(st.sampled_from(EDGES) | st.integers(1, 2**64))
    if kind == "n":
        return (min(size, 2**63),)
    low = draw(st.sampled_from((-2**63, 2**63 - size)) | st.integers(-2**63, 2**63 - size))
    return (low, low + size)


def assert_same_draws(seed, arguments):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for args in arguments:
        if args:
            assert ours.integers(*args) == int(theirs.integers(*args)), args
        else:
            assert ours.random() == theirs.random()
    # and each stream is left where numpy leaves it, its cached half included
    assert ours.integers(7) == int(theirs.integers(7))
    assert ours.random() == theirs.random()


@settings(max_examples=400, deadline=None)
@given(seed=SEEDS, arguments=st.lists(calls(), max_size=40))
@example(seed=2**256, arguments=[(3,), (), (3,), (3,)])
def test_interleaved_draws_equal_numpy(seed, arguments):
    assert_same_draws(seed, arguments)


@pytest.mark.parametrize("size", EDGES)
@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 5, 2**256 - 1])
def test_range_edges_equal_numpy(seed, size):
    """Every edge size from both int64 extremes, and as ``integers(n)``
    where numpy takes it, between uniforms that leave a 32-bit half cached
    or not."""
    one = [(size,)] if size <= 2**63 else []
    step = [(-2**63, -2**63 + size), (2**63 - size, 2**63), *one, (), (3,)]
    assert_same_draws(seed, step * 25)


@settings(max_examples=300, deadline=None)
@given(entropy=SEEDS | st.lists(st.integers(0, 2**100), max_size=9), n=st.integers(1, 9))
@example(entropy=[2**40 + 1, 2**64 - 1, 5], n=4)  # 5 words: one past the pool of 4
@example(entropy=[0, 0, 0, 0, 0, 0, 0], n=1)
def test_seed_words_equal_seed_sequence(entropy, n):
    expected = np.random.SeedSequence(entropy).generate_state(n, np.uint64)
    assert seed_words(entropy, n) == expected.tolist()


@pytest.mark.parametrize("seed", [-1, [3, -1, 2], -2**70])
def test_negative_seed_raises_as_numpy(seed):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match=str(numpy_error.value)):
        PCG64(seed)


@pytest.mark.parametrize("arguments", [(0,), (5, 5), (6, 5), (2**63 + 1,),
                                       (-2**63 - 1, 0), (0, 2**63 + 1)])
def test_ranges_numpy_refuses_raise(arguments):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(*arguments)
    with pytest.raises(ValueError):
        PCG64(0).integers(*arguments)


def generator_calls():
    """A call of ``integers(n, size=m)``, ``choice(d, size=k, replace=False)``,
    ``random()`` or ``uniform(low, high)``, as (name, n, d or low, m, k or high)."""
    integers = st.tuples(st.just("integers"), st.integers(1, 600), st.integers(0, 40))
    choice = st.integers(1, 40).flatmap(
        lambda d: st.tuples(st.just("choice"), st.just(d), st.integers(1, d)))
    random = st.just(("random", None, None))
    uniform = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2).map(
        lambda ends: ("uniform", *sorted(ends)))
    return integers | choice | random | uniform


def call(rng, name, a, b):
    """One generator call on ``PCG64`` (m ``integers(n)``) or on numpy's."""
    if name == "integers":
        if isinstance(rng, PCG64):
            return [rng.integers(a) for _ in range(b)]
        return rng.integers(a, size=b).tolist()
    if name == "choice":
        if isinstance(rng, PCG64):
            return rng.choice(a, b)
        return rng.choice(a, size=b, replace=False).tolist()
    return rng.random() if name == "random" else rng.uniform(a, b)


class TestDraws:
    """``choice`` and repeated ``integers``, the draws of the importance
    forest, with ``random`` and ``uniform`` between them, equal those of
    ``np.random.default_rng(seed)`` and leave the stream at the same point."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**256 - 1))
    @example(seed=0)
    @example(seed=2**32 - 1)
    @example(seed=2**32)  # two entropy words
    @example(seed=2**128 + 1)  # five: one is mixed in after the pool
    @example(seed=2**256 - 1)
    def test_halves_match_numpy_raw_words(self, seed):
        # the 32-bit draws' source: numpy's raw words, low half first
        words = np.random.default_rng(seed).bit_generator.random_raw(1000)
        expected = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()
        next32 = PCG64(seed)._next32
        assert [next32() for _ in range(2000)] == expected.tolist()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=st.lists(generator_calls(), max_size=60))
    def test_interleaved_calls_match_generator(self, seed, calls):
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        for name, a, b in calls + [("integers", 2**31 + 1, 3)]:
            assert call(ours, name, a, b) == call(theirs, name, a, b)

    @pytest.mark.parametrize("name, a, b", [
        ("integers", 1, 5), ("integers", 1, 0), ("choice", 1, 1), ("choice", 2, 2)])
    def test_a_single_value_draws_nothing(self, name, a, b):
        ours, theirs = PCG64(7), np.random.default_rng(7)
        assert call(ours, name, a, b) == call(theirs, name, a, b)
        assert call(ours, "integers", 600, 4) == call(theirs, "integers", 600, 4)

    def test_rejection_matches_generator(self):
        # below 2**31 + 1 about half of all draws are rejected and redrawn
        ours, theirs, n = PCG64(3), np.random.default_rng(3), 2**31 + 1
        for _ in range(4):
            assert call(ours, "integers", n, 64) == call(theirs, "integers", n, 64)
            assert call(ours, "choice", 17, 5) == call(theirs, "choice", 17, 5)

    def test_rejection_from_crafted_words(self):
        # a draw below 3 rejects a half whose product with 3 leaves a low
        # half under 2**32 % 3 == 1, i.e. a half of 0, and redraws:
        # 0 (rejected), 0xFFFFFFFF -> 2; then 0 (rejected), 1 -> 0; then
        # 0x55555556 -> 1, whose low half 2 is under 3 but not under 1, so
        # it stands
        halves = [0, 0xFFFFFFFF, 0, 1, 0x55555556, 0]
        rng = PCG64(0)
        rng._next = iter([lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]).__next__
        assert rng.choice(3, 1) == [2]
        assert [rng.integers(3), rng.integers(3)] == [0, 1]
