"""The search's pure-Python stream against numpy itself: every draw of
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
