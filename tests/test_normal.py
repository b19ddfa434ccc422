"""The pure-Python normal CDF and its inverse against scipy, bit for bit.

``jahsband._normal`` replaces ``scipy.special.ndtr``/``ndtri`` on the
sampling path, where every truncated-normal draw and density depends on
them; one float that differs changes every pinned history. scipy is a
test dependency only.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from jahsband._normal import ndtr, ndtri

SQRT2 = math.sqrt(2.0)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same(got: float, want: float, arg: float) -> None:
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got), arg
    else:
        assert bits(got) == bits(want), (arg, got, want)


def around(x: float) -> list[float]:
    """x and its two neighbouring doubles."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# the branch switches of Cephes' ndtr: erf below |a / sqrt(2)| = sqrt(1/2),
# erfc's 1 - erf below 1, its P/Q below 8 and R/S beyond, and exp(-a*a / 2)
# underflowing past |a| = sqrt(2 * 709.78) = 37.68
NDTR_CASES = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, 1.0, -1.0,
              math.nan]  # NaN in, NaN out
for _k in (0.5, 1.0, 8.0):
    NDTR_CASES += around(SQRT2 * _k) + around(-SQRT2 * _k)
for _a in (37.5, 37.68, 37.7, 38.0, 40.0, 1e300):
    NDTR_CASES += around(_a) + around(-_a)

# ndtri's branches: the centre for y in (exp(-2), 1 - exp(-2)], the tails
# split at exp(-32), and the exact ends
NDTRI_CASES = [0.0, -0.0, 1.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1 - 2**-53, 0.5, 0.25]
for _y in (math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1 - math.exp(-32)):
    NDTRI_CASES += around(_y)


@pytest.mark.parametrize("a", NDTR_CASES)
def test_ndtr_at_branch_switches(a):
    assert_same(ndtr(a), float(special.ndtr(a)), a)


@pytest.mark.parametrize("y", NDTRI_CASES)
def test_ndtri_at_branch_switches(y):
    assert_same(ndtri(y), float(special.ndtri(y)), y)


@pytest.mark.parametrize("y", [-5e-324, -1.0, 1.0000000000000002, math.inf, -math.inf, math.nan])
def test_ndtri_outside_the_unit_interval(y):
    assert_same(ndtri(y), float(special.ndtri(y)), y)


@settings(max_examples=1000, deadline=None)
@given(a=st.floats())
def test_ndtr_equals_scipy(a):
    assert_same(ndtr(a), float(special.ndtr(a)), a)


@settings(max_examples=1000, deadline=None)
@given(y=st.floats(0.0, 1.0))
def test_ndtri_equals_scipy(y):
    assert_same(ndtri(y), float(special.ndtri(y)), y)


def test_bulk_equals_scipy():
    """A seeded sweep that hypothesis' shrinking-oriented draws do not make:
    random bit patterns (every exponent), the sampler's working range, and
    log-uniform tails of (0, 1) down to the subnormals."""
    rng = np.random.default_rng(0)
    n = 20_000
    a = np.concatenate([
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        rng.uniform(-40.0, 40.0, n),
        rng.standard_normal(n) * 4.0,
    ])
    tails = 10.0 ** rng.uniform(-323.5, 0.0, n)
    y = np.concatenate([rng.random(n), tails, 1.0 - tails])
    for f, oracle, xs in ((ndtr, special.ndtr, a), (ndtri, special.ndtri, y)):
        want = oracle(xs).tolist()
        for x, w in zip(xs.tolist(), want):
            assert_same(f(x), w, x)
