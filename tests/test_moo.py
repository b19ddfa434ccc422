import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jahsband.moo import (
    CostVector,
    EmptyInputError,
    KOutOfRangeError,
    NonFiniteCostError,
    area_incumbent,
    crowding_distance,
    non_dominated_sort,
    select_top_k,
)

from conftest import brute_force_fronts


LEVELS = (0.0, 0.25, 0.5, 1.0)


def cv(*pairs):
    return [CostVector(p, r) for p, r in pairs]


class TestNonDominatedSort:
    def test_hand_case(self):
        points = cv((1, 5), (2, 4), (3, 3), (2, 6), (4, 4))
        assert non_dominated_sort(points) == [[0, 1, 2], [3, 4]]

    def test_all_identical_single_front(self):
        points = cv((2, 2), (2, 2), (2, 2))
        assert non_dominated_sort(points) == [[0, 1, 2]]

    def test_total_order_chain(self):
        points = cv((1, 1), (2, 2), (3, 3))
        assert non_dominated_sort(points) == [[0], [1], [2]]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            non_dominated_sort([])

    def test_non_finite(self):
        with pytest.raises(NonFiniteCostError):
            non_dominated_sort(cv((1, float("nan"))))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pts = cv(*zip(rng.uniform(0, 1, n), rng.uniform(0, 10, n)))
            assert non_dominated_sort(pts) == brute_force_fronts(pts)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            pts = cv(*zip(rng.integers(0, 4, n).astype(float),
                          rng.integers(0, 4, n).astype(float)))
            assert non_dominated_sort(pts) == brute_force_fronts(pts)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(LEVELS), st.sampled_from(LEVELS)),
            min_size=1,
            max_size=200,
        )
    )
    def test_matches_brute_force_on_tie_grids(self, pairs):
        pts = cv(*pairs)
        assert non_dominated_sort(pts) == brute_force_fronts(pts)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_subnormal=False),
                st.floats(0.0, 10.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.integers(0, 10**6), max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_matches_brute_force_with_exact_duplicates(self, pairs, picks, rnd):
        pairs = pairs + [pairs[i % len(pairs)] for i in picks]
        rnd.shuffle(pairs)
        pts = cv(*pairs)
        assert non_dominated_sort(pts) == brute_force_fronts(pts)


class TestCrowdingDistance:
    def test_hand_case(self):
        dists = crowding_distance(cv((1, 5), (2, 4), (3, 3)))
        assert dists[0] == math.inf and dists[2] == math.inf
        assert dists[1] == pytest.approx(2.0)

    def test_pair_is_all_infinite(self):
        assert crowding_distance(cv((1, 2), (2, 1))) == [math.inf, math.inf]

    def test_zero_range_objective_contributes_nothing(self):
        dists = crowding_distance(cv((1, 5), (1, 4), (1, 3)))
        assert dists[1] == pytest.approx((5 - 3) / (5 - 3))
        assert dists[0] == math.inf and dists[2] == math.inf

    def test_all_identical(self):
        assert crowding_distance(cv((1, 1), (1, 1), (1, 1))) == [0.0, 0.0, 0.0]


class TestSelectTopK:
    def test_hand_case(self):
        points = cv((0.1, 9), (0.2, 5), (0.3, 3), (0.15, 10), (0.4, 2))
        assert select_top_k(points, 2) == [0, 4]

    def test_k_equals_n_returns_all(self):
        rng = np.random.default_rng(3)
        pts = cv(*zip(rng.uniform(size=10), rng.uniform(size=10)))
        assert sorted(select_top_k(pts, 10)) == list(range(10))

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            select_top_k(cv((1, 1)), 2)
        with pytest.raises(KOutOfRangeError):
            select_top_k(cv((1, 1)), 0)

    def test_min_primary_always_selected(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            pts = cv(*zip(rng.uniform(size=n), rng.uniform(0, 5, n)))
            k = int(rng.integers(1, n + 1))
            chosen = select_top_k(pts, k)
            best = min(p.primary for p in pts)
            assert min(pts[i].primary for i in chosen) == best

    def test_monotone_prefix(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            pts = cv(*zip(rng.uniform(size=n), rng.uniform(size=n)))
            prev = select_top_k(pts, 1)
            for k in range(2, n + 1):
                cur = select_top_k(pts, k)
                assert cur[: k - 1] == prev
                prev = cur


class TestAreaIncumbent:
    def test_hand_case(self):
        # already normalized: scores 0.16, 0.25, 0.09
        assert area_incumbent(cv((0.2, 0.8), (0.5, 0.5), (0.9, 0.1))) == 1

    def test_singleton(self):
        assert area_incumbent(cv((3, 4))) == 0

    def test_zero_scores_tie_break_by_primary(self):
        # two points: each is best in one objective, both scores are 0
        assert area_incumbent(cv((1, 2), (2, 1))) == 0

    def test_member_of_front_and_affine_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            primary = np.sort(rng.uniform(size=n))
            runtime = np.sort(rng.uniform(size=n))[::-1]  # anti-chain
            front = cv(*zip(primary, runtime))
            idx = area_incumbent(front)
            assert 0 <= idx < n
            a, b = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            scaled = cv(*((p, a * r + b) for p, r in zip(primary, runtime)))
            assert area_incumbent(scaled) == idx
            a2, b2 = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            scaled2 = cv(*((a2 * p + b2, r) for p, r in zip(primary, runtime)))
            assert area_incumbent(scaled2) == idx
