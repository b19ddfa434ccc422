"""Multi-objective primitives: dominance, non-dominated sorting, crowding
distance, diversity-aware top-k promotion, and incumbent selection by
normalized objective area.

All functions minimize both objectives and are pure; ties are always broken
deterministically, ending at input index. They compute on Python floats.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


class EmptyInputError(ValueError):
    """Raised when an operation receives no points."""


class NonFiniteCostError(ValueError):
    """Raised when a cost vector contains NaN or infinity."""


class KOutOfRangeError(ValueError):
    """Raised when a selection size k is not in [1, n]."""


@dataclass(frozen=True)
class CostVector:
    """One evaluation's cost: quality gap (lower better) and training time."""

    primary: float
    runtime_hours: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.primary, self.runtime_hours)


def _costs(points: list[CostVector]) -> list[tuple[float, float]]:
    """The points' (primary, runtime) pairs as floats, once both are checked."""
    if len(points) == 0:
        raise EmptyInputError("need at least one cost vector")
    costs = [(float(p.primary), float(p.runtime_hours)) for p in points]
    if not all(math.isfinite(v) for cost in costs for v in cost):
        raise NonFiniteCostError("cost vectors must be finite")
    return costs


def non_dominated_sort(points: list[CostVector]) -> list[list[int]]:
    """Partition point indices into fronts F_1..F_m.

    F_1 is the non-dominated set; each later front is non-dominated once all
    earlier fronts are removed. Indices inside a front keep input order.

    Two-objective sort-and-sweep (Jensen, "Reducing the run-time complexity
    of multiobjective EAs", IEEE TEVC 2003): points are visited in
    (primary, runtime) order, so every dominator of a point is visited before
    it, and each front keeps its lowest runtime so far. Those minima do not
    decrease from one front to the next, so a binary search finds the first
    front with no member at or below the point's runtime, which is the
    point's front. Exactly equal points never dominate each other and share
    a front. O(n log n) time, O(n) memory.
    """
    keys = _costs(points)
    front_of = [0] * len(keys)
    front_min: list[float] = []  # lowest runtime in each front
    previous = None
    k = 0
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[i]
        if key != previous:
            k = bisect.bisect_right(front_min, key[1])
            if k == len(front_min):
                front_min.append(key[1])
            else:
                front_min[k] = key[1]
            previous = key
        front_of[i] = k
    fronts: list[list[int]] = [[] for _ in front_min]
    for i, k in enumerate(front_of):
        fronts[k].append(i)
    return fronts


def crowding_distance(front: list[CostVector]) -> list[float]:
    """Per-point crowding distance within one front.

    Boundary points in each objective get +inf; interior points accumulate
    neighbor spread divided by the objective's range. Objectives with zero
    range contribute nothing. Fronts of size <= 2 are all-boundary.
    """
    costs = _costs(front)
    n = len(costs)
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for column in zip(*costs):
        order = sorted(range(n), key=column.__getitem__)
        lo, hi = column[order[0]], column[order[-1]]
        if hi == lo:
            continue
        dist[order[0]] = dist[order[-1]] = math.inf
        for before, i, after in zip(order, order[1:], order[2:]):
            dist[i] += (column[after] - column[before]) / (hi - lo)
    return dist


def select_top_k(points: list[CostVector], k: int) -> list[int]:
    """Pick k point indices: fronts in order, each front sorted by crowding
    distance (descending), ties by primary cost (ascending), then input index.

    The returned order is the full promotion order truncated at k, so the
    selection for k is always a prefix of the selection for k + 1, and the
    minimum-primary point is always included.
    """
    if not 1 <= k <= len(points):
        raise KOutOfRangeError(f"k={k} not in [1, {len(points)}]")
    ranked: list[int] = []
    for front in non_dominated_sort(points):
        dists = crowding_distance([points[i] for i in front])
        order = sorted(
            range(len(front)),
            key=lambda j: (-dists[j], points[front[j]].primary, front[j]),
        )
        ranked.extend(front[j] for j in order)
    return ranked[:k]


def area_incumbent(front: list[CostVector]) -> int:
    """Index of the front member maximizing (1 - p)·(1 - r) after per-objective
    min-max normalization over the front itself.

    A zero-range objective normalizes to 0 for every point, so the other
    objective decides. Ties break by lower primary cost, then input index.
    """
    costs = _costs(front)
    norm = []
    for column in zip(*costs):
        lo, hi = min(column), max(column)
        norm.append([(v - lo) / (hi - lo) for v in column] if hi > lo else [0.0] * len(column))
    scores = [(1.0 - p) * (1.0 - r) for p, r in zip(*norm)]
    return min(range(len(costs)), key=lambda i: (-scores[i], costs[i][0], i))
