"""Multi-objective primitives: dominance, non-dominated sorting, crowding
distance, diversity-aware top-k promotion, and incumbent selection by
normalized objective area.

All functions minimize both objectives and are pure; ties are always broken
deterministically, ending at input index.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


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


def _as_array(points: list[CostVector]) -> np.ndarray:
    if len(points) == 0:
        raise EmptyInputError("need at least one cost vector")
    arr = np.asarray([p.as_tuple() for p in points], dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCostError("cost vectors must be finite")
    return arr


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
    if len(points) == 0:
        raise EmptyInputError("need at least one cost vector")
    keys = [p.as_tuple() for p in points]
    if not all(math.isfinite(v) for key in keys for v in key):
        raise NonFiniteCostError("cost vectors must be finite")
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
    arr = _as_array(front)
    n = len(arr)
    if n <= 2:
        return [math.inf] * n
    dist = np.zeros(n)
    for m in range(arr.shape[1]):
        order = np.argsort(arr[:, m], kind="stable")
        lo, hi = arr[order[0], m], arr[order[-1], m]
        if hi == lo:
            continue
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        interior = order[1:-1]
        dist[interior] += (arr[order[2:], m] - arr[order[:-2], m]) / (hi - lo)
    return [float(d) for d in dist]


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
    arr = _as_array(front)
    norm = np.zeros_like(arr)
    for m in range(arr.shape[1]):
        lo, hi = arr[:, m].min(), arr[:, m].max()
        if hi > lo:
            norm[:, m] = (arr[:, m] - lo) / (hi - lo)
    scores = (1.0 - norm[:, 0]) * (1.0 - norm[:, 1])
    best = min(range(len(front)), key=lambda i: (-scores[i], arr[i, 0], i))
    return best
