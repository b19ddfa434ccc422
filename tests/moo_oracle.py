"""Frozen reference for the crowding distance and the area incumbent.

A verbatim copy of ``jahsband.moo._as_array``, ``crowding_distance`` and
``area_incumbent`` from when they computed on numpy arrays: a stable
``argsort`` orders each objective, and the neighbour spreads, ranges and
area scores are array expressions. The tests compare the package's
plain-float versions with these, bit for bit, so any change in an
operation or its order shows up.
"""

from __future__ import annotations

import math

import numpy as np

from jahsband.moo import CostVector, EmptyInputError, NonFiniteCostError


def _as_array(points: list[CostVector]) -> np.ndarray:
    if len(points) == 0:
        raise EmptyInputError("need at least one cost vector")
    arr = np.asarray([p.as_tuple() for p in points], dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCostError("cost vectors must be finite")
    return arr


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
