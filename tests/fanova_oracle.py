"""Frozen reference forest for fANOVA importance.

A verbatim copy of the forest ``jahsband.analysis`` grew before its trees
were built from presorted columns: every node re-sorts each candidate
column, numeric and categorical splits are scored one column at a time, and
leaf boxes are Python lists and sets. One change since: a midpoint
threshold that rounds up to the upper of two adjacent floats is replaced by
the lower one, so no split leaves a child empty. The tests compare
``jahsband.analysis.fanova_first_order`` with this module's
:func:`fanova_first_order` float for float, so a change that moves a single
bit of an importance shows up.
"""

from __future__ import annotations

import math

import numpy as np

from jahsband._forest import _history_matrix

_LEAF = 0
_NUMERIC_SPLIT = 1
_CATEGORICAL_SPLIT = 2


class _Node:
    __slots__ = ("kind", "feature", "threshold", "subset", "left", "right", "value")

    def __init__(self, kind, feature=-1, threshold=0.0, subset=None,
                 left=None, right=None, value=0.0):
        self.kind = kind
        self.feature = feature
        self.threshold = threshold
        self.subset = subset  # categories routed left
        self.left = left
        self.right = right
        self.value = value


def _best_numeric_split(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(gain, threshold) of the best binary split on a numeric column."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    boundaries = np.flatnonzero(np.diff(xs) > 0) + 1
    if boundaries.size == 0:
        return 0.0, 0.0
    csum = np.cumsum(ys)
    total = csum[-1]
    n = len(ys)
    nl = boundaries
    left = csum[boundaries - 1]
    gains = left**2 / nl + (total - left) ** 2 / (n - nl) - total**2 / n
    best = int(np.argmax(gains))
    lower, upper = xs[boundaries[best] - 1], xs[boundaries[best]]
    threshold = 0.5 * (lower + upper)
    if threshold == upper:  # adjacent floats: split at the lower one
        threshold = lower
    return float(gains[best]), float(threshold)


def _best_categorical_split(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, frozenset[int]]:
    """(gain, left-subset) of the best subset split; categories are ordered
    by mean response, which is optimal for squared error."""
    cats = np.unique(x)
    if cats.size < 2:
        return 0.0, frozenset()
    means = np.array([y[x == c].mean() for c in cats])
    order = np.argsort(means, kind="stable")
    counts = np.array([(x == c).sum() for c in cats])[order]
    sums = np.array([y[x == c].sum() for c in cats])[order]
    csum = np.cumsum(sums)
    ccnt = np.cumsum(counts)
    total, n = csum[-1], ccnt[-1]
    best_gain, best_cut = 0.0, 0
    for cut in range(1, cats.size):
        nl = ccnt[cut - 1]
        left = csum[cut - 1]
        gain = left**2 / nl + (total - left) ** 2 / (n - nl) - total**2 / n
        if gain > best_gain:
            best_gain, best_cut = float(gain), cut
    subset = frozenset(int(cats[i]) for i in order[:best_cut])
    return best_gain, subset


def _fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    categorical: dict[int, int],
    max_depth: int,
    n_candidates: int,
    rng: np.random.Generator,
) -> _Node:
    d = X.shape[1]

    def build(idx: np.ndarray, depth: int) -> _Node:
        ys = y[idx]
        node_value = float(ys.mean())
        if depth >= max_depth or idx.size < 2 or np.ptp(ys) == 0.0:
            return _Node(_LEAF, value=node_value)
        features = rng.choice(d, size=min(n_candidates, d), replace=False)
        best_gain, best = 1e-12, None
        for f in features:
            col = X[idx, f]
            if f in categorical:
                gain, subset = _best_categorical_split(col, ys)
                if gain > best_gain:
                    best_gain, best = gain, (_CATEGORICAL_SPLIT, f, subset)
            else:
                gain, threshold = _best_numeric_split(col, ys)
                if gain > best_gain:
                    best_gain, best = gain, (_NUMERIC_SPLIT, f, threshold)
        if best is None:
            return _Node(_LEAF, value=node_value)
        kind, f, where = best
        if kind == _NUMERIC_SPLIT:
            mask = X[idx, f] <= where
        else:
            mask = np.isin(X[idx, f], list(where))
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        if kind == _NUMERIC_SPLIT:
            return _Node(kind, f, threshold=where, left=left, right=right)
        return _Node(kind, f, subset=where, left=left, right=right)

    return build(np.arange(len(y)), 0)


def _collect_leaves(
    root: _Node, d: int, categorical: dict[int, int]
) -> list[tuple[list, float]]:
    """(box, value) per leaf: a box holds one [lo, hi) interval per numeric
    feature and one category set per categorical feature."""
    initial: list = [
        set(range(categorical[f])) if f in categorical else (0.0, 1.0)
        for f in range(d)
    ]
    leaves: list[tuple[list, float]] = []

    def walk(node: _Node, box: list) -> None:
        if node.kind == _LEAF:
            leaves.append(([b.copy() if isinstance(b, set) else b for b in box],
                           node.value))
            return
        f = node.feature
        saved = box[f]
        if node.kind == _NUMERIC_SPLIT:
            lo, hi = saved
            box[f] = (lo, min(hi, node.threshold))
            walk(node.left, box)
            box[f] = (max(lo, node.threshold), hi)
            walk(node.right, box)
        else:
            box[f] = saved & node.subset
            walk(node.left, box)
            box[f] = saved - node.subset
            walk(node.right, box)
        box[f] = saved

    walk(root, initial)
    return leaves


def _tree_marginal_variances(
    root: _Node, d: int, categorical: dict[int, int]
) -> tuple[float, np.ndarray]:
    """Total variance of the tree's function under the uniform measure, and
    each feature's first-order marginal variance."""
    leaves = _collect_leaves(root, d, categorical)
    values = np.array([v for _, v in leaves])
    sizes = np.empty((len(leaves), d))
    for li, (box, _) in enumerate(leaves):
        for f in range(d):
            if f in categorical:
                sizes[li, f] = len(box[f]) / categorical[f]
            else:
                lo, hi = box[f]
                sizes[li, f] = max(hi - lo, 0.0)
    volumes = sizes.prod(axis=1)
    mean = float(volumes @ values)
    total_var = float(volumes @ values**2) - mean**2

    marginals = np.zeros(d)
    for f in range(d):
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(sizes[:, f] > 0, volumes / sizes[:, f], 0.0)
        wv = weights * values
        if f in categorical:
            k = categorical[f]
            member = np.zeros((len(leaves), k), dtype=bool)
            for li, (box, _) in enumerate(leaves):
                member[li, list(box[f])] = True
            m = wv @ member
            marginals[f] = float(np.mean((m - mean) ** 2))
        else:
            points = sorted(
                {0.0, 1.0}
                | {box[f][0] for box, _ in leaves}
                | {box[f][1] for box, _ in leaves}
            )
            edges = np.array(points)
            mids = 0.5 * (edges[:-1] + edges[1:])
            lengths = np.diff(edges)
            los = np.array([box[f][0] for box, _ in leaves])
            his = np.array([box[f][1] for box, _ in leaves])
            cover = (los[:, None] <= mids[None, :]) & (mids[None, :] < his[:, None])
            m = wv @ cover
            marginals[f] = float(lengths @ (m - mean) ** 2)
    return total_var, marginals


def fanova_first_order(history, trees: int = 32, seed: int = 0,
                       max_depth: int = 12) -> tuple[dict, dict]:
    """(importances, variances) as the reference forest computes them."""
    X, y, names, categorical = _history_matrix(history)
    d = X.shape[1]
    if np.ptp(y) == 0.0:
        zeros = {n: 0.0 for n in names}
        return dict(zeros), dict(zeros)
    rng = np.random.default_rng(seed)
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    fractions = np.zeros((trees, d))
    used = np.zeros(trees, dtype=bool)
    for t in range(trees):
        bootstrap = rng.integers(len(y), size=len(y))
        root = _fit_tree(
            X[bootstrap], y[bootstrap], categorical, max_depth, n_candidates, rng
        )
        total_var, marginals = _tree_marginal_variances(root, d, categorical)
        if total_var > 0.0:
            fractions[t] = marginals / total_var
            used[t] = True
    if not used.any():
        zeros = {n: 0.0 for n in names}
        return dict(zeros), dict(zeros)
    mean = fractions[used].mean(axis=0)
    var = fractions[used].var(axis=0)
    return (
        {n: float(mean[i]) for i, n in enumerate(names)},
        {n: float(var[i]) for i, n in enumerate(names)},
    )
