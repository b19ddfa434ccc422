"""The random forest behind :func:`.analysis.fanova_first_order`, grown
with numpy; imported on that function's first call, so a process that
writes no importance loads no numpy. Its bootstrap and candidate features
are drawn from the package's one PCG64 (:class:`._pcg64.PCG64`)."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from ._pcg64 import PCG64
from .analysis import ForestSettingsError, ImportanceReport, InsufficientDataError
from .configspace import CATEGORICAL, coordinate_names, normalize
from .priorband import RunHistory


# A subtree whose root holds at most this many rows grows on Python lists
# (``small`` in :func:`_fit_tree`), where numpy's per-call overhead would
# outweigh its per-row speed. Larger nodes keep the presorted numpy path,
# which is faster there; :func:`_sum` adds a list of any length as numpy would
_SCALAR_ROWS = 32

# A leaf: its value and its box, a lower and an upper bound per feature and
# a bitmask of the categories it admits, the categorical features' bits back
# to back in the order of ``categorical``
_Leaf = tuple[float, tuple, tuple, int]


def _sum(values: list[float]) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit: numpy adds fewer
    than 8 numbers in sequence, up to 128 in 8 strided accumulators that are
    then added as a tree, and splits longer vectors at a multiple of 8 below
    the half (pairwise summation). The builtin ``sum`` compensates on
    Python 3.12 and later, so it cannot stand in."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(values[:half]) + _sum(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    # numpy adds the block to a 0.0 start, which turns -0.0 into 0.0
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for v in values[end:]:
        total += v
    return total


def _best_numeric_splits(
    xs: np.ndarray, ys: np.ndarray, boundary: np.ndarray
) -> tuple[list[float], list[float]]:
    """(gains, thresholds) of the best binary split of each row of ``xs``,
    a node's candidate columns in sorted order, with ``ys`` the targets in
    the same order and ``boundary[i, j]`` true where ``xs[i, j + 1]`` is
    larger than ``xs[i, j]``. All rows are scored in one pass; the first
    maximum wins and a row without a boundary gains -inf."""
    k, n = xs.shape
    csum = ys.cumsum(axis=1)
    total = csum[:, -1]
    # a float's ** calls C pow, which the array path does not: keep this
    # term per row so the gains stay bit-identical
    whole = np.array([t**2 / n for t in total.tolist()])
    nl = np.arange(1, n)  # rows left of each cut; nl[::-1] is n - nl
    left = csum[:, :-1]
    gains = left**2 / nl + (total[:, None] - left) ** 2 / nl[::-1] - whole[:, None]
    gains[~boundary] = -np.inf
    rows, best = np.arange(k), gains.argmax(axis=1)
    lower, upper = xs[rows, best], xs[rows, best + 1]
    mid = 0.5 * (lower + upper)  # may round up to upper, leaving no row right: cut at lower
    return gains[rows, best].tolist(), np.where(mid < upper, mid, lower).tolist()


def _best_numeric_split(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """:func:`_best_numeric_splits` of one sorted column on Python lists,
    float for float: the cumulative sum adds in sequence, the node term is
    squared by C ``pow`` (Python's ``**``, like a numpy scalar's) and each
    cut's terms by a product (numpy's array square)."""
    n = len(ys)
    csum = list(accumulate(ys))
    total = csum[-1]
    whole = total**2 / n
    best_gain, best = -math.inf, 0
    for i in range(n - 1):
        if xs[i + 1] > xs[i]:
            left = csum[i]
            right = total - left
            gain = left * left / (i + 1) + right * right / (n - 1 - i) - whole
            if gain > best_gain:
                best_gain, best = gain, i
    return best_gain, mid if (mid := 0.5 * (xs[best] + xs[best + 1])) < xs[best + 1] else xs[best]


def _best_categorical_split(
    xs: list[float], ys: list[float]
) -> tuple[float, frozenset[int]]:
    """(gain, left-subset) of the best subset split of a categorical column,
    given as sorted category codes ``xs`` and their targets ``ys`` in the
    same order; categories are ordered by mean response, which is optimal
    for squared error."""
    n = len(xs)
    # a category is one run of the sorted column, its rows in row order, so
    # _sum adds what a per-category mask's .sum() would, in the same order
    runs = []  # (mean, sum, count, code) per category, in code order
    a = 0
    while a < n:
        b = bisect_right(xs, xs[a], a)
        run_sum = _sum(ys[a:b])
        runs.append((run_sum / (b - a), run_sum, b - a, xs[a]))
        a = b
    if len(runs) < 2:
        return 0.0, frozenset()
    runs.sort(key=itemgetter(0))  # stable: equal means keep code order
    csum = list(accumulate([run[1] for run in runs]))
    total = csum[-1]
    best_gain, best_cut, nl = 0.0, 0, 0
    for cut in range(1, len(runs)):
        nl += runs[cut - 1][2]
        left = csum[cut - 1]
        gain = left**2 / nl + (total - left) ** 2 / (n - nl) - total**2 / n
        if gain > best_gain:
            best_gain, best_cut = gain, cut
    return best_gain, frozenset(int(run[3]) for run in runs[:best_cut])


def _fit_tree(X: np.ndarray, y: np.ndarray, presorted: np.ndarray, categorical: dict[int, int],
              max_depth: int, n_candidates: int, rng: PCG64) -> list[_Leaf]:
    """The leaves of one tree, depth first with the left child first, with
    ``presorted[f]`` the rows in stable order of column f. Each child is
    handed its box, so every leaf comes out with its own."""
    n, d = X.shape
    size = min(n_candidates, d)
    choice = rng.choice
    side = np.empty(n, dtype=bool)  # per row: goes to the left child
    leaves: list[_Leaf] = []
    cols, targets = X.T.tolist(), y.tolist()
    offsets = dict(zip(categorical, accumulate(categorical.values(), initial=0)))

    def boxes(f: int, where, lo: tuple, hi: tuple, admitted: int) -> tuple:
        """The boxes of the two children of a split on feature f."""
        if f in categorical:
            field = (1 << categorical[f]) - 1 << offsets[f]
            bits = sum(1 << offsets[f] + code for code in where)
            return (lo, hi, admitted & ~(field ^ bits)), (lo, hi, admitted & ~bits)
        return ((lo, hi[:f] + (min(hi[f], where),) + hi[f + 1:], admitted),
                (lo[:f] + (max(lo[f], where),) + lo[f + 1:], hi, admitted))

    def small(rows: list[int], depth: int, box: tuple) -> None:
        """The subtree over a node's few ``rows`` (ascending), on lists:
        candidate columns are sorted stably, which is the presorted order,
        so the tree and the random stream are the array path's."""
        ys = list(map(targets.__getitem__, rows))
        best_gain, best = 1e-12, None
        if depth < max_depth and len(rows) > 1 and max(ys) != min(ys):
            for f in choice(d, size):
                col = cols[f]
                order = sorted(rows, key=col.__getitem__)
                xs = list(map(col.__getitem__, order))
                if xs[0] == xs[-1]:  # constant: gains -inf or 0.0, never a split
                    continue
                split = _best_categorical_split if f in categorical else _best_numeric_split
                gain, where = split(xs, list(map(targets.__getitem__, order)))
                if gain > best_gain:
                    best_gain, best = gain, (f, where)
        if best is None:
            leaves.append((_sum(ys) / len(ys), *box))
            return
        f, where = best
        col = cols[f]
        left, right = boxes(f, where, *box)
        if f in categorical:
            small([r for r in rows if col[r] in where], depth + 1, left)
            small([r for r in rows if col[r] not in where], depth + 1, right)
        else:
            small([r for r in rows if col[r] <= where], depth + 1, left)
            small([r for r in rows if not col[r] <= where], depth + 1, right)

    def build(idx: np.ndarray, ranked: np.ndarray, depth: int, box: tuple) -> None:
        # idx: the node's rows in ascending order; ranked[f]: the same rows
        # ordered by (X[row, f], row), i.e. the presorted column filtered by
        # membership, which is what a per-node stable argsort would give
        if idx.size <= _SCALAR_ROWS:
            small(idx.tolist(), depth, box)
            return
        ys = y[idx]
        if depth >= max_depth or ys.max() == ys.min():
            leaves.append((float(ys.mean()), *box))
            return
        features = np.array(choice(d, size))
        rows = ranked[features]
        xs = X[rows, features[:, None]]
        ys_sorted = y[rows]
        boundary = xs[:, 1:] > xs[:, :-1]
        # categorical rows are scored too and their scores ignored: one pass
        # over all rows is cheaper than selecting the numeric ones
        gains, thresholds = _best_numeric_splits(xs, ys_sorted, boundary)
        best_gain, best = 1e-12, None
        for i, f in enumerate(features.tolist()):
            if f in categorical:
                gain, subset = _best_categorical_split(
                    xs[i].tolist(), ys_sorted[i].tolist())
                if gain > best_gain:
                    best_gain, best = gain, (f, subset)
            elif gains[i] > best_gain:
                best_gain, best = gains[i], (f, thresholds[i])
        if best is None:
            leaves.append((float(ys.mean()), *box))
            return
        f, where = best
        mask = np.isin(X[idx, f], list(where)) if f in categorical else X[idx, f] <= where
        left, right = boxes(f, where, *box)
        side[idx] = mask
        goes_left = side[ranked]
        n_left = int(np.count_nonzero(mask))
        build(idx[mask], ranked[goes_left].reshape(d, n_left), depth + 1, left)
        build(idx[~mask], ranked[~goes_left].reshape(d, idx.size - n_left),
              depth + 1, right)

    build(np.arange(n), presorted, 0,
          ((0.0,) * d, (1.0,) * d, (1 << sum(categorical.values())) - 1))
    # the recursive closures refer to themselves: break those cycles, so the
    # tree's lists are freed now rather than by a later garbage collection
    del build, small
    return leaves


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, each value's rank among the column's distinct values, so
    equal floats rank equal: a stable argsort of rows of ranks is that of
    the rows of floats, and numpy radix-sorts 16-bit keys."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    steps = np.concatenate((np.zeros((1, X.shape[1]), bool), xs[1:] > xs[:-1]))
    ranks = np.empty(X.shape, np.uint16 if len(X) < 1 << 16 else np.intp)
    np.put_along_axis(ranks, order, steps.cumsum(axis=0, dtype=ranks.dtype), axis=0)
    return ranks


def _tree_marginal_variances(leaves: list[_Leaf], d: int,
                             categorical: dict[int, int]) -> tuple[float, np.ndarray]:
    """Total variance of a tree's function under the uniform measure, and
    each feature's first-order marginal variance, from its leaves."""
    values, los, his, admitted = zip(*leaves)
    los, his = (np.fromiter(chain.from_iterable(b), float).reshape(-1, d) for b in (los, his))
    values = np.array(values)
    # per categorical feature, a (leaves, categories) array of admitted ones;
    # a mask may pass 64 bits, so it is unpacked from its bytes
    width = sum(categorical.values()) // 8 + 1
    raw = b"".join([m.to_bytes(width, "little") for m in admitted])
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, width), axis=1,
                         bitorder="little").astype(bool)
    starts = accumulate(categorical.values(), initial=0)
    members = {f: bits[:, a:a + k] for (f, k), a in zip(categorical.items(), starts)}
    widths = his - los
    sizes = np.where(widths < 0.0, 0.0, widths)
    for f, member in members.items():
        sizes[:, f] = member.sum(axis=1) / categorical[f]
    volumes = sizes.prod(axis=1)
    mean = float(volumes @ values)
    total_var = float(volumes @ values**2) - mean**2

    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(sizes > 0, volumes[:, None] / sizes, 0.0)
    wvs = (weights * values[:, None]).T.copy()  # row f: weight on f times value
    marginals = np.zeros(d)
    for f, wv in enumerate(wvs):
        if f in members:
            m = wv @ members[f]
            marginals[f] = float(np.mean((m - mean) ** 2))
        else:
            lo, hi = los[:, f], his[:, f]
            edges = np.sort(np.concatenate(([0.0, 1.0], lo, hi)))
            edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
            mids = 0.5 * (edges[:-1] + edges[1:])
            lengths = np.diff(edges)
            cover = (lo[:, None] <= mids[None, :]) & (mids[None, :] < hi[:, None])
            m = wv @ cover
            marginals[f] = float(lengths @ (m - mean) ** 2)
    return total_var, marginals


def _history_matrix(
    history: RunHistory,
) -> tuple[np.ndarray, np.ndarray, list[str], dict[int, int]]:
    """Feature matrix, targets, column names, and categorical column sizes
    from per-configuration highest-budget costs."""
    space = history.space
    entries = history.costs_at_highest_budget()
    categorical: dict[int, int] = {
        i: s.n_choices
        for i, s in enumerate(space.parameters)
        if s.kind == CATEGORICAL
    }
    configs = history.configurations()
    rows = [normalize(space, configs[cid]) for cid, _ in entries]
    ys = [cost.primary for _, cost in entries]
    X = np.array(rows, dtype=float)
    y = np.array(ys, dtype=float)
    return X, y, coordinate_names(space), categorical


def importance(
    history: RunHistory,
    trees: int = 32,
    seed: int = 0,
    max_depth: int = 12,
) -> ImportanceReport:
    """:func:`.analysis.fanova_first_order`.

    Each forest ranks every column once (:func:`_dense_ranks`), and each
    tree argsorts its bootstrap's ranks stably, which is the stable order of
    its floats. A child gets its parent's sorted rows filtered by
    membership, the presorted attribute lists of SLIQ (Mehta et al., EDBT
    1996). A node scores all its candidate columns in one 2-D pass; a
    subtree of at most ``_SCALAR_ROWS`` rows grows on Python lists and
    skips the candidates that are constant in its node. Both paths add in
    numpy's order (:func:`_sum`, :func:`_best_numeric_split`), so every
    forest, and every importance, is bit-identical to scoring each column
    on its own. Each tree's bootstrap (``rng.integers(n)`` n times), then
    its nodes' candidates in depth-first order (``rng.choice``), are drawn
    from one ``rng = PCG64(seed)``, the generator the search draws from:
    they are what ``default_rng(seed)`` would draw.
    """
    if trees < 1 or seed < 0:
        raise ForestSettingsError(f"need trees >= 1 and seed >= 0, got {trees}, {seed}")
    X, y, names, categorical = _history_matrix(history)
    if len(y) < 2 or len({tuple(r) for r in X.tolist()}) < 2:
        raise InsufficientDataError("need >= 2 distinct configurations")
    d = X.shape[1]
    if np.ptp(y) == 0.0:
        zeros = {n: 0.0 for n in names}
        return ImportanceReport(dict(zeros), dict(zeros))

    rng = PCG64(seed)
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    ranks = _dense_ranks(X)
    fractions = np.zeros((trees, d))
    used = np.zeros(trees, dtype=bool)
    for t in range(trees):
        bootstrap = np.array([rng.integers(len(y)) for _ in range(len(y))])
        presorted = np.argsort(ranks[bootstrap].T, axis=1, kind="stable")
        leaves = _fit_tree(X[bootstrap], y[bootstrap], presorted, categorical, max_depth,
                           n_candidates, rng)
        total_var, marginals = _tree_marginal_variances(leaves, d, categorical)
        if total_var > 0.0:
            fractions[t] = marginals / total_var
            used[t] = True
    if not used.any():
        zeros = {n: 0.0 for n in names}
        return ImportanceReport(dict(zeros), dict(zeros))
    mean = fractions[used].mean(axis=0)
    var = fractions[used].var(axis=0)
    return ImportanceReport(
        {n: float(mean[i]) for i, n in enumerate(names)},
        {n: float(var[i]) for i, n in enumerate(names)},
    )


