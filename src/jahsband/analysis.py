"""Post-hoc analysis of run histories.

Hyperparameter importance follows the functional-ANOVA recipe: fit a random
forest on (normalized configuration -> primary cost), then for each tree
compute every parameter's first-order marginal variance exactly from the
tree's leaf partition, and report marginal variance over total variance,
averaged across trees. The forest is built in-package because categorical
parameters need genuine subset splits (ordered-by-mean, the optimal binary
partition for regression), which threshold-only tree libraries cannot
express.

Cross-evaluation matrices replay incumbent configurations across problems at
the top budget, noise-free.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from pathlib import Path

import numpy as np

from .configspace import CATEGORICAL, Configuration, coordinate_names, normalize
from .priorband import RunHistory, RunResult, write_history_csv


class InsufficientDataError(ValueError):
    """Too few distinct configurations to fit anything."""


class ForestSettingsError(ValueError):
    """An importance forest needs at least one tree and a seed >= 0."""


class SpaceMismatchError(ValueError):
    """Cross-evaluation inputs do not share one search space."""


@dataclass(frozen=True)
class ImportanceReport:
    """Per-parameter importance fraction and its variance across trees."""

    importances: dict[str, float]
    variances: dict[str, float]

    def to_dict(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "importance": self.importances[name],
                "variance": self.variances[name],
            }
            for name in self.importances
        }


# forest internals

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


# A subtree whose root holds at most this many rows grows on Python lists
# (:func:`_fit_small`), where numpy's per-call overhead would outweigh its
# per-row speed. Larger nodes keep the presorted numpy path, which is faster
# there; :func:`_sum` adds a list of any length as numpy would
_SCALAR_ROWS = 32


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
    # numpy scalar ** calls C pow, which the array path does not: keep this
    # term per row so the gains stay bit-identical
    whole = np.array([t**2 / n for t in total])
    nl = np.arange(1, n)  # rows left of each cut; nl[::-1] is n - nl
    left = csum[:, :-1]
    gains = left**2 / nl + (total[:, None] - left) ** 2 / nl[::-1] - whole[:, None]
    gains[~boundary] = -np.inf
    best = gains.argmax(axis=1)
    rows = np.arange(k)
    thresholds = 0.5 * (xs[rows, best] + xs[rows, best + 1])
    return gains[rows, best].tolist(), thresholds.tolist()


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
    return best_gain, 0.5 * (xs[best] + xs[best + 1])


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


def _fit_small(
    cols: list[list[float]],
    y: list[float],
    depth: int,
    categorical: dict[int, int],
    max_depth: int,
    n_candidates: int,
    rng: np.random.Generator,
) -> _Node:
    """The subtree :func:`_fit_tree` grows over a few rows, on Python lists:
    ``cols[f]`` holds column f of the subtree's rows, in row order, and
    ``y`` their targets. Each node sorts its candidate columns stably, which
    is the presorted order, and draws its candidates as the array path
    does, so the tree and the random stream are the same."""
    d = len(cols)
    size = min(n_candidates, d)

    def build(rows: list[int], depth: int) -> _Node:
        ys = list(map(y.__getitem__, rows))
        if depth >= max_depth or len(rows) < 2 or max(ys) == min(ys):
            return _Node(_LEAF, value=_sum(ys) / len(ys))
        best_gain, best = 1e-12, None
        for f in rng.choice(d, size=size, replace=False).tolist():
            col = cols[f]
            order = sorted(rows, key=col.__getitem__)
            xs = list(map(col.__getitem__, order))
            ys_sorted = list(map(y.__getitem__, order))
            if f in categorical:
                gain, where = _best_categorical_split(xs, ys_sorted)
                kind = _CATEGORICAL_SPLIT
            else:
                gain, where = _best_numeric_split(xs, ys_sorted)
                kind = _NUMERIC_SPLIT
            if gain > best_gain:
                best_gain, best = gain, (kind, f, where)
        if best is None:
            return _Node(_LEAF, value=_sum(ys) / len(ys))
        kind, f, where = best
        col = cols[f]
        if kind == _NUMERIC_SPLIT:
            left = build([r for r in rows if col[r] <= where], depth + 1)
            right = build([r for r in rows if not col[r] <= where], depth + 1)
            return _Node(kind, f, threshold=where, left=left, right=right)
        left = build([r for r in rows if col[r] in where], depth + 1)
        right = build([r for r in rows if col[r] not in where], depth + 1)
        return _Node(kind, f, subset=where, left=left, right=right)

    return build(list(range(len(y))), depth)


def _fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    categorical: dict[int, int],
    max_depth: int,
    n_candidates: int,
    rng: np.random.Generator,
) -> _Node:
    n, d = X.shape
    side = np.empty(n, dtype=bool)  # per row: goes to the left child

    def build(idx: np.ndarray, ranked: np.ndarray, depth: int) -> _Node:
        # idx: the node's rows in ascending order; ranked[f]: the same rows
        # ordered by (X[row, f], row), i.e. the presorted column filtered by
        # membership, which is what a per-node stable argsort would give
        if idx.size <= _SCALAR_ROWS:
            return _fit_small(X[idx].T.tolist(), y[idx].tolist(), depth,
                              categorical, max_depth, n_candidates, rng)
        ys = y[idx]
        if depth >= max_depth or ys.max() == ys.min():
            return _Node(_LEAF, value=float(ys.mean()))
        features = rng.choice(d, size=min(n_candidates, d), replace=False)
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
                    best_gain, best = gain, (_CATEGORICAL_SPLIT, f, subset)
            elif gains[i] > best_gain:
                best_gain, best = gains[i], (_NUMERIC_SPLIT, f, thresholds[i])
        if best is None:
            return _Node(_LEAF, value=float(ys.mean()))
        kind, f, where = best
        if kind == _NUMERIC_SPLIT:
            mask = X[idx, f] <= where
        else:
            mask = np.isin(X[idx, f], list(where))
        side[idx] = mask
        goes_left = side[ranked]
        n_left = int(np.count_nonzero(mask))
        left = build(idx[mask], ranked[goes_left].reshape(d, n_left), depth + 1)
        right = build(idx[~mask], ranked[~goes_left].reshape(d, idx.size - n_left),
                      depth + 1)
        if kind == _NUMERIC_SPLIT:
            return _Node(kind, f, threshold=where, left=left, right=right)
        return _Node(kind, f, subset=where, left=left, right=right)

    return build(np.arange(n), np.argsort(X.T, axis=1, kind="stable"), 0)


def _collect_leaves(
    root: _Node, d: int, categorical: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Leaf values and boxes, depth first with the left child first: per
    leaf, the [lo, hi) interval of every feature (unused on categorical
    ones) and, per categorical feature, a (leaves, categories) boolean
    array of the categories each leaf admits."""
    lo, hi = [0.0] * d, [1.0] * d
    admitted = {f: np.ones(k, dtype=bool) for f, k in categorical.items()}
    values: list[float] = []
    los: list[list[float]] = []
    his: list[list[float]] = []
    members: dict[int, list[np.ndarray]] = {f: [] for f in categorical}

    def walk(node: _Node) -> None:
        if node.kind == _LEAF:
            values.append(node.value)
            los.append(lo.copy())
            his.append(hi.copy())
            # admitted arrays are replaced, never written, so sharing is safe
            for f, row in admitted.items():
                members[f].append(row)
            return
        f = node.feature
        if node.kind == _NUMERIC_SPLIT:
            saved_lo, saved_hi = lo[f], hi[f]
            hi[f] = min(saved_hi, node.threshold)
            walk(node.left)
            hi[f] = saved_hi
            lo[f] = max(saved_lo, node.threshold)
            walk(node.right)
            lo[f] = saved_lo
        else:
            saved = admitted[f]
            subset = np.zeros(categorical[f], dtype=bool)
            subset[list(node.subset)] = True
            admitted[f] = saved & subset
            walk(node.left)
            admitted[f] = saved & ~subset
            walk(node.right)
            admitted[f] = saved

    walk(root)
    return (np.array(values), np.array(los), np.array(his),
            {f: np.array(rows) for f, rows in members.items()})


def _tree_marginal_variances(
    root: _Node, d: int, categorical: dict[int, int]
) -> tuple[float, np.ndarray]:
    """Total variance of the tree's function under the uniform measure, and
    each feature's first-order marginal variance."""
    values, los, his, members = _collect_leaves(root, d, categorical)
    widths = his - los
    sizes = np.where(widths < 0.0, 0.0, widths)
    for f, member in members.items():
        sizes[:, f] = member.sum(axis=1) / categorical[f]
    volumes = sizes.prod(axis=1)
    mean = float(volumes @ values)
    total_var = float(volumes @ values**2) - mean**2

    marginals = np.zeros(d)
    for f in range(d):
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(sizes[:, f] > 0, volumes / sizes[:, f], 0.0)
        wv = weights * values
        if f in members:
            m = wv @ members[f]
            marginals[f] = float(np.mean((m - mean) ** 2))
        else:
            lo, hi = los[:, f], his[:, f]
            edges = np.unique(np.concatenate(([0.0, 1.0], lo, hi)))
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


def fanova_first_order(
    history: RunHistory,
    trees: int = 32,
    seed: int = 0,
    max_depth: int = 12,
) -> ImportanceReport:
    """First-order importance of every parameter over a run history.

    Costs are taken at each configuration's highest completed budget. A
    constant objective yields all-zero importances. Raises
    :class:`InsufficientDataError` below two distinct configurations.

    Each tree argsorts every column once, stably, and hands each child its
    parent's sorted rows filtered by membership, the presorted attribute
    lists of SLIQ (Mehta et al., EDBT 1996). A node scores all its
    candidate columns in one 2-D pass (cumulative sums, boundary mask,
    first maximum per row). Sums are added in the order a per-node sort
    would give, so every forest, and every importance, is bit-identical to
    scoring each column on its own.

    A subtree whose root holds at most ``_SCALAR_ROWS`` (32) rows grows on
    Python lists instead, where numpy's per-call cost would dominate: each
    of its nodes sorts its candidate columns stably and scores them one by
    one. That scalar path adds in numpy's order, so the forest stays
    bit-identical: cumulative sums in sequence; a node's ``.sum()`` and
    ``.mean()`` as numpy's pairwise sum (sequential below 8 numbers, 8
    accumulators up to 128, halves added pairwise above); the node term
    ``total**2 / n`` through C ``pow``; each cut's squares as products, as
    numpy squares an array. It draws each node's candidates from ``rng`` at
    the same point, depth first, so the random stream does not change
    either.
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
        return ImportanceReport(dict(zeros), dict(zeros))
    mean = fractions[used].mean(axis=0)
    var = fractions[used].var(axis=0)
    return ImportanceReport(
        {n: float(mean[i]) for i, n in enumerate(names)},
        {n: float(var[i]) for i, n in enumerate(names)},
    )


@dataclass(frozen=True)
class CrossEvalMatrix:
    """cells[i, j] = primary cost of incumbent j evaluated on problem i at
    the top budget; column_means[j] averages incumbent j across problems."""

    problem_labels: tuple[str, ...]
    incumbent_labels: tuple[str, ...]
    cells: np.ndarray
    column_means: np.ndarray


def cross_eval(
    problems: list,
    incumbents: list[Configuration],
    b_max: int,
    problem_labels: list[str] | None = None,
    incumbent_labels: list[str] | None = None,
) -> CrossEvalMatrix:
    """Evaluate every incumbent on every problem at the top budget,
    noise-free. All problems must share one search space."""
    if not problems or not incumbents:
        raise ValueError("need at least one problem and one incumbent")
    reference = problems[0].space
    for problem in problems:
        if problem.space.names != reference.names:
            raise SpaceMismatchError("problems use different search spaces")
    for incumbent in incumbents:
        try:
            reference.validate(incumbent)
        except Exception as exc:
            raise SpaceMismatchError(f"incumbent invalid for shared space: {exc}")
    cells = np.empty((len(problems), len(incumbents)))
    for i, problem in enumerate(problems):
        noise_free = problem.without_noise() if hasattr(problem, "without_noise") else problem
        for j, incumbent in enumerate(incumbents):
            cells[i, j] = noise_free.evaluate(incumbent, b_max).primary
    return CrossEvalMatrix(
        tuple(problem_labels or [f"problem_{i}" for i in range(len(problems))]),
        tuple(incumbent_labels or [f"incumbent_{j}" for j in range(len(incumbents))]),
        cells,
        cells.mean(axis=0),
    )


def write_crosseval_csv(matrix: CrossEvalMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["problem"] + list(matrix.incumbent_labels))
        for i, label in enumerate(matrix.problem_labels):
            writer.writerow([label] + [repr(v) for v in matrix.cells[i]])
        writer.writerow(["mean"] + [repr(v) for v in matrix.column_means])


# report export

def _pareto_payload(result: RunResult) -> dict:
    points = []
    for config, cost in result.pareto_front:
        points.append(
            {
                "config": config.assignments,
                "architecture": config.serialized_architecture or None,
                "primary": cost.primary,
                "runtime_hours": cost.runtime_hours,
            }
        )
    return {"points": points}


def write_pareto_json(result: RunResult, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_pareto_payload(result), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_incumbent_trajectory(history: RunHistory, path: str | Path) -> None:
    """Charged epochs (continuation-aware, cumulative) against the best
    primary cost seen at the top budget so far; one row per trial."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "charged_epochs", "incumbent_primary"])
        charged = 0
        best: float | None = None
        for i, t in enumerate(history.trials):
            charged += t.charged_epochs
            if t.status == "ok" and t.cost is not None and t.budget == history.b_max:
                best = t.cost.primary if best is None else min(best, t.cost.primary)
            writer.writerow([i, charged, repr(best) if best is not None else ""])


def write_importance_json(report: ImportanceReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def export_reports(
    result: RunResult,
    out_dir: str | Path,
    importance: bool = False,
    trees: int = 32,
    seed: int = 0,
) -> list[Path]:
    """Write history.csv, pareto.json, and incumbent_trajectory.csv (plus
    importance.json on request) under out_dir; byte-stable given identical
    inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    history_path = out / "history.csv"
    write_history_csv(result.history, history_path)
    written.append(history_path)
    pareto_path = out / "pareto.json"
    write_pareto_json(result, pareto_path)
    written.append(pareto_path)
    trajectory_path = out / "incumbent_trajectory.csv"
    write_incumbent_trajectory(result.history, trajectory_path)
    written.append(trajectory_path)
    if importance:
        report = fanova_first_order(result.history, trees=trees, seed=seed)
        importance_path = out / "importance.json"
        write_importance_json(report, importance_path)
        written.append(importance_path)
    return written
