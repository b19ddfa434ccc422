import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jahsband as jb
from jahsband import configspace as cs
from jahsband import _forest
from jahsband._forest import (
    _SCALAR_ROWS,
    _best_categorical_split,
    _best_numeric_split,
    _best_numeric_splits,
    _dense_ranks,
    _sum,
)
from jahsband.analysis import (
    InsufficientDataError,
    SpaceMismatchError,
    cross_eval,
    export_reports,
    fanova_first_order,
    write_crosseval_csv,
)
from jahsband.harness import SyntheticProblem
from jahsband.moo import CostVector

from conftest import dominates, float_space, history_from_table
import fanova_oracle as oracle

SPACES_DIR = Path(__file__).resolve().parents[1] / "spaces"


def grid_history(fn, n=32, names=("x", "y")):
    space = cs.build_space([
        cs.ParameterSpec(name, "float", lo=0.0, hi=1.0, default=0.5)
        for name in names
    ])
    rows = []
    for xv in np.linspace(0, 1, n):
        for yv in np.linspace(0, 1, n):
            config = cs.Configuration({names[0]: float(xv), names[1]: float(yv)})
            rows.append((config, float(fn(xv, yv)), 1.0))
    return history_from_table(space, rows)


class TestFanova:
    def test_single_variable_function(self):
        report = fanova_first_order(grid_history(lambda x, y: x), trees=32, seed=0)
        assert report.importances["x"] >= 0.9
        assert report.importances["y"] <= 0.05

    def test_additive_function_splits_evenly(self):
        report = fanova_first_order(
            grid_history(lambda x, y: x + y), trees=32, seed=0
        )
        assert 0.4 <= report.importances["x"] <= 0.6
        assert 0.4 <= report.importances["y"] <= 0.6

    def test_constant_objective_all_zero(self):
        report = fanova_first_order(
            grid_history(lambda x, y: 0.7, n=8), trees=8, seed=0
        )
        assert set(report.importances.values()) == {0.0}

    def test_insufficient_data(self):
        space = float_space(2)
        history = history_from_table(
            space, [(cs.Configuration({"p0": 0.5, "p1": 0.5}), 0.3, 1.0)]
        )
        with pytest.raises(InsufficientDataError):
            fanova_first_order(history, trees=4, seed=0)

    def test_affine_rescaling_invariance(self):
        base = fanova_first_order(grid_history(lambda x, y: x + 0.2 * y,
                                               n=16), trees=16, seed=0)
        scaled = fanova_first_order(
            grid_history(lambda x, y: 40.0 * (x + 0.2 * y) - 7.0, n=16),
            trees=16, seed=0,
        )
        for name in ("x", "y"):
            assert abs(base.importances[name] - scaled.importances[name]) <= 0.05

    def test_first_order_sum_below_one(self, rng):
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, size=3)
            report = fanova_first_order(
                grid_history(
                    lambda x, y: coeffs[0] * x + coeffs[1] * y
                    + coeffs[2] * x * y,
                    n=16,
                ),
                trees=16,
                seed=int(rng.integers(1000)),
            )
            assert sum(report.importances.values()) <= 1.0 + 1e-9

    def test_categorical_effect_detected(self):
        space = cs.build_space([
            cs.ParameterSpec("c", "categorical", values=("a", "b", "c"),
                             default="a"),
            cs.ParameterSpec("z", "float", lo=0.0, hi=1.0, default=0.5),
        ])
        effect = {"a": 0.0, "b": 0.5, "c": 1.0}
        rows = []
        rng = np.random.default_rng(0)
        for _ in range(400):
            cat = ("a", "b", "c")[int(rng.integers(3))]
            zv = float(rng.uniform())
            rows.append(
                (cs.Configuration({"c": cat, "z": zv}), effect[cat], 1.0)
            )
        report = fanova_first_order(history_from_table(space, rows),
                                    trees=16, seed=0)
        assert report.importances["c"] > 0.8
        assert report.importances["z"] < 0.1

    def test_variance_across_trees_reported(self):
        report = fanova_first_order(grid_history(lambda x, y: x), trees=16,
                                    seed=0)
        assert set(report.variances) == set(report.importances)
        assert all(v >= 0 for v in report.variances.values())


@st.composite
def mixed_histories(draw):
    """Histories over floats and categoricals with many ties: values come
    from small pools, rows repeat, and some categories never occur."""
    n_float = draw(st.integers(0, 3))
    ks = draw(st.lists(st.integers(2, 5), min_size=0 if n_float else 1,
                       max_size=2))
    specs = [cs.ParameterSpec(f"x{i}", "float", lo=0.0, hi=1.0, default=0.5)
             for i in range(n_float)]
    specs += [cs.ParameterSpec(f"c{i}", "categorical",
                               values=tuple(f"v{j}" for j in range(k)),
                               default="v0")
              for i, k in enumerate(ks)]
    space = cs.build_space(specs)
    pool = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)
    float_pools = [draw(pool) for _ in range(n_float)]
    used = [sorted(draw(st.sets(st.integers(0, k - 1), min_size=1)))
            for k in ks]
    row = st.fixed_dictionaries({
        **{f"x{i}": st.sampled_from(p) for i, p in enumerate(float_pools)},
        **{f"c{i}": st.sampled_from([f"v{j}" for j in u])
           for i, u in enumerate(used)},
    })
    # up to several times _SCALAR_ROWS, so most trees grow their top nodes
    # on arrays and the rest on lists, and some stay on lists throughout
    n = draw(st.integers(2, 200))
    base = draw(st.lists(row, min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.sampled_from(draw(pool)), min_size=n, max_size=n))
    rows = [(cs.Configuration(dict(base[i])), y, 1.0) for i, y in zip(picks, ys)]
    return history_from_table(space, rows)


def grammar_space_history():
    space = cs.load_space(SPACES_DIR / "jahs_table3_4.json")
    problem = SyntheticProblem.from_space(space)
    return jb.run(space, problem, jb.budget_ladder(1, 27, 3), seed=4).history


def assert_matches_oracle(history, trees, seed, max_depth):
    report = fanova_first_order(history, trees=trees, seed=seed,
                                max_depth=max_depth)
    importances, variances = oracle.fanova_first_order(
        history, trees=trees, seed=seed, max_depth=max_depth)
    assert list(report.importances) == list(importances)
    assert [repr(v) for v in report.importances.values()] == [
        repr(v) for v in importances.values()]
    assert [repr(v) for v in report.variances.values()] == [
        repr(v) for v in variances.values()]


class TestFanovaMatchesOracle:
    """The presorted forest, with its small subtrees grown on Python lists,
    equals the frozen per-node forest float for float."""

    @settings(max_examples=120, deadline=None)
    @given(history=mixed_histories(), trees=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), max_depth=st.integers(1, 12))
    def test_property(self, history, trees, seed, max_depth):
        X = [tuple(sorted(c.assignments.items()))
             for c in history.configurations().values()]
        if len(set(X)) < 2:
            with pytest.raises(InsufficientDataError):
                fanova_first_order(history, trees=trees, seed=seed,
                                   max_depth=max_depth)
            return
        assert_matches_oracle(history, trees, seed, max_depth)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           n=st.integers(2, 300), distinct=st.integers(1, 8),
           scale=st.sampled_from([1.0, 1e3, 1e-3]))
    def test_split_scores(self, seed, k, n, distinct, scale):
        """Gains, thresholds and subsets per column, float for float, on
        columns with ties and targets whose sums round differently when
        added in another order."""
        rng = np.random.default_rng(seed)
        pool = rng.uniform(size=distinct)
        X = pool[rng.integers(distinct, size=(k, n))]
        y = rng.normal(scale=scale, size=n)
        order = np.argsort(X, axis=1, kind="stable")
        xs = np.take_along_axis(X, order, axis=1)
        ys = y[order]
        boundary = xs[:, 1:] > xs[:, :-1]
        gains, thresholds = _best_numeric_splits(xs, ys, boundary)
        for i in range(k):
            gain, threshold = oracle._best_numeric_split(X[i], y)
            if boundary[i].any():
                assert (repr(gains[i]), repr(thresholds[i])) == (
                    repr(gain), repr(threshold))
            else:
                assert gains[i] == -np.inf and gain == 0.0
            # the list path scores the same sorted rows to the same floats
            assert repr(_best_numeric_split(xs[i].tolist(), ys[i].tolist())) \
                == repr((gains[i], thresholds[i]))
            codes = np.unique(X[i], return_inverse=True)[1].astype(float)
            gain, subset = _best_categorical_split(
                codes[order[i]].tolist(), ys[i].tolist())
            expected_gain, expected_subset = oracle._best_categorical_split(
                codes, y)
            assert (repr(gain), subset) == (repr(expected_gain), expected_subset)

    def test_node_total_squared_by_scalar_pow(self):
        # 566.2550030853232**2 rounds differently through C pow and through
        # numpy's array square; the node term must take the scalar path
        x = np.array([[0.0, 1.0]])
        y = np.array([566.2550030853232, 0.0])
        gains, _ = _best_numeric_splits(x, y[None, :], x[:, 1:] > x[:, :-1])
        expected = repr(oracle._best_numeric_split(x[0], y)[0])
        assert repr(gains[0]) == expected
        assert repr(_best_numeric_split([0.0, 1.0], y.tolist())[0]) == expected

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, _SCALAR_ROWS) | st.integers(_SCALAR_ROWS + 1, 600),
           scale=st.sampled_from([1.0, 1e3, 1e-3]))
    def test_sum_adds_in_numpy_order(self, seed, n, scale):
        """_sum is ndarray.sum() and _sum / n is ndarray.mean(), bit for
        bit: sequential below 8 numbers, 8 accumulators up to 128, pairwise
        halves above (the categorical scorer sums long runs on big nodes)."""
        y = np.random.default_rng(seed).normal(scale=scale, size=n)
        values = y.tolist()
        assert repr(_sum(values)) == repr(float(y.sum()))
        assert repr(_sum(values) / n) == repr(float(y.mean()))

    @pytest.mark.parametrize("cutoff", [0, 10**6])
    def test_array_and_list_paths_alone(self, monkeypatch, cutoff):
        # 0 grows every node on arrays, 10**6 every node on lists
        monkeypatch.setattr(_forest, "_SCALAR_ROWS", cutoff)
        assert_matches_oracle(grammar_space_history(), trees=8, seed=0,
                              max_depth=12)

    def test_grammar_space_run(self):
        assert_matches_oracle(grammar_space_history(), trees=8, seed=0,
                              max_depth=12)

    @pytest.mark.parametrize("cutoff", [0, 10**6])
    def test_split_between_adjacent_floats(self, monkeypatch, cutoff):
        # 0.5 * (1.0 - 2**-53 + 1.0) rounds to 1.0, which would send every
        # row left and leave the right child without rows
        monkeypatch.setattr(_forest, "_SCALAR_ROWS", cutoff)
        below = float(np.nextafter(1.0, 0.0))
        rows = [(cs.Configuration({"p0": x, "p1": 0.0}), y, 1.0)
                for x, y in [(below, 0.0)] * 60 + [(1.0, 1.0)] * 2]
        history = history_from_table(float_space(2), rows)
        assert_matches_oracle(history, trees=1, seed=6, max_depth=1)
        report = fanova_first_order(history, trees=4, seed=0, max_depth=4)
        assert all(math.isfinite(v) for v in report.variances.values())

    @pytest.mark.parametrize("ks", [[64], [40, 24], [70], [33, 37]])
    def test_categories_past_64_bits(self, ks):
        # a leaf's admitted categories of all features fill 64 bits or more
        specs = [cs.ParameterSpec("x", "float", lo=0.0, hi=1.0, default=0.5)]
        specs += [cs.ParameterSpec(f"c{i}", "categorical",
                                   values=tuple(f"v{j}" for j in range(k)),
                                   default="v0")
                  for i, k in enumerate(ks)]
        rng = np.random.default_rng(sum(ks))
        rows = []
        for _ in range(300):
            codes = [int(rng.integers(k)) for k in ks]
            config = cs.Configuration({
                "x": float(rng.uniform()),
                **{f"c{i}": f"v{c}" for i, c in enumerate(codes)}})
            rows.append((config, float(sum(c % 5 for c in codes) + rng.normal()), 1.0))
        assert_matches_oracle(history_from_table(cs.build_space(specs), rows),
                              trees=4, seed=0, max_depth=12)


class TestCrossEval:
    def make_problems(self):
        space = float_space(3)
        p1 = SyntheticProblem.from_space(
            space, optimum={f"p{i}": 0.1 for i in range(3)}, b_max=100)
        p2 = SyntheticProblem.from_space(
            space, optimum={f"p{i}": 0.9 for i in range(3)}, b_max=100)
        inc1 = cs.Configuration({f"p{i}": 0.1 for i in range(3)})
        inc2 = cs.Configuration({f"p{i}": 0.9 for i in range(3)})
        return space, [p1, p2], [inc1, inc2]

    def test_one_by_one(self):
        space, problems, incumbents = self.make_problems()
        matrix = cross_eval(problems[:1], incumbents[:1])
        assert matrix.cells.shape == (1, 1)
        assert matrix.column_means[0] == matrix.cells[0, 0]

    def test_diagonal_advantage(self):
        _, problems, incumbents = self.make_problems()
        matrix = cross_eval(problems, incumbents)
        assert matrix.cells[0, 0] < matrix.cells[0, 1]
        assert matrix.cells[1, 1] < matrix.cells[1, 0]

    def test_diagonal_matches_direct_evaluation(self):
        _, problems, incumbents = self.make_problems()
        matrix = cross_eval(problems, incumbents)
        direct = problems[0].evaluate(incumbents[0], 100).primary
        assert matrix.cells[0, 0] == direct

    def test_noise_disabled(self):
        space, _, incumbents = self.make_problems()
        noisy = SyntheticProblem.from_space(
            space, optimum={f"p{i}": 0.1 for i in range(3)}, b_max=100,
            noise=0.5)
        a = cross_eval([noisy], incumbents[:1])
        b = cross_eval([noisy], incumbents[:1])
        assert a.cells[0, 0] == b.cells[0, 0]
        assert a.cells[0, 0] == pytest.approx(0.0)

    def test_space_mismatch(self):
        space, problems, incumbents = self.make_problems()
        other_space = float_space(2)
        p_other = SyntheticProblem.from_space(other_space, optimum={"p0": 0.5},
                                              b_max=100)
        with pytest.raises(SpaceMismatchError):
            cross_eval([problems[0], p_other], incumbents)

    def test_csv_has_mean_row(self, tmp_path):
        _, problems, incumbents = self.make_problems()
        matrix = cross_eval(problems, incumbents,
                            problem_labels=["p1", "p2"],
                            incumbent_labels=["i1", "i2"])
        path = tmp_path / "crosseval.csv"
        write_crosseval_csv(matrix, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "problem,i1,i2"
        assert len(lines) == 4
        assert lines[-1].startswith("mean,")
        # plain floats, not numpy scalar reprs
        cells = [[float(c) for c in line.split(",")[1:]] for line in lines[1:]]
        assert cells == [*matrix.cells.tolist(), matrix.column_means.tolist()]


class TestExports:
    def run_small(self, seed=0):
        space = float_space(3)
        problem = SyntheticProblem.from_space(
            space, optimum={f"p{i}": 0.25 for i in range(3)},
            b_max=27, size_parameters=("p2",))
        ladder = jb.budget_ladder(1, 27, 3)
        return jb.run(space, problem, ladder, seed=seed)

    def test_byte_stable(self, tmp_path):
        result = self.run_small()
        first = export_reports(result, tmp_path / "a")
        second = export_reports(result, tmp_path / "b")
        for f1, f2 in zip(first, second):
            assert f1.read_bytes() == f2.read_bytes()

    def test_trajectory_non_increasing(self, tmp_path):
        result = self.run_small(seed=3)
        export_reports(result, tmp_path)
        lines = (tmp_path / "incumbent_trajectory.csv").read_text().splitlines()[1:]
        values = [float(l.split(",")[2]) for l in lines if l.split(",")[2]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_pareto_points_mutually_non_dominated(self, tmp_path):
        result = self.run_small(seed=5)
        export_reports(result, tmp_path)
        payload = json.loads((tmp_path / "pareto.json").read_text())
        points = [
            CostVector(p["primary"], p["runtime_hours"])
            for p in payload["points"]
        ]
        assert points
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i != j:
                    assert not dominates(a, b)

    def test_importance_included_on_request(self, tmp_path):
        result = self.run_small(seed=1)
        files = export_reports(result, tmp_path, importance=True, trees=8)
        assert (tmp_path / "importance.json").exists()
        payload = json.loads((tmp_path / "importance.json").read_text())
        assert set(payload) == {"p0", "p1", "p2"}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), d=st.integers(1, 4))
def test_rank_presort_is_the_float_presort(seed, n, d):
    # few distinct values, so ties are common, with -0.0 and 0.0 among them
    gen = np.random.default_rng(seed)
    X = gen.choice(np.array([-0.0, 0.0, 0.25, 0.5, 1e-300, 1.0]), size=(n, d))
    ranks = _dense_ranks(X)
    assert ranks.dtype == np.uint16
    for _ in range(3):
        bootstrap = gen.integers(n, size=n)
        assert np.array_equal(np.argsort(ranks[bootstrap].T, axis=1, kind="stable"),
                              np.argsort(X[bootstrap].T, axis=1, kind="stable"))
