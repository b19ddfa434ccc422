"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest

import jahsband as jb
from jahsband import configspace as cs, grammar as hg
from jahsband.analysis import export_reports, fanova_first_order
from jahsband.cli import main as cli_main
from jahsband.harness import ReplayProblem, SyntheticProblem, dsc
from jahsband.moo import CostVector, crowding_distance, non_dominated_sort, select_top_k
from jahsband.priorband import final_incumbent, read_history_csv, sampler_weights
from jahsband.scheduler import budget_ladder, charge_cost

from conftest import brute_force_fronts, float_space

SPACES_DIR = Path(__file__).resolve().parents[1] / "spaces"


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:02d}: PASS - {description}")

        return wrapper

    return decorate


def ilen(iterable) -> int:
    counter = itertools.count()
    deque(zip(iterable, counter), maxlen=0)
    return next(counter)


@criterion(1, "non-dominated sorting matches brute force on 1000 instances")
def test_01_non_dominated_sort_equivalence():
    rng = np.random.default_rng(20240101)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        points = [
            CostVector(float(p), float(r))
            for p, r in zip(rng.uniform(size=n), rng.uniform(0, 24, size=n))
        ]
        assert non_dominated_sort(points) == brute_force_fronts(points)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "top-k promotion always includes the minimum-primary point")
def test_02_promotion_guarantee():
    rng = np.random.default_rng(20240102)
    for _ in range(10_000):
        n = int(rng.integers(1, 26))
        duplicate_heavy = rng.random() < 0.2
        if duplicate_heavy:
            primary = rng.integers(0, 4, size=n).astype(float)
            runtime = rng.integers(0, 4, size=n).astype(float)
        else:
            primary = rng.uniform(size=n)
            runtime = rng.uniform(0, 9, size=n)
        points = [CostVector(float(p), float(r)) for p, r in zip(primary, runtime)]
        k = int(rng.integers(1, n + 1))
        chosen = select_top_k(points, k)
        assert min(points[i].primary for i in chosen) == min(primary)


@criterion(3, "crowding distance hand case [inf, 2.0, inf]")
def test_03_crowding_distance_hand_case():
    dists = crowding_distance(
        [CostVector(1, 5), CostVector(2, 4), CostVector(3, 3)]
    )
    assert dists[0] == float("inf")
    assert dists[2] == float("inf")
    assert dists[1] == 2.0


@criterion(4, "weight schedule exact; strategy draws within 3-sigma")
def test_04_weight_schedule():
    for r, expected in [(0, 0.5), (1, 0.25), (2, 0.1)]:
        weights = sampler_weights(r, 3)
        assert weights.random == expected
        assert weights.prior == 1 - expected
        assert weights.incumbent == 0.0
    rng = np.random.default_rng(20240104)
    weights = sampler_weights(0, 3)
    draws = rng.choice(3, size=10_000, p=weights.as_array())
    counts = Counter(draws.tolist())
    for idx, p in enumerate(weights.as_array()):
        sigma = np.sqrt(p * (1 - p) / 10_000)
        assert abs(counts.get(idx, 0) / 10_000 - p) <= 3 * sigma


@criterion(5, "budget ladder (10,1000,3) and continuation charges exact")
def test_05_budget_ladder():
    ladder = budget_ladder(10, 1000, 3)
    assert ladder.s_max == 4
    assert ladder.rung_budgets == (12, 37, 111, 333, 1000)
    chain = list(ladder.rung_budgets)
    assert charge_cost(chain, "continuation") == 1000
    assert charge_cost(chain, "restart") == 1493


@criterion(6, "grammar enumeration equals analytic count; roundtrip identity")
def test_06_grammar_self_consistency():
    start = time.monotonic()
    for n_stages in (2, 3, 4):
        for scale in (1, 2):
            grammar = hg.build_grammar(n_stages, scale)
            analytic = hg.count_derivations(grammar)
            assert ilen(hg.enumerate_derivations(grammar)) == analytic
            if (n_stages, scale) == (4, 1):
                assert analytic == 319_200
    grammar = hg.build_grammar(4, 2)
    rng = np.random.default_rng(20240106)
    for _ in range(1000):
        derivation = hg.sample_derivation(grammar, "uniform", rng)
        assert hg.parse(grammar, hg.serialize(derivation)) == derivation
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(7, "prior-mode modal derivation at high confidence is the default")
def test_07_prior_architecture_modality():
    grammar = hg.build_grammar(4, 2)
    center = hg.default_derivation(grammar)
    rng = np.random.default_rng(20240107)
    counts = Counter(
        hg.serialize(hg.sample_derivation(grammar, ("prior", center, "high"), rng))
        for _ in range(10_000)
    )
    assert counts.most_common(1)[0][0] == hg.serialize(center)


@criterion(8, "prior centered at the optimum beats a random prior center")
def test_08_prior_benefit():
    start = time.monotonic()
    d = 8
    ladder = budget_ladder(10, 1000, 3)
    optimum = {f"p{i}": 0.3 for i in range(d)}

    def incumbent_after_first_bracket(space) -> float:
        problem = SyntheticProblem.from_space(
            space, optimum=optimum, b_max=1000, size_parameters=())
        result = jb.run(space, problem, ladder, seed=seed)
        first = max(t.bracket for t in result.history.trials)
        eligible = [
            t.cost.primary
            for t in result.history.trials
            if t.status == "ok"
            and t.budget == ladder.b_max
            and t.bracket in (-1, first)
        ]
        return min(eligible)

    centered, random_center = [], []
    for seed in range(20):
        centered.append(incumbent_after_first_bracket(float_space(d, default=0.3)))
        center_rng = np.random.default_rng(10_000 + seed)
        rand_space = cs.build_space([
            cs.ParameterSpec(f"p{i}", "float", lo=0.0, hi=1.0,
                             default=float(center_rng.uniform()))
            for i in range(d)
        ])
        random_center.append(incumbent_after_first_bracket(rand_space))
    assert np.median(centered) < np.median(random_center)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@criterion(9, "trade-off front has >= 2 points; incumbent is accuracy-only")
def test_09_regularized_trade_off():
    space = float_space(4)
    problem = SyntheticProblem.from_space(
        space,
        optimum={f"p{i}": 0.8 for i in range(4)},
        b_max=243,
        size_parameters=("p2", "p3"),
    )
    ladder = budget_ladder(1, 243, 3)
    result = jb.run(space, problem, ladder, mode="regularized", seed=11)
    front = result.pareto_front
    assert len(front) >= 2
    for i, (_, a) in enumerate(front):
        for j, (_, b) in enumerate(front):
            if i != j:
                assert not (
                    a.primary <= b.primary
                    and a.runtime_hours <= b.runtime_hours
                    and (a.primary < b.primary or a.runtime_hours < b.runtime_hours)
                )
    top = result.history.max_budget_trials()
    best = min(top, key=lambda t: (t.cost.primary, t.cost.runtime_hours, t.config_id))
    assert result.final_incumbent == best.configuration
    assert best.cost.runtime_hours > min(t.cost.runtime_hours for t in top) or len(
        {t.cost.runtime_hours for t in top}
    ) == 1
    again = jb.run(space, problem, ladder, mode="regularized", seed=11)
    assert again.final_incumbent == result.final_incumbent
    assert [(c.assignments, v) for c, v in again.pareto_front] == [
        (c.assignments, v) for c, v in front
    ]


@criterion(10, "importance decomposition recovers additive structure")
def test_10_fanova_sanity():
    def grid_history(fn):
        space = cs.build_space([
            cs.ParameterSpec("x", "float", lo=0.0, hi=1.0, default=0.5),
            cs.ParameterSpec("y", "float", lo=0.0, hi=1.0, default=0.5),
        ])
        from conftest import history_from_table

        rows = []
        for xv in np.linspace(0, 1, 32):
            for yv in np.linspace(0, 1, 32):
                rows.append(
                    (cs.Configuration({"x": float(xv), "y": float(yv)}),
                     float(fn(xv, yv)), 1.0)
                )
        return history_from_table(space, rows)

    single = fanova_first_order(grid_history(lambda x, y: x), trees=32, seed=0)
    assert single.importances["x"] >= 0.9
    assert single.importances["y"] <= 0.05
    additive = fanova_first_order(grid_history(lambda x, y: x + y), trees=32, seed=0)
    assert 0.4 <= additive.importances["x"] <= 0.6
    assert 0.4 <= additive.importances["y"] <= 0.6


@criterion(11, "overlap metric: identical 1, disjoint 0, partial 0.6")
def test_11_dsc_formula():
    x = np.zeros(16, dtype=bool)
    x[:4] = True
    assert dsc(x, x) == 1.0
    assert dsc(x, ~x) == 0.0
    y = np.zeros(16, dtype=bool)
    y[1:7] = True
    assert dsc(x, y) == 0.6


@criterion(12, "cmd_run is byte-deterministic for identical manifests")
def test_12_cli_determinism(tmp_path):
    out = tmp_path / "results"
    args = [
        "run", "--space", str(SPACES_DIR / "jahs_table3_4.json"),
        "--problem", "synthetic", "--mode", "regularized", "--eta", "3",
        "--min-budget", "3", "--max-budget", "81",
        "--seed", "0", "--out", str(out),
    ]
    assert cli_main(list(args)) == 0
    names = ("history.csv", "pareto.json", "incumbent_trajectory.csv")
    snapshot = {n: (out / "seed_0" / n).read_bytes() for n in names}
    assert cli_main(list(args)) == 0
    for n in names:
        assert (out / "seed_0" / n).read_bytes() == snapshot[n]


@criterion(13, "replay of an exported run reproduces it exactly")
def test_13_replay_fidelity(tmp_path):
    space = float_space(5)
    problem = SyntheticProblem.from_space(
        space,
        optimum={f"p{i}": 0.4 for i in range(5)},
        b_max=81,
        size_parameters=("p4",),
    )
    ladder = budget_ladder(1, 81, 3)

    def trail(result):
        return [
            (t.config_id, t.bracket, t.rung, t.budget, t.strategy,
             t.previous_budget, t.status, t.cost, t.configuration)
            for t in result.history.trials
        ]

    for mode in ("priorband", "regularized"):
        original = jb.run(space, problem, ladder, mode=mode, seed=17)
        first = export_reports(original, tmp_path / mode / "original")
        # the exported history.csv is the replay table
        replayed_problem = ReplayProblem.from_history(
            read_history_csv(first[0], space, ladder))
        replayed = jb.run(space, replayed_problem, ladder, mode=mode, seed=17)
        assert trail(replayed) == trail(original)
        assert replayed.final_incumbent == original.final_incumbent
        assert replayed.pareto_front == original.pareto_front
        second = export_reports(replayed, tmp_path / mode / "replayed")
        assert [f.name for f in first] == [f.name for f in second]
        for f1, f2 in zip(first, second):
            assert f1.read_bytes() == f2.read_bytes()
