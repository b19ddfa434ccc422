import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jahsband as jb
from jahsband import configspace as cs
from jahsband import grammar as hg
from jahsband import priorband
from jahsband._forest import _history_matrix
from jahsband.analysis import export_reports, write_incumbent_trajectory
from jahsband.harness import EvaluationFailed, SyntheticProblem
from jahsband.moo import CostVector
from jahsband.priorband import (
    EmptyHistoryError,
    NoMaxBudgetTrialError,
    RunHistory,
    SamplerWeights,
    _eval_seed,
    dynamic_weighting,
    final_incumbent,
    incumbent_for_sampling,
    read_history_csv,
    sampler_weights,
    write_history_csv,
)
from jahsband.scheduler import Trial, budget_ladder

from conftest import brute_force_fronts, float_space, history_from_table

SPACE_FILE = Path(__file__).resolve().parents[1] / "spaces" / "jahs_table3_4.json"


def small_setup(d=3, optimum=0.3, b_max=27, default=0.5, size=()):
    space = float_space(d, default=default)
    problem = SyntheticProblem.from_space(
        space,
        optimum={f"p{i}": optimum for i in range(d)},
        b_max=b_max,
        size_parameters=size,
    )
    return space, problem, budget_ladder(1, b_max, 3)


def _column(path, name):
    """The integers in one column of a CSV file."""
    with open(path, newline="") as fh:
        return [int(row[name]) for row in csv.DictReader(fh)]


class FailAbove:
    """Wraps a problem; raises EvaluationFailed when p0 exceeds a limit."""

    def __init__(self, inner, limit):
        self.inner = inner
        self.space = inner.space
        self.limit = limit

    def evaluate(self, config, budget, seed=0, previous_budget=None):
        if config["p0"] > self.limit:
            raise EvaluationFailed("synthetic fault")
        return self.inner.evaluate(config, budget, seed, previous_budget)


def views_from_scratch(history):
    """costs_at_highest_budget, pareto_entries and configurations rebuilt
    from the trial list alone."""
    best = {}
    for t in history.trials:
        if t.status != "ok" or t.cost is None:
            continue
        if t.config_id not in best or t.budget > best[t.config_id].budget:
            best[t.config_id] = t
    entries = [(cid, best[cid].cost) for cid in sorted(best)]
    front = []
    if entries:
        front = [entries[i] for i in brute_force_fronts([c for _, c in entries])[0]]
    configs = {t.config_id: t.configuration for t in history.trials}
    return entries, front, configs


def assert_views_current(history):
    entries, front, configs = views_from_scratch(history)
    assert history.costs_at_highest_budget() == entries
    assert history.pareto_entries() == front
    assert dict(history.configurations()) == configs


class CheckedHistory(RunHistory):
    """Checks the incremental views against a rebuild after every add."""

    def add(self, trial):
        super().add(trial)
        assert_views_current(self)


class TestRunHistoryViews:
    LEVELS = (0.0, 0.5, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # config_id
                st.sampled_from((1, 3, 9, 27)),  # budget
                st.booleans(),  # failed
                st.sampled_from(LEVELS),
                st.sampled_from(LEVELS),
                st.integers(0, 2),  # configuration value
            ),
            max_size=40,
        )
    )
    def test_views_match_rebuild_after_every_add(self, rows):
        space = float_space(1)
        history = CheckedHistory(space, budget_ladder(1, 27, 3))
        assert_views_current(history)
        for cid, budget, failed, primary, runtime, value in rows:
            history.add(Trial(
                config_id=cid,
                configuration=cs.Configuration({"p0": value / 2}),
                bracket=0,
                rung=0,
                budget=budget,
                strategy="random",
                cost=None if failed else CostVector(primary, runtime),
            ))

    def test_run_and_reloaded_history(self, tmp_path, monkeypatch):
        # failed trials and configurations re-run at higher budgets, both in
        # a live run and in the history read back from its CSV
        space, problem, ladder = small_setup(size=("p2",))
        monkeypatch.setattr(priorband, "RunHistory", CheckedHistory)
        result = jb.run(space, FailAbove(problem, 0.75), ladder, seed=2)
        trials = result.history.trials
        assert any(t.status == "failed" for t in trials)
        assert len({t.config_id for t in trials}) < len(trials)
        path = tmp_path / "history.csv"
        write_history_csv(result.history, path)
        loaded = read_history_csv(path, space, ladder)
        assert isinstance(loaded, CheckedHistory)

    def test_rows_follow_latest_configuration(self, monkeypatch):
        # the feature matrix and the top rows weighting scores read each
        # config_id's latest configuration, also after an earlier one of the
        # same id was encoded
        space = float_space(1)
        history = RunHistory(space, budget_ladder(1, 27, 3))
        first = cs.Configuration({"p0": 0.25})

        def add(config, budget):
            history.add(Trial(3, config, 0, 0, budget, "random",
                              cost=CostVector(0.5, 1.0)))

        log_densities, scored = cs.log_densities, []

        def recording(space, rows, center, confidence=None):
            scored.append([list(r) for r in rows])
            return log_densities(space, rows, center, confidence)

        monkeypatch.setattr(cs, "log_densities", recording)
        default = space.default_configuration()
        add(first, 1)
        add(first, 27)
        assert _history_matrix(history)[0].tolist() == [[0.25]]
        dynamic_weighting(history, default, first)
        add(cs.Configuration({"p0": 0.75}), 27)
        assert _history_matrix(history)[0].tolist() == [[0.75]]
        dynamic_weighting(history, default, first)
        assert scored == [[[0.25]], [[0.25]], [[0.75]], [[0.75]]]

    def test_csv_strings_follow_each_trials_configuration(self, tmp_path):
        g = hg.build_grammar(3, 1)
        space = cs.build_space(float_space(1).parameters, g)
        first, second = (
            cs.Configuration({"p0": p0}, hg.sample_derivation(g, "uniform", seed))
            for p0, seed in ((0.25, 1), (0.75, 2))
        )
        assert hg.serialize(first.derivation) != hg.serialize(second.derivation)
        # config_id 3 is added again with another configuration, then with
        # the first one again
        order = [first, first, second, first]
        history = RunHistory(space, budget_ladder(1, 27, 3))
        for budget, config in zip((1, 3, 9, 27), order):
            history.add(Trial(3, config, 0, 0, budget, "random",
                              cost=CostVector(0.5, 1.0)))
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["serialized_config"], r["serialized_architecture"])
                for r in rows] == [
            (json.dumps(c.assignments, sort_keys=True), hg.serialize(c.derivation))
            for c in order
        ]

    def test_configurations_is_read_only(self):
        space = float_space(1)
        history = history_from_table(space, [(space.default_configuration(), 0.5, 1.0)])
        with pytest.raises(TypeError):
            history.configurations()[0] = space.default_configuration()


class TestSamplerWeights:
    def test_schedule_exact(self):
        for r, expected in [(0, 0.5), (1, 0.25), (2, 0.1)]:
            w = sampler_weights(r, 3)
            assert w.random == pytest.approx(expected)
            assert w.prior == pytest.approx(1 - expected)
            assert w.incumbent == 0.0

    def test_random_share_strictly_decreasing(self):
        values = [sampler_weights(r, 3).random for r in range(8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_simplex_valid(self):
        for r in range(6):
            w = sampler_weights(r, 3)
            assert w.random + w.prior + w.incumbent == pytest.approx(1.0)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            SamplerWeights(0.5, 0.6, 0.0)

    def test_default_only_history_keeps_incumbent_off(self):
        space, problem, ladder = small_setup()
        history = RunHistory(space, ladder)
        default = space.default_configuration()
        history.add(Trial(0, default, -1, ladder.s_max, ladder.b_max,
                          "default", cost=CostVector(0.4, 1.0)))
        w = sampler_weights(0, 3, history)
        assert w == SamplerWeights(0.5, 0.5, 0.0)

    def test_activates_after_sampled_max_budget_trial(self):
        space, problem, ladder = small_setup()
        history = RunHistory(space, ladder)
        default = space.default_configuration()
        history.add(Trial(0, default, -1, ladder.s_max, ladder.b_max,
                          "default", cost=CostVector(0.4, 1.0)))
        history.add(Trial(1, cs.Configuration({f"p{i}": 0.2 for i in range(3)}),
                          0, ladder.s_max, ladder.b_max, "random",
                          cost=CostVector(0.3, 1.0)))
        w = sampler_weights(1, 3, history)
        assert w.random == pytest.approx(0.25)
        assert w.incumbent > 0.0


class TestDynamicWeighting:
    def make_history(self, configs_costs):
        space, _, ladder = small_setup()
        history = RunHistory(space, ladder)
        for cid, (values, primary) in enumerate(configs_costs):
            config = cs.Configuration({f"p{i}": v for i, v in enumerate(values)})
            history.add(Trial(cid, config, 0, ladder.s_max, ladder.b_max,
                              "random", cost=CostVector(primary, 1.0)))
        return space, history

    def test_identical_centers_split_evenly(self):
        space, history = self.make_history([((0.5, 0.5, 0.5), 0.2)])
        center = space.default_configuration()
        assert dynamic_weighting(history, center, center) == (0.5, 0.5)

    def test_top_at_prior_center_favors_prior(self):
        space, history = self.make_history(
            [((0.5, 0.5, 0.5), 0.1), ((0.5, 0.5, 0.5), 0.2)]
        )
        prior_center = space.default_configuration()
        far = cs.Configuration({f"p{i}": 0.05 for i in range(3)})
        p_prior, p_inc = dynamic_weighting(history, prior_center, far)
        assert p_prior > p_inc

    def test_wide_space_weights_in_log_space(self):
        # 200 floats at high confidence: the plain density of every top
        # configuration underflows to 0.0 under both centers, although the
        # top set lies much nearer the prior center than the incumbent
        space = float_space(200, default=0.0, confidence="high")
        rng = np.random.default_rng(0)
        rows = [
            (cs.Configuration({n: float(rng.uniform(0.35, 0.55))
                               for n in space.names}), 0.1 + 0.01 * i, 1.0)
            for i in range(9)
        ]
        history = history_from_table(space, rows)
        prior_center = space.default_configuration()
        far = cs.Configuration({n: 1.0 for n in space.names})
        for config, _, _ in rows:
            assert cs.prior_pdf(space, config, prior_center) == 0.0
            assert cs.prior_pdf(space, config, far) == 0.0
        p_prior, p_inc = dynamic_weighting(history, prior_center, far)
        assert p_prior > 0.5
        assert p_prior + p_inc == pytest.approx(1.0)

    def test_requires_max_budget_trial(self):
        space, _, ladder = small_setup()
        history = RunHistory(space, ladder)
        history.add(Trial(0, space.default_configuration(), 0, 0, 1,
                          "random", cost=CostVector(0.5, 1.0)))
        center = space.default_configuration()
        with pytest.raises(NoMaxBudgetTrialError):
            dynamic_weighting(history, center, center)

    def test_misplaced_prior_shifts_weight_to_incumbent(self):
        # prior pinned to a corner, optimum at the opposite corner: once the
        # incumbent settles near the optimum, its distribution explains the
        # top configurations better than the prior does
        shares = []
        for seed in range(20):
            space, problem, ladder = small_setup(d=3, optimum=0.1, default=0.9)
            result = jb.run(space, problem, ladder, seed=seed)
            prior_center = space.default_configuration()
            incumbent = incumbent_for_sampling(result.history)
            shares.append(
                dynamic_weighting(result.history, prior_center, incumbent)
            )
        median_prior = np.median([s[0] for s in shares])
        median_inc = np.median([s[1] for s in shares])
        assert median_inc > median_prior


class TestIncumbents:
    def test_single_trial_is_incumbent(self):
        space = float_space(2)
        config = cs.Configuration({"p0": 0.1, "p1": 0.9})
        history = history_from_table(space, [(config, 0.4, 2.0)])
        assert incumbent_for_sampling(history) == config

    def test_empty_history(self):
        space, _, ladder = small_setup()
        with pytest.raises(EmptyHistoryError):
            incumbent_for_sampling(RunHistory(space, ladder))

    def test_dominated_configs_never_incumbent(self, rng):
        space = float_space(1)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            rows = []
            for i in range(n):
                rows.append(
                    (cs.Configuration({"p0": float(rng.uniform())}),
                     float(rng.uniform()), float(rng.uniform(0.1, 5)))
                )
            history = history_from_table(space, rows)
            chosen = incumbent_for_sampling(history)
            idx = next(
                i for i, (c, _, _) in enumerate(rows) if c == chosen
            )
            chosen_cost = (rows[idx][1], rows[idx][2])
            for _, p, r in rows:
                dominates = (
                    p <= chosen_cost[0] and r <= chosen_cost[1]
                    and (p < chosen_cost[0] or r < chosen_cost[1])
                )
                assert not dominates

    def test_final_incumbent_ignores_runtime(self):
        space = float_space(1)
        slow_good = cs.Configuration({"p0": 0.2})
        fast_bad = cs.Configuration({"p0": 0.8})
        history = history_from_table(
            space, [(fast_bad, 0.3, 0.1), (slow_good, 0.2, 99.0)]
        )
        assert final_incumbent(history) == slow_good

    def test_final_incumbent_tie_breaks_on_runtime_then_id(self):
        space = float_space(1)
        a = cs.Configuration({"p0": 0.1})
        b = cs.Configuration({"p0": 0.9})
        history = history_from_table(space, [(a, 0.2, 5.0), (b, 0.2, 2.0)])
        assert final_incumbent(history) == b
        history2 = history_from_table(space, [(a, 0.2, 2.0), (b, 0.2, 2.0)])
        assert final_incumbent(history2) == a

    def test_final_incumbent_requires_max_budget(self):
        space, _, ladder = small_setup()
        history = RunHistory(space, ladder)
        history.add(Trial(0, space.default_configuration(), 0, 0, 1,
                          "random", cost=CostVector(0.5, 1.0)))
        with pytest.raises(NoMaxBudgetTrialError):
            final_incumbent(history)


class TestRun:
    def test_config_count_matches_plan(self):
        space, problem, ladder = small_setup()
        plan = jb.bracket_plan(ladder, "standard-hb")
        result = jb.run(space, problem, ladder, seed=0)
        ids = {t.config_id for t in result.history.trials}
        assert len(ids) == 1 + sum(b.n_configs for b in plan.brackets)

    def test_identical_seeds_identical_histories(self, tmp_path):
        space, problem, ladder = small_setup()
        a = jb.run(space, problem, ladder, seed=3)
        b = jb.run(space, problem, ladder, seed=3)
        write_history_csv(a.history, tmp_path / "a.csv")
        write_history_csv(b.history, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        space, problem, ladder = small_setup()
        a = jb.run(space, problem, ladder, seed=5, workers=1)
        b = jb.run(space, problem, ladder, seed=5, workers=4)
        write_history_csv(a.history, tmp_path / "a.csv")
        write_history_csv(b.history, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_evaluation_gets_its_trials_seed(self, workers):
        # a trial does not store its seed, so record what the evaluator gets
        space, problem, ladder = small_setup()
        failing = FailAbove(problem, 0.75)
        calls = []

        class Recording:
            def __init__(self):
                self.space = space

            def evaluate(self, config, budget, seed=0, previous_budget=None):
                calls.append((id(config), budget, seed))
                return failing.evaluate(config, budget, seed, previous_budget)

        result = jb.run(space, Recording(), ladder, seed=6, workers=workers)
        trials = result.history.trials
        assert {t.status for t in trials} == {"ok", "failed"}
        assert Counter(calls) == Counter(
            (id(t.configuration), t.budget, _eval_seed(6, t.config_id, t.rung))
            for t in trials
        )

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        space, problem, ladder = small_setup()
        with pytest.raises(ValueError, match="workers"):
            jb.run(space, problem, ladder, workers=workers)

    def test_only_a_pooled_run_loads_a_thread_pool(self):
        # a fresh process: this one may have loaded concurrent.futures already
        probe = """
import json, sys, threading
import jahsband.cli
from jahsband import configspace as cs
from jahsband.harness import SyntheticProblem
from jahsband.priorband import run
from jahsband.scheduler import budget_ladder

class Threads(SyntheticProblem):
    off_main = False
    def evaluate(self, *args, **kwargs):
        Threads.off_main |= threading.current_thread() is not threading.main_thread()
        return super().evaluate(*args, **kwargs)

space = cs.build_space([cs.ParameterSpec("p0", "float", lo=0.0, hi=1.0, default=0.5)])
problem = Threads.from_space(space, b_max=27)
seen = ["concurrent.futures" in sys.modules]
for workers in (1, 2):
    run(space, problem, budget_ladder(1, 27, 3), workers=workers)
    seen.append(["concurrent.futures" in sys.modules, Threads.off_main])
print(json.dumps(seen))
"""
        src = str(Path(jb.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, [False, False], [True, True]]

    def test_argmin_primary_always_promoted(self):
        space, problem, ladder = small_setup(size=("p2",))
        for seed in range(5):
            result = jb.run(space, problem, ladder, mode="regularized", seed=seed)
            trials = result.history.trials
            by_rung = {}
            for t in trials:
                if t.bracket >= 0:
                    by_rung.setdefault((t.bracket, t.rung), []).append(t)
            for (bracket, rung), group in by_rung.items():
                nxt = by_rung.get((bracket, rung + 1))
                if not nxt:
                    continue
                ok = [t for t in group if t.status == "ok"]
                best = min(ok, key=lambda t: (t.cost.primary, t.config_id))
                assert best.config_id in {t.config_id for t in nxt}

    def test_modes_agree_when_runtime_constant(self):
        # no size parameters: within a rung every config has the same runtime
        space, problem, ladder = small_setup(size=())
        a = jb.run(space, problem, ladder, mode="regularized", seed=9)
        b = jb.run(space, problem, ladder, mode="priorband", seed=9)
        key = lambda res: [
            (t.config_id, t.rung, t.budget, t.cost) for t in res.history.trials
        ]
        assert key(a) == key(b)

    def test_strategy_frequencies_first_bracket(self):
        space, problem, ladder = small_setup()
        tags = Counter()
        for seed in range(60):
            result = jb.run(space, problem, ladder, seed=seed)
            s_first = max(t.bracket for t in result.history.trials)
            for t in result.history.trials:
                if t.bracket == s_first and t.rung == ladder.s_max - s_first:
                    tags[t.strategy] += 1
        n = tags["random"] + tags["prior"] + tags["incumbent"]
        sigma = 0.5 / np.sqrt(n)
        assert tags["incumbent"] == 0
        assert abs(tags["prior"] / n - 0.5) < 3 * sigma

    def test_failed_trials_recorded_and_never_promoted(self):
        space, problem, ladder = small_setup()
        result = jb.run(space, FailAbove(problem, 0.75), ladder, seed=2)
        failed = [t for t in result.history.trials if t.status == "failed"]
        assert failed, "expected some failures with this seed"
        assert all(t.cost is None for t in failed)
        failed_at = {(t.bracket, t.config_id, t.rung) for t in failed}
        for bracket, cid, rung in failed_at:
            later = [
                t for t in result.history.trials
                if t.bracket == bracket and t.config_id == cid and t.rung > rung
            ]
            assert later == []
        # fronts and incumbents come from completed trials only
        front_ids = {
            cid for cid, _ in result.history.pareto_entries()
        }
        assert front_ids.isdisjoint({t.config_id for t in failed
                                     if all(x.status == "failed"
                                            for x in result.history.trials
                                            if x.config_id == t.config_id)})

    @pytest.mark.parametrize("primary, runtime", [
        (math.nan, 0.1), (0.5, math.nan), (0.5, math.inf), (1.5, 0.1),
        (-0.1, 0.1), (0.5, -1.0),
    ])
    def test_bad_objectives_fail_one_trial(self, primary, runtime):
        space, problem, ladder = small_setup()

        class BadFifthCall:
            def __init__(self):
                self.space = space
                self.calls = 0

            def evaluate(self, config, budget, seed=0, previous_budget=None):
                self.calls += 1
                if self.calls == 5:
                    return jb.CostVector(primary, runtime)
                return problem.evaluate(config, budget, seed, previous_budget)

        result = jb.run(space, BadFifthCall(), ladder, seed=0)
        clean = jb.run(space, problem, ladder, seed=0)
        trials = result.history.trials
        bad = trials[4]
        assert (bad.status, bad.cost) == ("failed", None)
        assert all(t.status == "ok" for t in trials[:4] + trials[5:])
        assert trials[:4] == clean.history.trials[:4]
        assert bad.configuration == clean.history.trials[4].configuration
        # never promoted, never on the front
        assert [t for t in result.history.trials if t.config_id == bad.config_id] == [bad]
        assert bad.config_id not in {cid for cid, _ in result.history.pareto_entries()}

    @pytest.mark.parametrize("mode", ["regularized", "priorband"])
    def test_one_sampling_center_per_bracket(self, mode, monkeypatch):
        space, problem, ladder = small_setup(d=2, b_max=81)
        original = priorband.incumbent_for_sampling
        sampling_calls = Counter()

        def counting(history):
            if sys._getframe(1).f_code.co_name == "run":
                sampling_calls[len(history)] += 1
            return original(history)

        monkeypatch.setattr(priorband, "incumbent_for_sampling", counting)
        for seed in range(4):
            sampling_calls.clear()
            result = jb.run(space, problem, ladder, mode=mode, seed=seed)
            drawn = {t.bracket for t in result.history.trials if t.strategy == "incumbent"}
            assert drawn, "expected incumbent draws with this setup"
            # the history grows between brackets, so its length names the bracket
            assert sorted(sampling_calls.values()) == [1] * len(drawn)

    def test_restart_mode_charges_full_budgets(self):
        space, problem, ladder = small_setup()
        cont = jb.run(space, problem, ladder, continuation=True, seed=1)
        rest = jb.run(space, problem, ladder, continuation=False, seed=1)
        charged_cont = sum(t.charged_epochs for t in cont.history.trials)
        charged_rest = sum(t.charged_epochs for t in rest.history.trials)
        assert charged_cont < charged_rest
        assert charged_rest == sum(t.budget for t in rest.history.trials)

    def test_history_csv_roundtrip(self, tmp_path):
        space, problem, ladder = small_setup()
        for continuation in (True, False):
            result = jb.run(space, problem, ladder, continuation=continuation, seed=4)
            path = tmp_path / "history.csv"
            write_history_csv(result.history, path)
            loaded = read_history_csv(path, space, ladder)
            assert len(loaded.trials) == len(result.history.trials)
            for a, b in zip(result.history.trials, loaded.trials):
                assert (a.config_id, a.bracket, a.rung, a.budget, a.strategy,
                        a.cost, a.previous_budget, a.status,
                        a.configuration) == (
                    b.config_id, b.bracket, b.rung, b.budget, b.strategy,
                    b.cost, b.previous_budget, b.status, b.configuration)
            # re-export is byte-identical
            path2 = tmp_path / "again.csv"
            write_history_csv(loaded, path2)
            assert path.read_bytes() == path2.read_bytes()
            # both writers print the history's running charge, which the
            # reader rebuilds
            for history in (result.history, loaded):
                trajectory = tmp_path / "incumbent_trajectory.csv"
                write_incumbent_trajectory(history, trajectory)
                assert history.charged == list(
                    accumulate(t.charged_epochs for t in history.trials))
                assert history.charged == _column(path, "charged_epochs_cumulative")
                assert history.charged == _column(trajectory, "charged_epochs")

    def test_numpy_float_costs_roundtrip(self, tmp_path):
        """A problem whose costs are numpy floats records Python floats: the
        same bytes as the problem that returns them, which read back."""
        space, problem, ladder = small_setup()

        class NumpyCosts:
            def evaluate(self, *args, **kwargs):
                cost = problem.evaluate(*args, **kwargs)
                return CostVector(*map(np.float64, cost.as_tuple()))

        for name, p in (("plain", problem), ("numpy", NumpyCosts())):
            export_reports(jb.run(space, p, ladder, seed=4), tmp_path / name)
        for name in ("history.csv", "incumbent_trajectory.csv", "pareto.json"):
            assert (tmp_path / "numpy" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()
        loaded = read_history_csv(tmp_path / "numpy" / "history.csv", space, ladder)
        assert {type(v) for t in loaded.trials for v in t.cost.as_tuple()} == {float}

    def test_history_reload_parses_each_architecture_once(
        self, tmp_path, monkeypatch
    ):
        space = cs.load_space({
            "parameters": [
                {"name": "lr", "kind": "log_float", "lo": 1e-4, "hi": 1.0,
                 "default": 1e-2},
            ],
            "grammar": {"n_stages_max": 3, "model_scale_max": 1},
        })
        problem = SyntheticProblem.from_space(space, b_max=27)
        ladder = budget_ladder(1, 27, 3)
        result = jb.run(space, problem, ladder, seed=7)
        path = tmp_path / "history.csv"
        write_history_csv(result.history, path)
        parsed = Counter()
        parse = priorband.parse

        def counting_parse(grammar, text):
            parsed[text] += 1
            return parse(grammar, text)

        monkeypatch.setattr(priorband, "parse", counting_parse)
        loaded = read_history_csv(path, space, ladder)
        assert set(parsed.values()) == {1}
        assert len(parsed) < len(loaded.trials)

    def test_each_configuration_encoded_once_per_space(self, tmp_path, monkeypatch):
        # every rung's evaluation, the weighting's top rows and centers and
        # the report's feature matrix share one encoding per configuration
        space = cs.load_space(SPACE_FILE)
        problem = SyntheticProblem.from_space(space, b_max=27)
        ladder = budget_ladder(1, 27, 3)
        unit_features = hg.Grammar.unit_features
        encoded, kept = Counter(), []

        def counting(grammar, derivation):
            # only normalize encodes; its frame holds the configuration
            config = sys._getframe(1).f_locals["config"]
            kept.append(config)  # so no id is reused
            encoded[id(config)] += 1
            return unit_features(grammar, derivation)

        monkeypatch.setattr(hg.Grammar, "unit_features", counting)
        result = jb.run(space, problem, ladder, seed=1)
        path = tmp_path / "history.csv"
        export_reports(result, tmp_path, importance=True, trees=2)
        trials = result.history.trials
        assert len({id(t.configuration) for t in trials}) < len(trials)
        assert max(encoded.values()) == 1
        assert all(encoded[id(t.configuration)] == 1 for t in trials)
        assert set(encoded) == {id(t.configuration) for t in trials}
        monkeypatch.undo()
        fresh = cs.load_space(SPACE_FILE)
        for history in (result.history, read_history_csv(path, space, ladder)):
            for config in history.configurations().values():
                assert cs.normalize(space, config) == cs.normalize(fresh, config)

    def test_grammar_space_run(self):
        space = cs.load_space({
            "parameters": [
                {"name": "lr", "kind": "log_float", "lo": 1e-4, "hi": 1.0,
                 "default": 1e-2},
            ],
            "grammar": {"n_stages_max": 3, "model_scale_max": 1},
        })
        problem = SyntheticProblem.from_space(space, optimum="default", b_max=9)
        ladder = budget_ladder(1, 9, 3)
        result = jb.run(space, problem, ladder, seed=0)
        assert all(
            t.configuration.derivation is not None
            for t in result.history.trials
        )
        assert result.final_incumbent is not None
