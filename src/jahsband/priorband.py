"""The optimizer loop: ensemble sampling over random / prior / incumbent
strategies with a geometrically decaying random share, dynamic re-weighting
of the prior and incumbent distributions once full-budget results exist, and
successive halving with either single-objective promotion ("priorband" mode)
or Pareto promotion with diversity ranking ("regularized" mode).

Two incumbent notions coexist: sampling centers on the Pareto-front member
maximizing normalized objective area, while the final reported incumbent is
chosen on primary cost alone.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import configspace as cs
from .configspace import Configuration, SearchSpace
from .grammar import parse, serialize
from .harness import EvaluationFailed
from .moo import CostVector, area_incumbent, non_dominated_sort, select_top_k
from .scheduler import BudgetLadder, Trial, bracket_plan

STRATEGIES = ("random", "prior", "incumbent")


class NoMaxBudgetTrialError(ValueError):
    """An operation needs at least one completed top-budget trial."""


class EmptyHistoryError(ValueError):
    """An operation needs a non-empty history."""


@dataclass(frozen=True)
class SamplerWeights:
    """Probability of each sampling strategy; a point on the simplex."""

    random: float
    prior: float
    incumbent: float

    def __post_init__(self) -> None:
        total = self.random + self.prior + self.incumbent
        if min(self.random, self.prior, self.incumbent) < 0 or abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must be a probability vector, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.random, self.prior, self.incumbent])


class RunHistory:
    """Append-only list of trials with derived incumbent / front views.

    The views are kept up to date by :meth:`add`, so a trial must not be
    changed once it has been added.
    """

    def __init__(self, space: SearchSpace, ladder: BudgetLadder, run_seed: int = 0):
        self.space = space
        self.ladder = ladder
        self.run_seed = run_seed
        self.trials: list[Trial] = []
        self._configs: dict[int, Configuration] = {}
        # per config_id, its completed trial at the highest budget
        self._best: dict[int, Trial] = {}
        # first front over self._best; None once a best trial has changed
        self._front: list[tuple[int, CostVector]] | None = []

    @property
    def b_max(self) -> int:
        return self.ladder.b_max

    def add(self, trial: Trial) -> None:
        self.trials.append(trial)
        self._configs[trial.config_id] = trial.configuration
        if trial.status != "ok" or trial.cost is None:
            return
        best = self._best.get(trial.config_id)
        if best is None or trial.budget > best.budget:
            self._best[trial.config_id] = trial
            self._front = None

    def __len__(self) -> int:
        return len(self.trials)

    def configurations(self) -> Mapping[int, Configuration]:
        """Read-only config_id -> configuration (the latest trial's)."""
        return MappingProxyType(self._configs)

    def costs_at_highest_budget(self) -> list[tuple[int, CostVector]]:
        """Per configuration: its cost at the highest budget it completed,
        ordered by config_id. Failed-only configurations are absent."""
        return [(cid, self._best[cid].cost) for cid in sorted(self._best)]

    def max_budget_trials(self) -> list[Trial]:
        return [
            t
            for t in self.trials
            if t.status == "ok" and t.cost is not None and t.budget == self.b_max
        ]

    def pareto_entries(self) -> list[tuple[int, CostVector]]:
        """Non-dominated (config_id, cost) pairs over highest-budget costs."""
        if self._front is None:
            entries = self.costs_at_highest_budget()
            fronts = non_dominated_sort([c for _, c in entries])
            self._front = [entries[i] for i in fronts[0]]
        return list(self._front)


def sampler_weights(
    r: int,
    eta: int,
    history: RunHistory | None = None,
) -> SamplerWeights:
    """Strategy weights for the bracket with counter r (0 for the first).

    The random share decays geometrically: 1 / (1 + eta^r). Until a sampled
    (non-default) configuration has completed at the top budget, the
    remainder goes entirely to prior sampling; afterwards it is split between
    prior and incumbent sampling in proportion to how well each distribution
    explains the current top configurations.
    """
    if r < 0:
        raise ValueError("bracket counter must be >= 0")
    p_random = 1.0 / (1.0 + eta**r)
    rest = 1.0 - p_random
    if history is not None:
        activated = any(
            t.strategy != "default" for t in history.max_budget_trials()
        )
        if activated:
            prior_share, inc_share = dynamic_weighting(
                history,
                history.space.default_configuration(),
                incumbent_for_sampling(history),
            )
            return SamplerWeights(p_random, rest * prior_share, rest * inc_share)
    return SamplerWeights(p_random, rest, 0.0)


def dynamic_weighting(
    history: RunHistory,
    prior_center: Configuration,
    incumbent: Configuration,
) -> tuple[float, float]:
    """Relative shares (prior, incumbent), proportional to the likelihood of
    the current top configurations under each center's distribution.

    Top means the best-by-primary ceil(n/eta) configurations, judged at each
    configuration's highest completed budget. Identical centers give exactly
    (0.5, 0.5); so do two centers under which the top set has zero density.
    """
    if not history.max_budget_trials():
        raise NoMaxBudgetTrialError("need a completed top-budget trial")
    entries = history.costs_at_highest_budget()
    ranked = sorted(entries, key=lambda e: (e[1].primary, e[1].runtime_hours, e[0]))
    n_top = max(1, math.ceil(len(ranked) / history.ladder.eta))
    configs = history.configurations()
    top = [configs[cid] for cid, _ in ranked[:n_top]]
    score_prior = sum(cs.prior_pdf(history.space, c, prior_center) for c in top)
    score_inc = sum(cs.prior_pdf(history.space, c, incumbent) for c in top)
    total = score_prior + score_inc
    if total <= 0.0:
        return 0.5, 0.5
    return score_prior / total, score_inc / total


def incumbent_for_sampling(history: RunHistory) -> Configuration:
    """The local-search center: the Pareto-front configuration spanning the
    largest normalized objective area."""
    entries = history.pareto_entries()
    if not entries:
        raise EmptyHistoryError("no completed trials")
    idx = area_incumbent([c for _, c in entries])
    return history.configurations()[entries[idx][0]]


def final_incumbent(history: RunHistory) -> Configuration:
    """Best configuration by primary cost among top-budget trials; runtime is
    ignored except to break exact primary ties (then earlier config_id)."""
    trials = history.max_budget_trials()
    if not trials:
        raise NoMaxBudgetTrialError("no completed top-budget trial")
    best = min(trials, key=lambda t: (t.cost.primary, t.cost.runtime_hours, t.config_id))
    return best.configuration


@dataclass
class RunResult:
    history: RunHistory
    final_incumbent: Configuration | None  # None only if every trial failed
    pareto_front: list[tuple[Configuration, CostVector]]
    weight_traces: list[tuple[int, SamplerWeights]]


def _eval_seed(run_seed: int, config_id: int, rung: int) -> int:
    ss = np.random.SeedSequence([run_seed, config_id, rung])
    return int(ss.generate_state(1, np.uint64)[0])


def run(
    space: SearchSpace,
    problem,
    ladder: BudgetLadder,
    policy: str = "standard-hb",
    mode: str = "regularized",
    continuation: bool = True,
    seed: int = 0,
    workers: int = 1,
) -> RunResult:
    """Execute the full schedule: the default configuration once at the top
    budget, then every bracket from s_max down to 0 with per-configuration
    strategy draws and batch-synchronous successive halving.

    Evaluator failures, and objectives that are non-finite, negative or a
    primary cost outside [0, 1], become failed trials (never promoted);
    everything else is deterministic given the seed, independent of the
    worker count.
    """
    if mode not in ("priorband", "regularized"):
        raise ValueError(f"unknown mode {mode!r}")
    if getattr(problem, "space", space) is not space and getattr(
        problem, "space"
    ).names != space.names:
        raise ValueError("problem and space disagree on parameters")
    plan = bracket_plan(ladder, policy)
    rng = np.random.default_rng(seed)
    history = RunHistory(space, ladder, run_seed=seed)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def evaluate_rung(
        members: list[tuple[int, Configuration, str]],
        bracket_s: int,
        rung: int,
        budget: int,
        previous_budget: int | None,
    ) -> list[Trial]:
        def one(member: tuple[int, Configuration, str]) -> Trial:
            cid, config, strategy = member
            eval_seed = _eval_seed(seed, cid, rung)
            trial = Trial(
                config_id=cid,
                configuration=config,
                bracket=bracket_s,
                rung=rung,
                budget=budget,
                strategy=strategy,
                seed=eval_seed,
                previous_budget=previous_budget,
            )
            try:
                objectives = problem.evaluate(
                    config, budget, seed=eval_seed, previous_budget=previous_budget
                )
            except EvaluationFailed:
                trial.status = "failed"
                return trial
            primary, runtime = objectives.primary, objectives.runtime_hours
            # NaN fails both comparisons
            if 0.0 <= primary <= 1.0 and 0.0 <= runtime < math.inf:
                trial.cost = CostVector(primary, runtime)
            else:
                trial.status = "failed"
            return trial

        if pool is not None:
            return list(pool.map(one, members))
        return [one(m) for m in members]

    try:
        # seed the history with the default configuration at full budget
        default = space.default_configuration()
        for trial in evaluate_rung(
            [(0, default, "default")], -1, ladder.s_max, ladder.b_max, None
        ):
            history.add(trial)

        next_id = 1
        weight_traces: list[tuple[int, SamplerWeights]] = []
        for bracket in plan.brackets:
            r = ladder.s_max - bracket.s
            weights = sampler_weights(r, ladder.eta, history)
            weight_traces.append((bracket.s, weights))

            # the history is constant while a bracket samples, so its
            # center is computed once, on the first incumbent draw
            center: Configuration | None = None
            members: list[tuple[int, Configuration, str]] = []
            for _ in range(bracket.n_configs):
                strategy = STRATEGIES[
                    int(rng.choice(3, p=weights.as_array()))
                ]
                if strategy == "random":
                    config = cs.sample(space, "uniform", rng)
                elif strategy == "prior":
                    config = cs.sample(space, "prior", rng)
                else:
                    if center is None:
                        center = incumbent_for_sampling(history)
                    config = cs.sample(space, ("around", center), rng)
                members.append((next_id, config, strategy))
                next_id += 1

            alive = members
            previous_budget: int | None = None
            for offset, _count in enumerate(bracket.rung_counts):
                if not alive:
                    break
                rung = bracket.start_rung + offset
                budget = ladder.rung_budgets[rung]
                prev = previous_budget if continuation else None
                trials = evaluate_rung(alive, bracket.s, rung, budget, prev)
                for trial in trials:
                    history.add(trial)
                if offset + 1 < len(bracket.rung_counts):
                    k = bracket.rung_counts[offset + 1]
                    ok = [i for i, t in enumerate(trials) if t.status == "ok"]
                    if not ok:
                        alive = []
                        break
                    k = min(k, len(ok))
                    costs = [trials[i].cost for i in ok]
                    if mode == "regularized":
                        chosen = select_top_k(costs, k)
                    else:
                        chosen = sorted(
                            range(len(ok)), key=lambda j: (costs[j].primary, j)
                        )[:k]
                    keep = sorted(ok[j] for j in chosen)
                    alive = [alive[i] for i in keep]
                previous_budget = budget
    finally:
        if pool is not None:
            pool.shutdown(wait=True)

    configs = history.configurations()
    front = [(configs[cid], cost) for cid, cost in history.pareto_entries()]
    return RunResult(
        history=history,
        final_incumbent=final_incumbent(history)
        if history.max_budget_trials()
        else None,
        pareto_front=front,
        weight_traces=weight_traces,
    )


# history persistence

HISTORY_COLUMNS = [
    "run_seed",
    "bracket",
    "rung",
    "config_id",
    "strategy",
    "budget_epochs",
    "primary_cost",
    "runtime_hours",
    "charged_epochs_cumulative",
    "status",
    "serialized_config",
    "serialized_architecture",
]


def serialize_config(config: Configuration) -> str:
    return json.dumps(config.assignments, sort_keys=True)


def write_history_csv(history: RunHistory, path: str | Path) -> None:
    """One row per trial, in execution order; identical histories produce
    byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        charged = 0
        for t in history.trials:
            charged += t.charged_epochs
            writer.writerow(
                [
                    history.run_seed,
                    t.bracket,
                    t.rung,
                    t.config_id,
                    t.strategy,
                    t.budget,
                    repr(t.cost.primary) if t.cost is not None else "",
                    repr(t.cost.runtime_hours) if t.cost is not None else "",
                    charged,
                    t.status,
                    serialize_config(t.configuration),
                    serialize(t.configuration.derivation)
                    if t.configuration.derivation is not None
                    else "",
                ]
            )


def read_history_csv(
    path: str | Path, space: SearchSpace, ladder: BudgetLadder
) -> RunHistory:
    """Inverse of :func:`write_history_csv`."""
    history: RunHistory | None = None
    prev_charged = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if history is None:
                history = RunHistory(space, ladder, run_seed=int(row["run_seed"]))
            derivation = None
            if row["serialized_architecture"]:
                derivation = parse(space.grammar, row["serialized_architecture"])
            config = Configuration(json.loads(row["serialized_config"]), derivation)
            budget = int(row["budget_epochs"])
            charged = int(row["charged_epochs_cumulative"])
            delta = charged - prev_charged
            prev_charged = charged
            cost = None
            if row["primary_cost"] != "":
                cost = CostVector(
                    float(row["primary_cost"]), float(row["runtime_hours"])
                )
            history.add(
                Trial(
                    config_id=int(row["config_id"]),
                    configuration=config,
                    bracket=int(row["bracket"]),
                    rung=int(row["rung"]),
                    budget=budget,
                    strategy=row["strategy"],
                    seed=0,
                    cost=cost,
                    previous_budget=budget - delta if delta != budget else None,
                    status=row["status"],
                )
            )
    if history is None:
        raise EmptyHistoryError(f"no trials in {path}")
    return history
