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
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType

from . import configspace as cs
from ._pcg64 import PCG64, seed_words
from .configspace import Configuration, SearchSpace
from .grammar import Derivation, parse
from .harness import EvaluationFailed, MalformedRowError
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

    def as_array(self) -> list[float]:
        return [self.random, self.prior, self.incumbent]


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
        self.charged: list[int] = []  # epochs charged up to and including each trial
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
        self.charged.append(trial.charged_epochs + (self.charged[-1] if self.charged else 0))
        self._configs[trial.config_id] = trial.configuration
        if trial.cost is None:
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
        return [t for t in self.trials if t.cost is not None and t.budget == self.b_max]

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
    configuration's highest completed budget. The top rows are scored
    against each center in one :func:`~jahsband.configspace.log_densities`
    call, in log space, relative to the largest log density, so the shares
    stay defined where every plain density underflows to 0.0.
    Identical centers give exactly (0.5, 0.5).
    """
    if not history.max_budget_trials():
        raise NoMaxBudgetTrialError("need a completed top-budget trial")
    entries = history.costs_at_highest_budget()
    ranked = sorted(entries, key=lambda e: (e[1].primary, e[1].runtime_hours, e[0]))
    n_top = max(1, math.ceil(len(ranked) / history.ladder.eta))
    space, configs = history.space, history.configurations()
    rows = [cs.normalize(space, configs[cid]) for cid, _ in ranked[:n_top]]
    centers = [cs.normalize(space, c) for c in (prior_center, incumbent)]
    logs = [cs.log_densities(space, rows, c) for c in centers]
    peak = max(map(max, logs))
    # left to right, as builtin sum adds floats before Python 3.12
    score_prior = score_inc = 0.0
    for v_prior, v_inc in zip(*logs):
        score_prior += math.exp(v_prior - peak)
        score_inc += math.exp(v_inc - peak)
    total = score_prior + score_inc
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

    @classmethod
    def of(cls, history: RunHistory,
           weight_traces: list[tuple[int, SamplerWeights]] | None = None) -> "RunResult":
        """The result a finished history holds: its incumbent, None when no
        top-budget trial completed, and its Pareto front."""
        configs = history.configurations()
        front = [(configs[cid], cost) for cid, cost in history.pareto_entries()]
        incumbent = final_incumbent(history) if history.max_budget_trials() else None
        return cls(history, incumbent, front, weight_traces or [])


def _eval_seed(run_seed: int, config_id: int, rung: int) -> int:
    """``SeedSequence([run_seed, config_id, rung]).generate_state(1, np.uint64)[0]``."""
    return seed_words([run_seed, config_id, rung], 1)[0]


def _recorded_cost(primary: float, runtime: float) -> CostVector | None:
    """A primary in [0, 1] and a runtime in [0, inf) as a cost of Python
    floats; anything else, NaN included, is a failed trial's None."""
    in_range = 0.0 <= primary <= 1.0 and 0.0 <= runtime < math.inf
    return CostVector(float(primary), float(runtime)) if in_range else None


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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if getattr(problem, "space", space) is not space and getattr(
        problem, "space"
    ).names != space.names:
        raise ValueError("problem and space disagree on parameters")
    plan = bracket_plan(ladder, policy)
    rng = PCG64(seed)
    history = RunHistory(space, ladder, run_seed=seed)
    pool = None
    if workers > 1:  # imported here, so a serial run loads no thread pool
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=workers)

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
            try:
                objectives = problem.evaluate(
                    config, budget, seed=eval_seed, previous_budget=previous_budget
                )
            except EvaluationFailed:
                objectives = CostVector(math.nan, math.nan)
            return Trial(
                config_id=cid,
                configuration=config,
                bracket=bracket_s,
                rung=rung,
                budget=budget,
                strategy=strategy,
                cost=_recorded_cost(objectives.primary, objectives.runtime_hours),
                previous_budget=previous_budget,
            )

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

            # the bracket's history is constant, so one center (sampler_weights'
            # own) serves every draw; the history's kept front makes it cheap to find
            center: Configuration | None = None
            strategy_cdf = cs.choice_cdf(weights.as_array())
            members: list[tuple[int, Configuration, str]] = []
            for _ in range(bracket.n_configs):
                strategy = STRATEGIES[cs.draw_index(rng, strategy_cdf)]
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
                    ok = [i for i, t in enumerate(trials) if t.cost is not None]
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

    return RunResult.of(history, weight_traces)


# history persistence: the one writer and the one reader of history.csv

#: history.csv columns, one row per trial
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


def write_history_csv(history: RunHistory, path: str | Path) -> None:
    """One row per trial, in execution order; identical histories produce
    byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        for t, charged in zip(history.trials, history.charged):
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
                    t.configuration.serialized_config,
                    t.configuration.serialized_architecture,
                ]
            )


def read_history_csv(
    path: str | Path, space: SearchSpace, ladder: BudgetLadder
) -> RunHistory:
    """Inverse of :func:`write_history_csv`. A missing column, or a row that
    no run writes (a row cut short, an architecture the space cannot parse,
    a ``serialized_config`` outside the space, a status other than ``ok``
    with a cost a run records or ``failed`` without one,
    another run seed than the first row's, a rung off ``ladder``, below its
    bracket's first rung or at a budget other than its own, a bracket off
    the plan, a cumulative charge that grows by other than the row's budget
    or its step up from the rung below), raises
    :class:`~jahsband.harness.MalformedRowError` naming the line. Each
    configuration is checked once, by ``space.validate``, which keeps its row."""
    history: RunHistory | None = None
    # one (immutable) Configuration per configuration, one derivation per architecture
    configs: dict[tuple[str, str], Configuration] = {}
    derivations: dict[str, Derivation] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in HISTORY_COLUMNS if c not in header]
        if missing:
            raise MalformedRowError(f"history.csv lacks columns {missing}")
        # fields in HISTORY_COLUMNS order; a repeated column's last counts, as in DictReader
        at = {name: i for i, name in enumerate(header)}
        fields = itemgetter(*(at[c] for c in HISTORY_COLUMNS))
        for row in reader:
            if not row:  # a blank line holds no row
                continue
            try:
                if len(row) != len(header):
                    raise ValueError("row does not have one field per column")
                (run_seed, bracket, rung, config_id, strategy, budget, primary, runtime,
                 charged, status, serialized, arch) = fields(row)
                if history is None:
                    history = RunHistory(space, ladder, run_seed=int(run_seed))
                elif int(run_seed) != history.run_seed:
                    raise ValueError(f"run_seed {run_seed!r}, not {history.run_seed}")
                config = configs.get((serialized, arch))
                if config is None:
                    derivation = derivations.get(arch)
                    if derivation is None and arch:
                        if space.grammar is None:
                            raise ValueError(f"{arch!r} but the space has no grammar")
                        derivation = derivations[arch] = parse(space.grammar, arch)
                    try:
                        assignments = json.loads(serialized)
                    except RecursionError:
                        raise ValueError("serialized_config: JSON nested too deeply") from None
                    if not isinstance(assignments, dict):
                        raise ValueError("serialized_config is not a JSON object")
                    config = configs[serialized, arch] = Configuration(assignments, derivation)
                    space.validate(config)
                budget, rung = int(budget), int(rung)
                if not (0 <= rung <= ladder.s_max and budget == ladder.rung_budgets[rung]):
                    raise ValueError(f"rung {rung} at budget {budget} is not on the ladder")
                # bracket s starts at rung s_max - s; the default's -1 at the top
                bracket = int(bracket)
                first = ladder.s_max - max(bracket, 0)
                if not (-1 <= bracket <= ladder.s_max and first <= rung):
                    raise ValueError(f"rung {rung} is not in bracket {bracket}")
                delta = int(charged) - (history.charged[-1] if history.charged else 0)
                if not (delta == budget or first < rung
                        and budget - delta == ladder.rung_budgets[rung - 1]):
                    raise ValueError(f"charged {delta} epochs at budget {budget}")
                if status == "ok":
                    cost = _recorded_cost(float(primary), float(runtime))
                    if cost is None:
                        raise ValueError(f"cost {primary}, {runtime} is out of range")
                elif status == "failed" and primary == runtime == "":
                    cost = None
                else:
                    raise ValueError(f"status {status!r} with costs {primary!r}, {runtime!r}")
                config_id = int(config_id)
            except ValueError as exc:
                raise MalformedRowError(f"line {reader.line_num}: {exc}") from exc
            history.add(
                Trial(
                    config_id=config_id,
                    configuration=config,
                    bracket=bracket,
                    rung=rung,
                    budget=budget,
                    strategy=strategy,
                    cost=cost,
                    previous_budget=budget - delta if delta != budget else None,
                )
            )
    if history is None:
        raise EmptyHistoryError(f"no trials in {path}")
    return history
