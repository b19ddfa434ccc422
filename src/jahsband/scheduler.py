"""Budget ladders and successive-halving bracket plans.

A ladder spans geometrically spaced epoch budgets between a minimum and a
maximum, rounded to whole epochs. A bracket plan assigns each bracket its
starting rung, its initial configuration count, and the per-rung survivor
counts. Two sizing policies exist because the literature disagrees on the
initial count formula; both share identical rung mechanics.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

from .configspace import Configuration, _round_half_up
from .moo import CostVector

STANDARD_HB = "standard-hb"
AS_WRITTEN = "as-written"


class InvalidBudgetsError(ValueError):
    """b_min/b_max/eta do not define a usable ladder."""


class NonMonotoneBudgetsError(ValueError):
    """A promotion chain's budgets must strictly increase."""


@dataclass(frozen=True)
class BudgetLadder:
    """Geometric epoch budgets b_max * eta^(k - s_max), k = 0..s_max."""

    b_min: int
    b_max: int
    eta: int
    s_max: int
    rung_budgets: tuple[int, ...]


def budget_ladder(b_min: int, b_max: int, eta: int) -> BudgetLadder:
    """Build the ladder; s_max is the largest s with b_min * eta^s <= b_max."""
    if not (1 <= b_min < b_max):
        raise InvalidBudgetsError(f"need 1 <= b_min < b_max, got {b_min}, {b_max}")
    if eta < 2:
        raise InvalidBudgetsError(f"eta must be >= 2, got {eta}")
    s_max = 0
    while b_min * eta ** (s_max + 1) <= b_max:
        s_max += 1
    budgets = [
        max(1, _round_half_up(b_max * eta ** (k - s_max)))
        for k in range(s_max + 1)
    ]
    budgets[-1] = b_max
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise InvalidBudgetsError(f"rounded budgets collide: {budgets}")
    return BudgetLadder(b_min, b_max, eta, s_max, tuple(budgets))


@dataclass(frozen=True)
class Bracket:
    """One bracket: initial count, starting rung, per-rung survivor counts."""

    s: int
    n_configs: int
    start_rung: int
    rung_counts: tuple[int, ...]


@dataclass(frozen=True)
class BracketPlan:
    ladder: BudgetLadder
    policy: str
    brackets: tuple[Bracket, ...]


def bracket_plan(ladder: BudgetLadder, policy: str = STANDARD_HB) -> BracketPlan:
    """Lay out brackets s = s_max..0.

    standard-hb sizes bracket s at ceil((s_max+1)/(s+1) * eta^s) configs;
    as-written uses ceil(s_max/(s+1)). Survivor counts then shrink by
    floor(k/eta) per rung, clamped to at least 1.
    """
    if policy not in (STANDARD_HB, AS_WRITTEN):
        raise ValueError(f"unknown policy {policy!r}")
    s_max, eta = ladder.s_max, ladder.eta
    brackets = []
    for s in range(s_max, -1, -1):
        if policy == STANDARD_HB:
            n = math.ceil((s_max + 1) / (s + 1) * eta**s)
        else:
            n = max(1, math.ceil(s_max / (s + 1)))
        start = s_max - s
        counts = [n]
        for _ in range(start + 1, s_max + 1):
            counts.append(max(1, counts[-1] // eta))
        brackets.append(Bracket(s, n, start, tuple(counts)))
    return BracketPlan(ladder, policy, tuple(brackets))


def charge_cost(budgets: list[int], mode: str = "continuation") -> int:
    """Epochs charged for one configuration evaluated along a budget chain.

    continuation resumes from the previous budget and charges only deltas
    (total equals the final budget); restart retrains from scratch each time
    and charges the full sum.
    """
    if not budgets:
        return 0
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise NonMonotoneBudgetsError(f"budgets must strictly increase: {budgets}")
    if mode == "continuation":
        return budgets[-1]
    if mode == "restart":
        return sum(budgets)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class Trial:
    """One recorded evaluation of a configuration at a budget."""

    config_id: int
    configuration: Configuration
    bracket: int
    rung: int
    budget: int
    strategy: str  # random | prior | incumbent | default
    _: KW_ONLY
    cost: CostVector | None = None  # None when the evaluation failed
    previous_budget: int | None = None

    @property
    def status(self) -> str:
        return "ok" if self.cost is not None else "failed"

    @property
    def charged_epochs(self) -> int:
        return self.budget - (self.previous_budget or 0)
