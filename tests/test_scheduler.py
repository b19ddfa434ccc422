import numpy as np
import pytest

from jahsband.scheduler import (
    BracketPlan,
    InvalidBudgetsError,
    NonMonotoneBudgetsError,
    bracket_plan,
    budget_ladder,
    charge_cost,
)


def enumerate_schedule(plan: BracketPlan) -> list[dict[str, int]]:
    """Flatten a plan into (bracket, rung, count, budget) rows, the basis for
    total-cost accounting."""
    rows = []
    for bracket in plan.brackets:
        for offset, count in enumerate(bracket.rung_counts):
            rung = bracket.start_rung + offset
            rows.append(
                {
                    "bracket": bracket.s,
                    "rung": rung,
                    "count": count,
                    "budget": plan.ladder.rung_budgets[rung],
                }
            )
    return rows


def schedule_epochs(plan: BracketPlan, mode: str = "restart") -> int:
    """Total epochs the plan spends across all brackets under one accounting
    mode, excluding any seeding evaluation: the :func:`charge_cost` of each
    configuration's chain of budgets up to the rung it stops at."""
    budgets = plan.ladder.rung_budgets
    total = 0
    for bracket in plan.brackets:
        counts = bracket.rung_counts
        for offset, (count, promoted) in enumerate(zip(counts, counts[1:] + (0,))):
            chain = budgets[bracket.start_rung : bracket.start_rung + offset + 1]
            total += (count - promoted) * charge_cost(list(chain), mode)
    return total


class TestBudgetLadder:
    def test_reference_setup(self):
        ladder = budget_ladder(10, 1000, 3)
        assert ladder.s_max == 4
        assert ladder.rung_budgets == (12, 37, 111, 333, 1000)

    def test_single_step(self):
        for b, eta in [(5, 2), (7, 3), (10, 4)]:
            ladder = budget_ladder(b, b * eta, eta)
            assert ladder.s_max == 1
            assert ladder.rung_budgets == (b, b * eta)

    def test_equal_budgets_invalid(self):
        with pytest.raises(InvalidBudgetsError):
            budget_ladder(10, 10, 3)

    def test_eta_below_two_invalid(self):
        with pytest.raises(InvalidBudgetsError):
            budget_ladder(10, 100, 1)

    def test_top_rung_is_always_b_max(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eta = int(rng.integers(2, 5))
            b_min = int(rng.integers(1, 50))
            b_max = b_min * eta ** int(rng.integers(1, 5))
            ladder = budget_ladder(b_min, b_max, eta)
            assert ladder.rung_budgets[-1] == b_max
            assert all(
                b2 > b1
                for b1, b2 in zip(ladder.rung_budgets, ladder.rung_budgets[1:])
            )


class TestBracketPlan:
    def test_standard_hb_counts(self):
        plan = bracket_plan(budget_ladder(10, 1000, 3), "standard-hb")
        assert [b.n_configs for b in plan.brackets] == [81, 34, 15, 8, 5]
        assert [b.start_rung for b in plan.brackets] == [0, 1, 2, 3, 4]
        assert plan.brackets[0].rung_counts == (81, 27, 9, 3, 1)

    def test_as_written_counts(self):
        plan = bracket_plan(budget_ladder(10, 1000, 3), "as-written")
        assert [b.n_configs for b in plan.brackets] == [1, 1, 2, 2, 4]

    def test_survivors_never_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            eta = int(rng.integers(2, 5))
            b_min = int(rng.integers(1, 20))
            b_max = b_min * eta ** int(rng.integers(1, 6))
            for policy in ("standard-hb", "as-written"):
                plan = bracket_plan(budget_ladder(b_min, b_max, eta), policy)
                for bracket in plan.brackets:
                    assert all(k >= 1 for k in bracket.rung_counts)
                    assert all(
                        k2 <= k1
                        for k1, k2 in zip(
                            bracket.rung_counts, bracket.rung_counts[1:]
                        )
                    )


class TestChargeCost:
    def test_two_step_chain(self):
        assert charge_cost([12, 37], "continuation") == 37
        assert charge_cost([12, 37], "restart") == 49

    def test_single_evaluation(self):
        assert charge_cost([1000], "continuation") == 1000
        assert charge_cost([1000], "restart") == 1000

    def test_full_chain(self):
        chain = [12, 37, 111, 333, 1000]
        assert charge_cost(chain, "continuation") == 1000
        assert charge_cost(chain, "restart") == 1493

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneBudgetsError):
            charge_cost([10, 10], "continuation")
        with pytest.raises(NonMonotoneBudgetsError):
            charge_cost([30, 10], "restart")

    def test_continuation_never_exceeds_restart(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            chain = sorted(rng.choice(np.arange(1, 2000), size=n, replace=False))
            chain = [int(b) for b in chain]
            assert charge_cost(chain, "continuation") <= charge_cost(chain, "restart")


class TestScheduleTotals:
    # frozen regression constants from the schedule enumerator for the
    # reference (10, 1000, 3) standard-hb setup
    def test_totals_frozen(self):
        plan = bracket_plan(budget_ladder(10, 1000, 3), "standard-hb")
        assert sum(b.n_configs for b in plan.brackets) == 143
        assert schedule_epochs(plan, "restart") == 23441
        assert schedule_epochs(plan, "continuation") == 19491

    def test_unknown_mode_rejected(self):
        plan = bracket_plan(budget_ladder(1, 243, 3), "standard-hb")
        with pytest.raises(ValueError):
            schedule_epochs(plan, "bogus")

    @pytest.mark.parametrize("policy", ["standard-hb", "as-written"])
    @pytest.mark.parametrize(
        "ladder", [(1, 243, 3), (10, 1000, 3), (1, 100, 2), (5, 500, 4)]
    )
    def test_continuation_charges_each_rung_increment(self, ladder, policy):
        plan = bracket_plan(budget_ladder(*ladder), policy)
        budgets = plan.ladder.rung_budgets
        expected = 0
        for bracket in plan.brackets:
            for offset, count in enumerate(bracket.rung_counts):
                rung = bracket.start_rung + offset
                prev = budgets[rung - 1] if offset else 0
                expected += count * (budgets[rung] - prev)
        assert schedule_epochs(plan, "continuation") == expected

    def test_enumeration_consistent_with_totals(self):
        plan = bracket_plan(budget_ladder(10, 1000, 3), "standard-hb")
        rows = enumerate_schedule(plan)
        assert sum(r["count"] * r["budget"] for r in rows) == schedule_epochs(
            plan, "restart"
        )
        starts = [r for r in rows if r["bracket"] + r["rung"] == plan.ladder.s_max]
        assert sum(r["count"] for r in starts) == sum(b.n_configs for b in plan.brackets)
