"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from jahsband import configspace as cs
from jahsband.moo import CostVector
from jahsband.priorband import RunHistory
from jahsband.scheduler import Trial, budget_ladder


def dominates(a: CostVector, b: CostVector) -> bool:
    """True if a is no worse than b in both objectives and better in one."""
    return (
        a.primary <= b.primary
        and a.runtime_hours <= b.runtime_hours
        and (a.primary < b.primary or a.runtime_hours < b.runtime_hours)
    )


def brute_force_fronts(points: list[CostVector]) -> list[list[int]]:
    """Definitional non-dominated sorting: repeatedly extract the set of
    points not dominated by any remaining point. Independent of the
    implementation's bookkeeping."""

    def dominated(a: CostVector, b: CostVector) -> bool:
        return (
            b.primary <= a.primary
            and b.runtime_hours <= a.runtime_hours
            and (b.primary < a.primary or b.runtime_hours < a.runtime_hours)
        )

    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominated(points[i], points[j]) for j in remaining)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def float_space(d: int, default: float = 0.5, confidence: str = "medium"):
    specs = [
        cs.ParameterSpec(
            f"p{i}", "float", lo=0.0, hi=1.0, default=default,
            prior_confidence=confidence,
        )
        for i in range(d)
    ]
    return cs.build_space(specs)


def history_from_table(space, rows, b_max: int = 1000, eta: int = 3):
    """RunHistory from (configuration, primary, runtime) tuples, all recorded
    at the top budget."""
    ladder = budget_ladder(max(1, b_max // eta**2), b_max, eta)
    history = RunHistory(space, ladder)
    for cid, (config, primary, runtime) in enumerate(rows):
        history.add(
            Trial(
                config_id=cid,
                configuration=config,
                bracket=0,
                rung=ladder.s_max,
                budget=b_max,
                strategy="random",
                cost=CostVector(primary, runtime),
            )
        )
    return history


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
