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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .configspace import Configuration
from .priorband import RunHistory, RunResult, write_history_csv

if TYPE_CHECKING:
    import numpy as np


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


def fanova_first_order(history: RunHistory, trees: int = 32, seed: int = 0,
                       max_depth: int = 12) -> ImportanceReport:
    """First-order importance of every parameter, from each configuration's
    highest-budget cost: all zeros for a constant objective, and
    :class:`InsufficientDataError` below two distinct configurations. The
    forest (:func:`._forest.importance`) loads numpy on the first call."""
    from ._forest import importance

    return importance(history, trees, seed, max_depth)


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
    problem_labels: list[str] | None = None,
    incumbent_labels: list[str] | None = None,
) -> CrossEvalMatrix:
    """Evaluate every incumbent on every problem at that problem's top
    budget, its ``b_max``, noise-free. All problems must share one space."""
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
    import numpy as np

    cells = np.empty((len(problems), len(incumbents)))
    for i, problem in enumerate(problems):
        noise_free = problem.without_noise() if hasattr(problem, "without_noise") else problem
        for j, incumbent in enumerate(incumbents):
            cells[i, j] = noise_free.evaluate(incumbent, problem.b_max).primary
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
            writer.writerow([label] + [repr(v) for v in matrix.cells[i].tolist()])
        writer.writerow(["mean"] + [repr(v) for v in matrix.column_means.tolist()])


# report export

def write_json(obj: object, path: str | Path) -> None:
    """``obj`` as a run's JSON files are written: sorted keys, indent 2, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_pareto_json(result: RunResult, path: str | Path) -> None:
    points = [
        {
            "config": config.assignments,
            "architecture": config.serialized_architecture or None,
            "primary": cost.primary,
            "runtime_hours": cost.runtime_hours,
        }
        for config, cost in result.pareto_front
    ]
    write_json({"points": points}, path)


def write_incumbent_trajectory(history: RunHistory, path: str | Path) -> None:
    """Charged epochs (continuation-aware, cumulative) against the best
    primary cost seen at the top budget so far; one row per trial."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "charged_epochs", "incumbent_primary"])
        best: float | None = None
        for i, (t, charged) in enumerate(zip(history.trials, history.charged)):
            if t.cost is not None and t.budget == history.b_max:
                best = t.cost.primary if best is None else min(best, t.cost.primary)
            writer.writerow([i, charged, repr(best) if best is not None else ""])


def write_importance_json(report: ImportanceReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


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
